"""Pure helpers of the benchmark: the percentile rule, the seeded serve
plan, metric-name rules, failure accounting and run aggregation.

Nothing here starts a process or touches a file, so `test_benchlib.py`
can check all of it quickly.
"""

import math
import random
import re
import statistics

# Names of the eleven PISA workloads (`popk_workloads::all()` order).
PISA_WORKLOADS = [
    "bzip", "gcc", "go", "gzip", "ijpeg", "li", "mcf", "parser", "twolf",
    "vortex", "vpr",
]

# Machine configurations the serve mix submits (`parse_config` names).
SERVE_CONFIGS = ["ideal", "simple2", "slice2", "slice4"]

# Instruction budgets of the serve mix: the CI serve smoke test's
# (`client submit gzip slice2 20000`) and the protocol's default `limit`
# (200 000, also the Fig. 11 row budget). A 20 k simulation ends before
# the client's delayed ACK releases its `result`, so its latency is the
# transport's; a 200 k simulation takes well longer, so its latency is
# the timing core's.
SERVE_BUDGETS = (20_000, 200_000)

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Percentiles the rule chooses among, in per mille, highest last.
PERCENTILE_LADDER = [500, 900, 990, 999]


def valid_metric_name(name):
    return bool(METRIC_NAME.match(name))


def percentile(values, q):
    """Nearest-rank percentile q (0..100) of a non-empty sample."""
    v = sorted(values)
    rank = math.ceil(q * len(v) / 100)
    return v[min(max(rank, 1), len(v)) - 1]


def tail_percentile(n):
    """The highest percentile of the ladder with at least ten of `n`
    samples beyond it, or None when even the median lacks them."""
    best = None
    for pm in PERCENTILE_LADDER:
        rank = -(-pm * n // 1000)  # nearest rank, in integers
        if n - rank >= 10:
            best = pm / 10
    return best


def timing(values):
    """Median and rule percentile of a timing sample, with its count."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None}
    p = tail_percentile(n)
    if p is not None and p > 50:
        out["p"] = p
        out["tail"] = percentile(values, p)
    return out


def failed_ratio(attempted, failed):
    """Failed (wrong, refused or errored) operations over attempted
    ones; a run that attempted nothing counts as wholly failed."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) by `statistics.quantiles`."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def serve_plan(seed, scale="full"):
    """The seeded `serve_mix` plan: keys and, per client connection,
    the steps to submit in order.

    The budgets are fixed (`SERVE_BUDGETS`). Every default-budget key
    is submitted; the seed fixes which short-budget keys join them, how
    many keys pair up, how many hits each connection sends, and the
    order of everything. Every key's first submit is a fresh simulation
    (`fresh`, or `lead` for a pair). A pair puts a new default-budget key
    on both connections at once; the follower (`attach`) joins the
    lead's job. A `hit` repeats a key that is already complete for its
    connection: submitted earlier on it, or on either connection before
    the last pair barrier.
    """
    rng = random.Random(seed)
    short_budget, long_budget = SERVE_BUDGETS
    if scale == "full":
        configs = SERVE_CONFIGS
        shorts = 18 + rng.randrange(5)
        pairs = 13 + rng.randrange(3)
        hits = [64 + rng.randrange(8), 64 + rng.randrange(8)]
    elif scale == "small":
        configs = ["slice2"]
        shorts = 4
        pairs = 4
        hits = [15, 15]
    else:
        raise ValueError(f"unknown plan scale {scale!r}")
    longs = [(w, c, long_budget) for w in PISA_WORKLOADS for c in configs]
    rng.shuffle(longs)
    short_keys = [(w, c, short_budget) for w in PISA_WORKLOADS for c in configs]
    rng.shuffle(short_keys)
    # Pairs use the default budget: the follower must reach the server
    # while the lead's simulation is still running.
    rest = longs[pairs:] + short_keys[:shorts]
    rng.shuffle(rest)
    keys = longs[:pairs] + rest
    pair_keys = list(range(pairs))
    singles = list(range(pairs, len(keys)))
    own = [singles[0::2], singles[1::2]]

    # Per connection: its fresh and hit steps in a seeded order, cut
    # into pairs + 1 segments at even spacing; the first step is fresh
    # so a hit always has a completed key to repeat.
    segments = []
    for c in (0, 1):
        items = ["fresh"] * len(own[c]) + ["hit"] * hits[c]
        rng.shuffle(items)
        items.remove("fresh")
        items.insert(0, "fresh")
        cuts = [round((j + 1) * len(items) / (pairs + 1)) for j in range(pairs)]
        bounds = [0] + cuts + [len(items)]
        segments.append([items[bounds[j]:bounds[j + 1]] for j in range(pairs + 1)])

    conns = [[], []]
    shared = []  # keys complete for both connections
    next_own = [0, 0]
    for s in range(pairs + 1):
        fresh_here = []
        for c in (0, 1):
            known = list(shared)
            for item in segments[c][s]:
                if item == "fresh":
                    k = own[c][next_own[c]]
                    next_own[c] += 1
                    known.append(k)
                    fresh_here.append(k)
                    conns[c].append({"key": k, "class": "fresh"})
                else:
                    conns[c].append({"key": rng.choice(known), "class": "hit"})
        shared.extend(fresh_here)
        if s < pairs:
            k = pair_keys[s]
            lead = rng.randrange(2)
            conns[lead].append({"key": k, "class": "lead"})
            conns[1 - lead].append({"key": k, "class": "attach"})
            shared.append(k)
    return {
        "seed": seed,
        "scale": scale,
        "budgets": list(SERVE_BUDGETS),
        "keys": [{"workload": w, "config": c, "limit": b} for (w, c, b) in keys],
        "conns": conns,
    }


def plan_classes(plan):
    """Steps of a plan per class."""
    counts = {"fresh": 0, "hit": 0, "lead": 0, "attach": 0}
    for conn in plan["conns"]:
        for step in conn:
            counts[step["class"]] += 1
    return counts


def aggregate(passes, rusages):
    """End-to-end metrics of one run from its passes.

    `passes` are the pass outputs of `popk-perfbench pass`; `rusages`
    the (cpu_s, peak_rss_kib) of each pass process.
    """
    setups = [s for p in passes for s in p["setup_s"]]
    waits = [w for p in passes for w in p["waits_ms"]]
    return {
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(cpu for cpu, _ in rusages),
        "peak_rss_mb": statistics.median(rss for _, rss in rusages) / 1024,
        "ops_per_s": statistics.median(p["ops"] / p["wall_s"] for p in passes),
        "wait_ms_p50": statistics.median(waits),
    }
