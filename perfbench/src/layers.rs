//! The traced run: each workload decomposed into timed calls of its
//! layers' public functions, made from this file.
//!
//! The selected workload runs first, at the scale of its untraced pass,
//! and its numbers win for every layer it reaches. The other three then
//! run at a small scale, only to fill in the layers the selected one
//! never calls, so every traced run reports every per-layer metric.
//!
//! Exact counts (per-stage counts of the counting sink and every
//! `SimStats` counter) are taken twice per row, and any difference is
//! reported as a failure.

use crate::counting::StageCounts;
use crate::passes::{journal_rows, CHAR_LIMIT, FIG11_LIMIT, RV32_LIMIT};
use crate::serve_mix::{self, Plan};
use crate::spans::{self, SpanGuard};
use crate::util::{median, millis, percentile, process_cpu_seconds, secs, Checks};
use popk_bench::{pool, ArtifactCache, JobKey, SweepJournal};
use popk_bpred::{BranchKind, FrontEnd};
use popk_cache::{CacheConfig, Hierarchy};
use popk_characterize::{drive, BranchStudy, DisambigStudy, TagMatchStudy, TraceSink as Study};
use popk_core::{Json, MachineConfig, SimError, SimStats, Simulator, StatsRegistry};
use popk_emu::PisaFrontend;
use popk_isa::{Insn, Program};
use popk_rv32::{Rv32Frontend, Rv32Insn, Rv32Program};
use popk_trace::{CtrlKind, Frontend, UopInsn};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::thread::ThreadId;
use std::time::Instant;

/// Budgets of the fill-in runs of workloads other than the selected one.
const FILL_FIG11_LIMIT: u64 = 5_000;
const FILL_RV32_LIMIT: u64 = 20_000;
const FILL_CHAR_LIMIT: u64 = 20_000;

/// Per-layer metrics; the first value recorded under a name wins, so
/// the selected workload's numbers are kept over the fill-ins'.
#[derive(Default)]
struct Metrics {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
}

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_insert(value);
    }

    /// A percentile metric with the sample count it rests on.
    fn put_pct(&mut self, name: &'static str, values: &[f64], q: f64) {
        if !self.values.contains_key(name) {
            self.samples.insert(name, values.len());
            self.put(name, percentile(values, q));
        }
    }
}

// ---- rows: one simulation decomposed into its layers -----------------

enum Prog<'a> {
    Pisa(&'a Program),
    Rv32(&'a Rv32Program),
}

struct RowSpec<'a> {
    id: String,
    cfg: MachineConfig,
    limit: u64,
    prog: Prog<'a>,
}

#[derive(Default)]
struct RowOut {
    thread: Option<ThreadId>,
    start: u64,
    end: u64,
    frontend_ns: u64,
    uops: u64,
    core_ns: u64,
    stats: SimStats,
    counts: StageCounts,
    l1d_accesses: u64,
    l1d_misses: u64,
    l2_misses: u64,
    cache_ns: u64,
    cache_n: u64,
    bpred_ns: u64,
    bpred_n: u64,
    errors: Vec<String>,
}

/// The control transfers of a trace as the fetch stage presents them
/// to the predictor: (pc, kind, taken, next pc).
type Ctrl = (u32, BranchKind, bool, u32);

/// Walk a frontend once, collecting the data addresses and control
/// transfers the cache and predictor replays feed their layer.
fn replay_inputs<I: UopInsn>(fe: impl Frontend<I>) -> (Vec<u32>, Vec<Ctrl>) {
    let (mut addrs, mut ctrls) = (Vec::new(), Vec::new());
    for u in fe.map_while(Result::ok) {
        let meta = u.insn.meta();
        if meta.is_mem() {
            addrs.push(u.ea);
        }
        if let Some(ctrl) = meta.ctrl {
            let kind = match ctrl {
                CtrlKind::DirectJump { is_call } => BranchKind::DirectJump {
                    target: u.next_pc,
                    is_call,
                },
                CtrlKind::IndirectJump { is_call, is_return } => {
                    BranchKind::IndirectJump { is_call, is_return }
                }
                CtrlKind::CondBranch(_) => BranchKind::Conditional {
                    target: if u.taken { u.next_pc } else { 0 },
                },
            };
            ctrls.push((u.pc, kind, u.taken, u.next_pc));
        }
    }
    (addrs, ctrls)
}

type SinkRun = (Result<SimStats, SimError>, StatsRegistry, StageCounts);

/// Decompose one row: the frontend iterated alone, the row timed
/// through the plain simulation entry point, two counting runs, and
/// the cache and predictor replays.
fn decompose_with<I: UopInsn, F: Frontend<I>>(
    row: &RowSpec,
    parent: SpanGuard,
    fe_layer: &'static str,
    frontend: impl Fn() -> F,
    plain: impl FnOnce() -> Result<SimStats, SimError>,
    counted: impl Fn() -> SinkRun,
) -> RowOut {
    let g = spans::open("row", &row.id, Some(parent));
    let mut out = RowOut {
        thread: Some(std::thread::current().id()),
        ..RowOut::default()
    };
    let id = row.id.as_str();
    let (uops, ns) = spans::timed(fe_layer, id, Some(g), || {
        frontend().map_while(Result::ok).map(black_box).count() as u64
    });
    (out.uops, out.frontend_ns) = (uops, ns);
    let (plain, ns) = spans::timed("core", id, Some(g), plain);
    out.core_ns = ns;
    let ((r1, reg, c1), _) = spans::timed("core.count", id, Some(g), &counted);
    let ((r2, _, c2), _) = spans::timed("core.count", id, Some(g), &counted);
    match (plain, r1, r2) {
        (Ok(s), Ok(s1), Ok(s2)) => {
            if s.committed != row.limit {
                out.errors
                    .push(format!("{id}: committed {} of {}", s.committed, row.limit));
            }
            if s1 != s || s2 != s {
                out.errors
                    .push(format!("{id}: SimStats differ between runs"));
            }
            out.stats = s;
        }
        (a, b, c) => {
            for e in [a.err(), b.err(), c.err()].into_iter().flatten() {
                out.errors.push(format!("{id}: {e}"));
            }
        }
    }
    if c1 != c2 {
        out.errors
            .push(format!("{id}: stage counts differ between runs"));
    }
    out.counts = c1;
    let get = |n: &str| reg.get(n).unwrap_or(0);
    out.l1d_accesses = get("l1d.accesses");
    out.l1d_misses = get("l1d.accesses") - get("l1d.hits");
    out.l2_misses = get("l2.accesses") - get("l2.hits");

    let (addrs, ctrls) = replay_inputs(frontend());
    let (_, ns) = spans::timed("cache", id, Some(g), || {
        let mut h = Hierarchy::table2();
        for &a in &addrs {
            black_box(h.access_data(a));
        }
    });
    (out.cache_ns, out.cache_n) = (ns, addrs.len() as u64);
    let (_, ns) = spans::timed("bpred", id, Some(g), || {
        let mut fe = FrontEnd::table2();
        for &(pc, kind, taken, next) in &ctrls {
            black_box(fe.predict_and_update(pc, kind, taken, next));
        }
    });
    (out.bpred_ns, out.bpred_n) = (ns, ctrls.len() as u64);
    g.close();
    (out.start, out.end) = spans::bounds(g);
    out
}

fn decompose(row: &RowSpec, parent: SpanGuard) -> RowOut {
    match row.prog {
        Prog::Pisa(p) => decompose_with(
            row,
            parent,
            "emu",
            || PisaFrontend::new(p, row.limit),
            || popk_core::try_simulate(p, &row.cfg, row.limit),
            || {
                let mut sim =
                    Simulator::<StageCounts, Insn>::with_sink(&row.cfg, StageCounts::default());
                let r = sim.try_run(p, row.limit);
                (r, sim.registry(), *sim.sink())
            },
        ),
        Prog::Rv32(p) => decompose_with(
            row,
            parent,
            "rv32",
            || Rv32Frontend::new(p, row.limit),
            || popk_core::try_simulate_frontend(&row.cfg, Rv32Frontend::new(p, row.limit)),
            || {
                let mut sim =
                    Simulator::<StageCounts, Rv32Insn>::with_sink(&row.cfg, StageCounts::default());
                let r = sim.try_run_frontend(Rv32Frontend::new(p, row.limit));
                (r, sim.registry(), *sim.sink())
            },
        ),
    }
}

/// Pool busy ratio and tail: rows were timed inside the
/// `pool::try_map_jobs` closures; the tail runs from the first worker
/// going idle to the end of the map.
fn pool_metrics(
    m: &mut Metrics,
    spans: &[(Option<ThreadId>, u64, u64)],
    threads: usize,
    start: u64,
    end: u64,
) {
    let wall = end.saturating_sub(start).max(1) as f64;
    let busy: u64 = spans.iter().map(|&(_, a, b)| b - a).sum();
    let mut last_end: HashMap<Option<ThreadId>, u64> = HashMap::new();
    for &(t, _, b) in spans {
        let e = last_end.entry(t).or_insert(0);
        *e = (*e).max(b);
    }
    let first_idle = if last_end.len() < threads {
        start // a worker never got a job
    } else {
        last_end.values().copied().min().unwrap_or(end)
    };
    m.put("pool.busy_ratio", busy as f64 / (threads as f64 * wall));
    m.put("pool.tail_s", end.saturating_sub(first_idle) as f64 / 1e9);
}

/// Run rows on the pool and fold them into the metrics. Returns the
/// rows' outcomes (in submission order) and the map's wall time in s.
fn run_rows(
    m: &mut Metrics,
    checks: &mut Checks,
    rows: &[RowSpec],
    threads: usize,
) -> (Vec<RowOut>, f64) {
    let map = spans::open("rows", "", None);
    let outs = pool::try_map_jobs(threads, rows, |r| decompose(r, map));
    let wall_ns = map.close();
    let (start, end) = spans::bounds(map);
    let mut done = Vec::new();
    for (r, row) in outs.into_iter().zip(rows) {
        checks.attempted += 1;
        match r {
            Ok(o) => {
                if !o.errors.is_empty() {
                    checks.fail(o.errors.join("; "));
                }
                done.push(o);
            }
            Err(f) => {
                checks.fail(format!("{}: panicked: {}", row.id, f.message));
                done.push(RowOut::default());
            }
        }
    }
    let fe_layer = match rows.first().map(|r| &r.prog) {
        Some(Prog::Rv32(_)) => ("rv32.uops", "rv32.ns_per_uop"),
        _ => ("emu.uops", "emu.ns_per_uop"),
    };
    let sum = |f: fn(&RowOut) -> u64| done.iter().map(f).sum::<u64>();
    let (uops, fe_ns) = (sum(|o| o.uops), sum(|o| o.frontend_ns));
    m.put(fe_layer.0, uops as f64);
    m.put(fe_layer.1, fe_ns as f64 / uops.max(1) as f64);
    let row_ms: Vec<f64> = done.iter().map(|o| o.core_ns as f64 / 1e6).collect();
    m.put_pct("core.row_ms_p50", &row_ms, 0.5);
    m.put_pct("core.row_ms_p90", &row_ms, 0.9);
    let core_ns = sum(|o| o.core_ns).saturating_sub(fe_ns) as f64;
    let (committed, cycles) = (sum(|o| o.stats.committed), sum(|o| o.stats.cycles));
    m.put("core.ns_per_uop", core_ns / committed.max(1) as f64);
    m.put("core.ns_per_cycle", core_ns / cycles.max(1) as f64);
    m.put("core.cycles", cycles as f64);
    m.put("core.committed", committed as f64);
    let mut stage: BTreeMap<&'static str, u64> = BTreeMap::new();
    for o in &done {
        for (name, v) in o.counts.named() {
            *stage.entry(name).or_insert(0) += v;
        }
    }
    for (name, v) in stage {
        m.put(name, v as f64);
    }
    m.put("cache.l1d.accesses", sum(|o| o.l1d_accesses) as f64);
    m.put("cache.l1d.misses", sum(|o| o.l1d_misses) as f64);
    m.put("cache.l2.misses", sum(|o| o.l2_misses) as f64);
    m.put(
        "cache.ns_per_access",
        sum(|o| o.cache_ns) as f64 / sum(|o| o.cache_n).max(1) as f64,
    );
    m.put("bpred.branches", sum(|o| o.stats.branches) as f64);
    m.put(
        "bpred.mispredicts",
        sum(|o| o.stats.branch_mispredicts) as f64,
    );
    m.put(
        "bpred.ns_per_lookup",
        sum(|o| o.bpred_ns) as f64 / sum(|o| o.bpred_n).max(1) as f64,
    );
    let spans: Vec<_> = done.iter().map(|o| (o.thread, o.start, o.end)).collect();
    pool_metrics(m, &spans, threads, start, end);
    (done, wall_ns as f64 / 1e9)
}

// ---- artifact cache and JSON, on job bodies -----------------------------

/// Time the artifact cache's `lookup` (on `source`, which holds the
/// bodies) and `store` (into a fresh cache under `scratch`), and the
/// JSON layer's `parse` and `to_string`, over the same bodies.
/// Returns the mean lookup and parse times in µs.
fn body_metrics(
    m: &mut Metrics,
    checks: &mut Checks,
    keys: &[JobKey],
    source: &ArtifactCache,
    scratch: &Path,
) -> (f64, f64) {
    let sink = ArtifactCache::new(scratch);
    let (mut lookup, mut store, mut parse, mut render, mut bytes) =
        (0u64, 0u64, 0u64, 0u64, 0usize);
    for key in keys {
        let id = key.digest();
        let (body, ns) = spans::timed("artifact_cache.lookup", &id, None, || source.lookup(key));
        lookup += ns;
        let Some(body) = body else {
            checks.fail(format!(
                "cache lookup of {}/{}@{} missed",
                key.workload, key.config_name, key.limit
            ));
            continue;
        };
        bytes += body.len();
        let (stored, ns) =
            spans::timed("artifact_cache.store", &id, None, || sink.store(key, &body));
        store += ns;
        if let Err(e) = stored {
            checks.fail(format!("cache store failed: {e}"));
        }
        let (parsed, ns) = spans::timed("json.parse", &id, None, || Json::parse(&body));
        parse += ns;
        match parsed {
            Ok(j) => {
                let (text, ns) = spans::timed("json.render", &id, None, || j.to_pretty(2));
                render += ns;
                black_box(text);
            }
            Err(e) => checks.fail(format!("cached body does not parse: {e}")),
        }
    }
    let n = keys.len().max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / n;
    m.put("artifact_cache.lookup_us", us(lookup));
    m.put("artifact_cache.store_us", us(store));
    m.put("artifact_cache.entry_bytes", bytes as f64 / n);
    m.put("json.parse_us", us(parse));
    m.put("json.render_us", us(render));
    (us(lookup), us(parse))
}

/// Bodies of sweep rows, built as the serve cache builds them, stored
/// in a cache under `dir` so the cache and JSON layers have input.
fn row_bodies(
    m: &mut Metrics,
    checks: &mut Checks,
    rows: &[(String, String, MachineConfig, u64)],
    outs: &[RowOut],
    dir: &Path,
) {
    let source = ArtifactCache::new(dir.join("bodies"));
    let keys: Vec<JobKey> = rows
        .iter()
        .zip(outs)
        .map(|((w, c, cfg, limit), o)| {
            let key = JobKey::new(w, c, cfg, 0, *limit);
            if let Err(e) = source.store(&key, &ArtifactCache::job_body(&key, &o.stats)) {
                checks.fail(format!("cache store failed: {e}"));
            }
            key
        })
        .collect();
    body_metrics(m, checks, &keys, &source, &dir.join("bodies-copy"));
}

// ---- the workloads ------------------------------------------------------

fn build_ms<T>(m: &mut Metrics, names: &[&'static str], build: impl Fn(&str) -> T) -> Vec<T> {
    let t = Instant::now();
    let progs = names
        .iter()
        .map(|n| spans::timed("workloads", n, None, || build(n)).0)
        .collect();
    m.put("workloads.build_ms", millis(t.elapsed()));
    progs
}

fn fig11_labels() -> Vec<String> {
    let mut v = vec!["ideal".to_string()];
    for s in ["slice2", "slice4"] {
        v.extend((0..=5).map(|l| format!("{s}-{l}")));
    }
    v
}

/// Fig. 11: builds, the journal A/B through the public report path,
/// and the 143 rows decomposed. Returns traced ÷ untraced wall time.
fn fig11(m: &mut Metrics, checks: &mut Checks, threads: usize, dir: &Path, limit: u64) -> f64 {
    let workloads = popk_workloads::all();
    let names: Vec<&'static str> = workloads.iter().map(|w| w.name).collect();
    let programs = build_ms(m, &names, |n| {
        popk_workloads::by_name(n).expect("registry name").program()
    });

    let jdir = dir.join("journal");
    let cpu0 = process_cpu_seconds();
    let g = spans::open("sweep.journaled", "fig11", None);
    let journal = SweepJournal::open(&jdir, "fig11", limit, "", false);
    let journaled = popk_bench::fig11_report_journaled(limit, threads, Some(&journal));
    let untraced_s = g.close() as f64 / 1e9;
    let cpu_journaled = process_cpu_seconds() - cpu0;
    let bytes = std::fs::metadata(jdir.join("fig11.journal")).map_or(0, |md| md.len());
    if journal_rows(&jdir.join("fig11.journal")).len() != 143 {
        checks.fail("journaled sweep did not record 143 done rows".into());
    }
    journal.finish();
    let cpu0 = process_cpu_seconds();
    let (plain, _) = spans::timed("sweep.plain", "fig11", None, || {
        popk_bench::fig11_report(limit, threads)
    });
    let cpu_plain = process_cpu_seconds() - cpu0;
    checks.record(
        1,
        journaled.artifact.json() != plain.artifact.json(),
        || "journaled and unjournaled Fig. 11 artifacts differ".into(),
    );
    m.put(
        "journal.overhead_ratio",
        cpu_journaled / cpu_plain.max(0.01),
    );
    m.put("journal.bytes", bytes as f64);

    let mut specs = Vec::new();
    let mut keyed = Vec::new();
    for (w, p) in names.iter().zip(&programs) {
        for label in fig11_labels() {
            let cfg = popk_bench::parse_config(&label).expect("Fig. 11 label parses");
            specs.push(RowSpec {
                id: format!("fig11/{w}/{label}"),
                cfg,
                limit,
                prog: Prog::Pisa(p),
            });
            keyed.push((w.to_string(), label, cfg, limit));
        }
    }
    let (outs, traced_s) = run_rows(m, checks, &specs, threads);
    row_bodies(m, checks, &keyed, &outs, dir);
    traced_s / untraced_s.max(1e-9)
}

/// The RV32 matrix: builds, the untraced report, the rows decomposed.
fn rv32(m: &mut Metrics, checks: &mut Checks, threads: usize, dir: &Path, limit: u64) -> f64 {
    let workloads = popk_rv32::workloads::all();
    let names: Vec<&'static str> = workloads.iter().map(|w| w.name).collect();
    let programs = build_ms(m, &names, |n| {
        popk_rv32::workloads::by_name(n)
            .expect("registry name")
            .program()
    });
    let (rep, untraced_ns) = spans::timed("sweep.plain", "rv32", None, || {
        popk_bench::rv32_report(limit, threads)
    });
    checks.record(1, rep.failures > 0, || "RV32 report failed".into());
    let mut specs = Vec::new();
    let mut keyed = Vec::new();
    for (w, p) in names.iter().zip(&programs) {
        for (label, cfg) in popk_bench::rv32_configs() {
            specs.push(RowSpec {
                id: format!("rv32/{w}/{label}"),
                cfg,
                limit,
                prog: Prog::Rv32(p),
            });
            keyed.push((w.to_string(), label.to_string(), cfg, limit));
        }
    }
    let (outs, traced_s) = run_rows(m, checks, &specs, threads);
    row_bodies(m, checks, &keyed, &outs, dir);
    traced_s / (untraced_ns as f64 / 1e9).max(1e-9)
}

/// The serve mix: set-up, connects, the plan (untraced first when this
/// is the selected workload), the server's counters, every key
/// simulated directly, and the cache and JSON layers on the bodies the
/// server stored.
fn serve(
    m: &mut Metrics,
    checks: &mut Checks,
    threads: usize,
    dir: &Path,
    plan: &Plan,
    selected: bool,
) -> f64 {
    let untraced_s = if selected {
        let server = serve_mix::start_server(dir.join("serve-untraced"), threads);
        let (outcomes, wall) = serve_mix::execute(&server.local_addr().to_string(), plan, false);
        serve_mix::stop(server);
        black_box(outcomes);
        wall
    } else {
        0.0
    };
    let cache_dir = dir.join("serve-cache");
    let (server, _) = spans::timed("serve.start", "", None, || {
        serve_mix::start_server(cache_dir.clone(), threads)
    });
    let addr = server.local_addr().to_string();
    let mut connect = Vec::new();
    for i in 0..4 {
        let mut ping = Json::object();
        ping.set("op", "ping".into());
        let (ok, ns) = spans::timed("serve.connect", &i.to_string(), None, || {
            popk_bench::Client::connect(&addr)
                .and_then(|mut c| c.request(&ping))
                .is_ok()
        });
        checks.record(1, !ok, || "connect + ping failed".into());
        connect.push(ns as f64 / 1e6);
    }
    m.put("serve.connect_ms", median(&connect));
    let (outcomes, traced_s) = serve_mix::execute(&addr, plan, true);
    let stats = serve_mix::stats(&addr);
    serve_mix::stop(server);
    let served = serve_mix::check(plan, &outcomes, &stats, checks);
    for (counter, name) in [
        ("cache_hits", "serve.cache_hits"),
        ("attached", "serve.attached"),
        ("simulations", "serve.simulations"),
    ] {
        m.put(
            name,
            stats.get(counter).and_then(Json::as_u64).unwrap_or(0) as f64,
        );
    }
    let hit = serve_mix::latencies(&outcomes, "hit");
    let fresh = serve_mix::latencies(&outcomes, "fresh");
    m.put_pct("serve.hit_ms_p50", &hit, 0.5);
    m.put_pct("serve.hit_ms_p90", &hit, 0.9);
    m.put_pct("serve.fresh_ms_p50", &fresh, 0.5);
    m.put_pct("serve.fresh_ms_p90", &fresh, 0.9);
    m.put_pct(
        "serve.attach_ms_p50",
        &serve_mix::latencies(&outcomes, "attach"),
        0.5,
    );

    // Every key simulated directly: the core rows of this workload, and
    // the reference each served body must equal.
    let names: Vec<&'static str> = popk_workloads::all().iter().map(|w| w.name).collect();
    let programs: BTreeMap<&str, Program> = names
        .iter()
        .copied()
        .zip(build_ms(m, &names, |n| {
            popk_workloads::by_name(n).expect("registry name").program()
        }))
        .collect();
    let mut specs = Vec::new();
    let mut keys = Vec::new();
    for (i, k) in plan.keys.iter().enumerate() {
        let (Some(cfg), Some(p)) = (
            popk_bench::parse_config(&k.config),
            programs.get(k.workload.as_str()),
        ) else {
            checks.fail(format!("plan key {i} names an unknown workload or config"));
            continue;
        };
        specs.push(RowSpec {
            id: format!("serve/{i}"),
            cfg,
            limit: k.limit,
            prog: Prog::Pisa(p),
        });
        keys.push((i, JobKey::new(&k.workload, &k.config, &cfg, 0, k.limit)));
    }
    let (outs, _) = run_rows(m, checks, &specs, threads);
    let mut row_ms: BTreeMap<usize, f64> = BTreeMap::new();
    for ((i, key), o) in keys.iter().zip(&outs) {
        row_ms.insert(*i, o.core_ns as f64 / 1e6);
        let expected = serve_mix::result_digest(key, &o.stats);
        checks.record(1, served.get(i) != Some(&expected), || {
            format!(
                "served body of {}/{}@{} differs from a direct simulation",
                key.workload, key.config_name, key.limit
            )
        });
    }
    let overhead: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.path() == "fresh")
        .filter_map(|o| row_ms.get(&o.step.key).map(|r| o.ms - r))
        .collect();
    let source = ArtifactCache::new(&cache_dir);
    let job_keys: Vec<JobKey> = keys.into_iter().map(|(_, k)| k).collect();
    let (lookup_us, parse_us) =
        body_metrics(m, checks, &job_keys, &source, &dir.join("serve-copy"));
    m.put(
        "serve.hit_overhead_ms",
        median(&hit) - (lookup_us + parse_us) / 1e3,
    );
    m.put("serve.fresh_overhead_ms", median(&overhead));
    traced_s / untraced_s.max(1e-9)
}

/// One characterization study: its kind, workload and constructor.
struct StudySpec {
    kind: &'static str,
    workload: &'static str,
    make: fn() -> Box<dyn Study + Send>,
}

fn char_specs() -> Vec<StudySpec> {
    let mut v: Vec<StudySpec> = Vec::new();
    for w in ["bzip", "gcc"] {
        v.push(StudySpec {
            kind: "disambig",
            workload: w,
            make: || Box::new(DisambigStudy::new(32)),
        });
    }
    let tag: [fn() -> Box<dyn Study + Send>; 6] = [
        || Box::new(TagMatchStudy::new(CacheConfig::new(64 * 1024, 64, 2))),
        || Box::new(TagMatchStudy::new(CacheConfig::new(64 * 1024, 64, 4))),
        || Box::new(TagMatchStudy::new(CacheConfig::new(64 * 1024, 64, 8))),
        || Box::new(TagMatchStudy::new(CacheConfig::small_8k(2))),
        || Box::new(TagMatchStudy::new(CacheConfig::small_8k(4))),
        || Box::new(TagMatchStudy::new(CacheConfig::small_8k(8))),
    ];
    for (i, make) in tag.into_iter().enumerate() {
        let workload = if i < 3 { "mcf" } else { "twolf" };
        v.push(StudySpec {
            kind: "tagmatch",
            workload,
            make,
        });
    }
    for w in popk_workloads::all() {
        v.push(StudySpec {
            kind: "branch",
            workload: w.name,
            make: || Box::new(BranchStudy::table2()),
        });
    }
    v
}

#[derive(Default)]
struct StudyOut {
    thread: Option<ThreadId>,
    start: u64,
    end: u64,
    insns: u64,
    base_ns: u64,
    study_ns: u64,
    uops: u64,
    frontend_ns: u64,
}

/// Figs. 2/4/6: builds, the untraced runner calls, then every study
/// driven with and without its sink, and the PISA frontend iterated
/// alone on the same program and budget.
fn characterize(m: &mut Metrics, checks: &mut Checks, threads: usize, limit: u64) -> f64 {
    let names: Vec<&'static str> = popk_workloads::all().iter().map(|w| w.name).collect();
    let programs: BTreeMap<&str, Program> = names
        .iter()
        .copied()
        .zip(build_ms(m, &names, |n| {
            popk_workloads::by_name(n).expect("registry name").program()
        }))
        .collect();
    let g = spans::open("figures", "char", None);
    black_box(popk_bench::fig2(&["bzip", "gcc"], limit));
    black_box(popk_bench::fig4("mcf", true, limit));
    black_box(popk_bench::fig4("twolf", false, limit));
    black_box(popk_bench::fig6(limit));
    let untraced_s = g.close() as f64 / 1e9;

    let specs = char_specs();
    let map = spans::open("studies", "", None);
    let outs = pool::try_map_jobs(threads, &specs, |s| {
        let p = &programs[s.workload];
        let id = format!("{}/{}", s.kind, s.workload);
        let g = spans::open("study", &id, Some(map));
        let mut out = StudyOut {
            thread: Some(std::thread::current().id()),
            ..StudyOut::default()
        };
        let layer = match s.kind {
            "disambig" => "characterize.disambig",
            "tagmatch" => "characterize.tagmatch",
            _ => "characterize.branch",
        };
        // Drive without and with the study twice, alternating, and keep
        // the faster of each: a cheap study's self time is a small
        // difference of two larger, noisy ones.
        let (mut base, mut n) = (Ok(0), Ok(0));
        (out.base_ns, out.study_ns) = (u64::MAX, u64::MAX);
        for _ in 0..2 {
            let (b, ns) = spans::timed("emu.drive", &id, Some(g), || drive(p, limit, &mut []));
            (base, out.base_ns) = (b, out.base_ns.min(ns));
            let mut study = (s.make)();
            let (m, ns) = spans::timed(layer, &id, Some(g), || {
                drive(p, limit, &mut [study.as_mut()])
            });
            (n, out.study_ns) = (m, out.study_ns.min(ns));
        }
        let (uops, ns) = spans::timed("emu", &id, Some(g), || {
            PisaFrontend::new(p, limit)
                .map_while(Result::ok)
                .map(black_box)
                .count() as u64
        });
        (out.uops, out.frontend_ns) = (uops, ns);
        g.close();
        (out.start, out.end) = spans::bounds(g);
        match (base, n) {
            (Ok(a), Ok(b)) if a == b && b == limit => out.insns = b,
            (a, b) => return Err(format!("{id}: traced {a:?} / {b:?} of {limit}")),
        }
        Ok(out)
    });
    let traced_ns = map.close();
    let (start, end) = spans::bounds(map);
    let mut done = Vec::new();
    for (r, s) in outs.into_iter().zip(&specs) {
        checks.attempted += 1;
        match r {
            Ok(Ok(o)) => done.push((s.kind, o)),
            Ok(Err(e)) => checks.fail(e),
            Err(f) => checks.fail(format!(
                "{}/{}: panicked: {}",
                s.kind, s.workload, f.message
            )),
        }
    }
    let insns: u64 = done.iter().map(|(_, o)| o.insns).sum();
    m.put("characterize.insns", insns as f64);
    for (kind, name) in [
        ("disambig", "characterize.disambig.ns_per_insn"),
        ("tagmatch", "characterize.tagmatch.ns_per_insn"),
        ("branch", "characterize.branch.ns_per_insn"),
    ] {
        let of_kind = done.iter().filter(|(k, _)| *k == kind);
        let (mut self_ns, mut n) = (0i64, 0u64);
        for (_, o) in of_kind {
            self_ns += o.study_ns as i64 - o.base_ns as i64;
            n += o.insns;
        }
        m.put(name, self_ns as f64 / n.max(1) as f64);
    }
    let uops: u64 = done.iter().map(|(_, o)| o.uops).sum();
    let fe_ns: u64 = done.iter().map(|(_, o)| o.frontend_ns).sum();
    m.put("emu.uops", uops as f64);
    m.put("emu.ns_per_uop", fe_ns as f64 / uops.max(1) as f64);
    let spans: Vec<_> = done
        .iter()
        .map(|(_, o)| (o.thread, o.start, o.end))
        .collect();
    pool_metrics(m, &spans, threads, start, end);
    (traced_ns as f64 / 1e9) / untraced_s.max(1e-9)
}

/// The traced run of `workload`: its own decomposition at full scale,
/// then small fill-ins of the others. `plan` is the serve plan: full
/// size when `workload` is `serve_mix`, small otherwise.
pub fn run(workload: &str, threads: usize, dir: &Path, plan: &Plan) -> Json {
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let t = Instant::now();
    let ratio = match workload {
        "fig11_sweep" => fig11(
            &mut m,
            &mut checks,
            threads,
            &dir.join("fig11"),
            FIG11_LIMIT,
        ),
        "rv32_sweep" => rv32(&mut m, &mut checks, threads, &dir.join("rv32"), RV32_LIMIT),
        "serve_mix" => serve(&mut m, &mut checks, threads, &dir.join("serve"), plan, true),
        _ => characterize(&mut m, &mut checks, threads, CHAR_LIMIT),
    };
    m.put("trace.overhead_ratio", ratio);
    let selected_s = secs(t.elapsed());
    if workload != "fig11_sweep" {
        fig11(
            &mut m,
            &mut checks,
            threads,
            &dir.join("fill-fig11"),
            FILL_FIG11_LIMIT,
        );
    }
    if workload != "rv32_sweep" {
        rv32(
            &mut m,
            &mut checks,
            threads,
            &dir.join("fill-rv32"),
            FILL_RV32_LIMIT,
        );
    }
    if workload != "serve_mix" {
        serve(
            &mut m,
            &mut checks,
            threads,
            &dir.join("fill-serve"),
            plan,
            false,
        );
    }
    if workload != "char_studies" {
        characterize(&mut m, &mut checks, threads, FILL_CHAR_LIMIT);
    }

    let mut out = Json::object();
    let mut metrics = Json::object();
    for (name, v) in &m.values {
        metrics.set(name, Json::from(*v));
    }
    out.set("metrics", metrics);
    let mut samples = Json::object();
    for (name, n) in &m.samples {
        samples.set(name, Json::from(*n));
    }
    out.set("samples", samples);
    out.set("selected_s", Json::from(selected_s));
    let mut self_ns = Json::object();
    for (layer, ns) in spans::self_times() {
        self_ns.set(layer, Json::from(ns));
    }
    out.set("self_ns", self_ns);
    checks.write(&mut out);
    out
}
