//! Experiment runners, one per table/figure.

use crate::journal::SweepJournal;
use crate::pool;
use popk_cache::CacheConfig;
use popk_characterize::{
    drive, BranchReport, BranchStudy, DisambigReport, DisambigStudy, TagMatchReport, TagMatchStudy,
};
use popk_core::{simulate, try_simulate, MachineConfig, Optimizations, SimError, SimStats};
use popk_isa::Program;
use popk_workloads::{all, by_name, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default dynamic-instruction budget per simulation. The paper simulates
/// 500 M per benchmark on native hardware; this default keeps a full
/// figure regeneration in the minutes range on one host while leaving the
/// steady-state behaviour representative. Every binary accepts a budget
/// as its first CLI argument.
pub const DEFAULT_LIMIT: u64 = 200_000;

/// Read the dynamic-instruction budget from the first CLI argument
/// (used by every report binary), falling back to [`DEFAULT_LIMIT`].
pub fn arg_limit() -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|a| a.replace('_', "").parse().ok())
        .unwrap_or(DEFAULT_LIMIT)
}

// ---- sweep throughput meter ------------------------------------------------

/// Process-wide count of simulation/characterization jobs completed and
/// dynamic instructions processed, feeding the artifacts' `host` block
/// (see [`crate::artifact::HostMeter`]). Relaxed atomics: pool workers
/// only ever add, readers only ever need a monotone snapshot.
static METER_JOBS: AtomicU64 = AtomicU64::new(0);
static METER_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Record one completed job that processed `instructions` dynamic
/// instructions.
pub(crate) fn meter_record(instructions: u64) {
    METER_JOBS.fetch_add(1, Ordering::Relaxed);
    METER_INSTRUCTIONS.fetch_add(instructions, Ordering::Relaxed);
}

/// Snapshot of (jobs completed, instructions processed) so far in this
/// process.
pub fn meter_snapshot() -> (u64, u64) {
    (
        METER_JOBS.load(Ordering::Relaxed),
        METER_INSTRUCTIONS.load(Ordering::Relaxed),
    )
}

/// [`simulate`] plus meter accounting — every runner-issued simulation
/// goes through here so the artifacts' Minsts/s reflects real work.
pub(crate) fn sim(program: &Program, cfg: &MachineConfig, limit: u64) -> SimStats {
    let s = simulate(program, cfg, limit);
    meter_record(s.committed);
    s
}

/// Fallible variant of [`sim`] for the panic-isolated sweeps: simulator
/// errors (oracle divergence, deadlock, invalid config) come back as
/// [`SimError`] instead of aborting the sweep. Successes are metered.
pub(crate) fn try_sim(
    program: &Program,
    cfg: &MachineConfig,
    limit: u64,
) -> Result<SimStats, SimError> {
    let s = try_simulate(program, cfg, limit)?;
    meter_record(s.committed);
    Ok(s)
}

// ---- journaled rows --------------------------------------------------------

/// Run one journaled sweep row on the PISA frontend.
///
/// Without a journal this is exactly [`try_sim`]. With one, a row the
/// journal replayed as `done` returns its recorded [`SimStats`] without
/// simulating (the exact-u64 JSON round-trip); any other row runs from
/// instruction 0 and records `done` (with the full counters) on
/// success.
pub(crate) fn journaled_sim(
    journal: Option<&SweepJournal>,
    row: &str,
    program: &Program,
    cfg: &MachineConfig,
    limit: u64,
) -> Result<SimStats, SimError> {
    if let Some(stats) = journal
        .and_then(|j| j.completed(row))
        .and_then(SimStats::from_json)
    {
        return Ok(stats); // replayed, nothing simulated: not metered
    }
    let s = try_sim(program, cfg, limit)?;
    if let Some(j) = journal {
        j.record_done(row, s.to_json());
    }
    Ok(s)
}

// ---- sweep failures --------------------------------------------------------

/// One (workload × config) sweep job that could not produce statistics:
/// either the simulator returned a [`SimError`] or the job panicked on
/// every attempt.
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// Workload name of the failed job.
    pub workload: &'static str,
    /// Human-readable label of the machine configuration the job ran.
    pub config: String,
    /// What went wrong: the [`SimError`] display or the panic payload.
    pub message: String,
    /// Attempts made (1 for a typed simulator error, which is
    /// deterministic; [`pool::JOB_ATTEMPTS`] for a panic).
    pub attempts: u32,
}

impl SweepFailure {
    fn from_sim(workload: &'static str, config: &str, e: &SimError) -> SweepFailure {
        SweepFailure {
            workload,
            config: config.to_string(),
            message: e.to_string(),
            attempts: 1,
        }
    }

    fn from_panic(workload: &'static str, config: &str, f: pool::JobFailure) -> SweepFailure {
        SweepFailure {
            workload,
            config: config.to_string(),
            message: f.message,
            attempts: pool::JOB_ATTEMPTS,
        }
    }
}

/// Test seam for the panic-isolation path: a workload name whose sweep
/// jobs panic on entry, simulating a poisoned job without needing a
/// genuinely crashing simulation. `None` (the default) disables it.
static POISONED_WORKLOAD: Mutex<Option<String>> = Mutex::new(None);

/// Mark `name`'s sweep jobs as poisoned (they panic on entry), or clear
/// the poison with `None`. Testing hook only — not part of the API.
#[doc(hidden)]
pub fn set_poisoned_workload(name: Option<&str>) {
    *POISONED_WORKLOAD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = name.map(str::to_string);
}

/// Panic if `name` is the currently poisoned workload. Called at the top
/// of every panic-isolated sweep job. The deliberate panic happens with
/// the lock already released (and a lock poisoned by a panicking worker
/// is recovered), so one poisoned job never wedges the rest of a sweep.
pub(crate) fn poison_check(name: &str) {
    let matched = POISONED_WORKLOAD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_deref()
        == Some(name);
    if matched {
        panic!("poisoned workload {name}");
    }
}

/// [`drive`] (functional emulation for the characterization studies)
/// plus meter accounting of the instructions actually traced.
pub(crate) fn drive_counted(
    program: &Program,
    limit: u64,
    sinks: &mut [&mut dyn popk_characterize::TraceSink],
) {
    let n = drive(program, limit, sinks).expect("emulation");
    meter_record(n);
}

/// Run `f` for every workload across the job pool, returning results in
/// the registry order.
fn per_workload<T: Send>(threads: usize, f: impl Fn(&Workload) -> T + Sync) -> Vec<T> {
    pool::map_jobs(threads, &all(), f)
}

// ---- Table 1 --------------------------------------------------------------

/// One row of Table 1.
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Instructions simulated for the timing column.
    pub instructions: u64,
    /// Baseline (ideal EX) IPC.
    pub ipc: f64,
    /// Load fraction of committed instructions.
    pub pct_loads: f64,
    /// Store fraction.
    pub pct_stores: f64,
    /// Conditional-branch direction accuracy (64K gshare + BTB + RAS).
    pub branch_accuracy: f64,
}

/// Reproduce Table 1: baseline characteristics of all eleven workloads,
/// one panic-isolated simulation job per workload across `threads` pool
/// workers. A failed job yields an `Err` row; the other ten still
/// produce data.
///
/// With `oracle` set, every simulation runs the functional machine in
/// commit-time lockstep with the timing pipeline; a divergence surfaces
/// as that row's failure.
pub fn table1(limit: u64, threads: usize, oracle: bool) -> Vec<Result<Table1Row, SweepFailure>> {
    table1_journaled(limit, threads, oracle, None)
}

/// [`table1`] behind a sweep journal: completed rows replay from their
/// recorded counters and every other row runs from instruction 0 (see
/// [`crate::journal`]).
pub fn table1_journaled(
    limit: u64,
    threads: usize,
    oracle: bool,
    journal: Option<&SweepJournal>,
) -> Vec<Result<Table1Row, SweepFailure>> {
    let workloads = all();
    let results = pool::try_map_jobs(threads, &workloads, |w| {
        poison_check(w.name);
        let p = w.program();
        let mut cfg = MachineConfig::ideal();
        cfg.oracle = oracle;
        journaled_sim(journal, &format!("table1/{}", w.name), &p, &cfg, limit).map(|s| Table1Row {
            name: w.name,
            instructions: s.committed,
            ipc: s.ipc(),
            pct_loads: s.load_fraction(),
            pct_stores: s.stores as f64 / s.committed.max(1) as f64,
            branch_accuracy: s.branch_accuracy(),
        })
    });
    results
        .into_iter()
        .zip(&workloads)
        .map(|(r, w)| match r {
            Ok(Ok(row)) => Ok(row),
            Ok(Err(e)) => Err(SweepFailure::from_sim(w.name, "ideal", &e)),
            Err(f) => Err(SweepFailure::from_panic(w.name, "ideal", f)),
        })
        .collect()
}

// ---- Fig. 2 ---------------------------------------------------------------

/// Reproduce Fig. 2 for the named benchmarks (paper: bzip and gcc),
/// 32-entry unified LSQ, one pool job per benchmark.
pub fn fig2(names: &[&str], limit: u64) -> Vec<(String, DisambigReport)> {
    pool::map_jobs(pool::default_threads(), names, |name| {
        let w = by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        let p = w.program();
        let mut study = DisambigStudy::new(32);
        drive_counted(&p, limit, &mut [&mut study]);
        (name.to_string(), study.report())
    })
}

// ---- Fig. 4 ---------------------------------------------------------------

/// Reproduce Fig. 4 for one benchmark: the named cache family at
/// associativities 2/4/8, one pool job per associativity. `big` selects
/// the 64 KB/64 B geometry (paper: mcf); otherwise 8 KB/32 B (paper:
/// twolf).
pub fn fig4(name: &str, big: bool, limit: u64) -> Vec<TagMatchReport> {
    let w = by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let p = w.program();
    pool::map_jobs(pool::default_threads(), &[2u32, 4, 8], |&ways| {
        let cfg = if big {
            CacheConfig::new(64 * 1024, 64, ways)
        } else {
            CacheConfig::small_8k(ways)
        };
        let mut study = TagMatchStudy::new(cfg);
        drive_counted(&p, limit, &mut [&mut study]);
        study.report()
    })
}

// ---- Fig. 6 ---------------------------------------------------------------

/// Reproduce Fig. 6: per-benchmark misprediction-detection CDFs with a
/// 64K-entry gshare.
pub fn fig6(limit: u64) -> Vec<(&'static str, BranchReport)> {
    per_workload(pool::default_threads(), |w| {
        let p = w.program();
        let mut study = BranchStudy::table2();
        drive_counted(&p, limit, &mut [&mut study]);
        (w.name, study.report())
    })
}

// ---- Fig. 11 / Fig. 12 ------------------------------------------------------

/// Per-workload column of Fig. 11: the ideal IPC plus the cumulative
/// optimization stack.
pub struct Fig11Column {
    /// Benchmark name.
    pub name: &'static str,
    /// IPC of the unpipelined-EX ideal machine.
    pub ideal_ipc: f64,
    /// IPC at cumulative optimization levels 0..=5 (level 0 = simple
    /// pipelining).
    pub level_ipc: [f64; 6],
    /// Way-mispredict rate of the full configuration (§7.1 footnote).
    pub way_mispredict_rate: f64,
    /// Full-config statistics (for ancillary reporting).
    pub full_stats: SimStats,
}

/// The complete Fig. 11 dataset: one column set per slicing factor.
pub struct Fig11Data {
    /// Slice-by-2 columns.
    pub slice2: Vec<Fig11Column>,
    /// Slice-by-4 columns.
    pub slice4: Vec<Fig11Column>,
    /// Jobs that failed. A failed job drops the columns that needed it
    /// (both slicings if the shared ideal run failed); the remaining
    /// columns are intact.
    pub failures: Vec<SweepFailure>,
}

/// Reproduce Fig. 11: IPC stacks for slice-by-2 and slice-by-4 across all
/// workloads and cumulative optimization levels.
///
/// The sweep is flattened to one job per (workload × machine
/// configuration) — 11 × (1 ideal + 2 slicings × 6 levels) = 143
/// simulations — and fanned across `threads` pool workers; results are
/// reassembled in submission order, so the output is identical at any
/// thread count. The simulator is a pure function of (program, config,
/// budget), so the ideal run is shared between the two slicings.
pub fn fig11(limit: u64, threads: usize) -> Fig11Data {
    fig11_journaled(limit, threads, None)
}

/// [`fig11`] behind a sweep journal: each of the 143 (workload ×
/// config) jobs is a journaled row, so `--resume` skips completed rows
/// and re-runs every other row from instruction 0.
pub fn fig11_journaled(limit: u64, threads: usize, journal: Option<&SweepJournal>) -> Fig11Data {
    let workloads = all();
    let programs: Vec<Program> = pool::map_jobs(threads, &workloads, Workload::program);

    let mut jobs: Vec<(&'static str, &Program, &'static str, MachineConfig)> = Vec::new();
    for (w, p) in workloads.iter().zip(&programs) {
        jobs.push((w.name, p, "ideal", MachineConfig::ideal()));
        for by4 in [false, true] {
            for level in 0..=5 {
                let opts = Optimizations::level(level);
                let (label, cfg) = if by4 {
                    (SLICE4_LABELS[level], MachineConfig::slice4(opts))
                } else {
                    (SLICE2_LABELS[level], MachineConfig::slice2(opts))
                };
                jobs.push((w.name, p, label, cfg));
            }
        }
    }
    let stats = pool::try_map_jobs(threads, &jobs, |&(name, p, label, cfg)| {
        poison_check(name);
        let row = format!("fig11/{name}/{label}");
        journaled_sim(journal, &row, p, &cfg, limit)
    });
    let outcomes: Vec<Result<SimStats, SweepFailure>> = stats
        .into_iter()
        .zip(&jobs)
        .map(|(r, &(name, _, label, _))| match r {
            Ok(Ok(s)) => Ok(s),
            Ok(Err(e)) => Err(SweepFailure::from_sim(name, label, &e)),
            Err(f) => Err(SweepFailure::from_panic(name, label, f)),
        })
        .collect();

    let mut results = outcomes.into_iter();
    let mut data = Fig11Data {
        slice2: Vec::new(),
        slice4: Vec::new(),
        failures: Vec::new(),
    };
    for w in &workloads {
        let ideal = results.next().expect("ideal run");
        if let Err(f) = &ideal {
            data.failures.push(f.clone());
        }
        for by4 in [false, true] {
            let mut level_ipc = [0.0; 6];
            let mut full_stats = SimStats::default();
            let mut levels_ok = true;
            for slot in &mut level_ipc {
                match results.next().expect("level run") {
                    Ok(s) => {
                        *slot = s.ipc();
                        full_stats = s;
                    }
                    Err(f) => {
                        data.failures.push(f);
                        levels_ok = false;
                    }
                }
            }
            // A column needs its shared ideal run and all six levels;
            // failures drop the column but leave the rest of the sweep.
            let (Ok(ideal_stats), true) = (&ideal, levels_ok) else {
                continue;
            };
            let col = Fig11Column {
                name: w.name,
                ideal_ipc: ideal_stats.ipc(),
                level_ipc,
                way_mispredict_rate: full_stats.way_mispredict_rate(),
                full_stats,
            };
            if by4 {
                data.slice4.push(col);
            } else {
                data.slice2.push(col);
            }
        }
    }
    data
}

/// Config labels for the Fig. 11 sweep's failure reports, level 0..=5.
const SLICE2_LABELS: [&str; 6] = [
    "slice2-0", "slice2-1", "slice2-2", "slice2-3", "slice2-4", "slice2-5",
];
const SLICE4_LABELS: [&str; 6] = [
    "slice4-0", "slice4-1", "slice4-2", "slice4-3", "slice4-4", "slice4-5",
];

impl Fig11Data {
    /// Geometric-mean IPC ratio of level-5 (all techniques) to ideal, for
    /// the given slicing (the paper's "within 1%" / "18% below" summary).
    pub fn mean_full_vs_ideal(&self, by4: bool) -> f64 {
        let cols = if by4 { &self.slice4 } else { &self.slice2 };
        geomean(cols.iter().map(|c| c.level_ipc[5] / c.ideal_ipc))
    }

    /// Geometric-mean speedup of level-5 over level-0 (simple pipelining)
    /// — the paper's 16% (slice-by-2) / 44% (slice-by-4).
    pub fn mean_speedup(&self, by4: bool) -> f64 {
        let cols = if by4 { &self.slice4 } else { &self.slice2 };
        geomean(cols.iter().map(|c| c.level_ipc[5] / c.level_ipc[0]))
    }

    /// Mean speedup of level-1 only (partial bypassing) over level-0 —
    /// the "existing technique" share of Fig. 12.
    pub fn mean_bypass_speedup(&self, by4: bool) -> f64 {
        let cols = if by4 { &self.slice4 } else { &self.slice2 };
        geomean(cols.iter().map(|c| c.level_ipc[1] / c.level_ipc[0]))
    }
}

fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in vals {
        log_sum += v.ln();
        n += 1;
    }
    (log_sum / n.max(1) as f64).exp()
}

/// Fig. 12 rows derived from Fig. 11 data: the per-technique speedup
/// contribution over simple pipelining, per workload. Entry `[k]` is the
/// incremental contribution of cumulative level `k+1`
/// (`(ipc[k+1] - ipc[k]) / ipc[0]`); summing all five gives the total
/// speedup fraction.
pub fn fig12_from(data: &Fig11Data, by4: bool) -> Vec<(&'static str, [f64; 5], f64)> {
    let cols = if by4 { &data.slice4 } else { &data.slice2 };
    cols.iter()
        .map(|c| {
            let base = c.level_ipc[0];
            let mut contrib = [0.0; 5];
            for (k, slot) in contrib.iter_mut().enumerate() {
                *slot = (c.level_ipc[k + 1] - c.level_ipc[k]) / base;
            }
            let total = c.level_ipc[5] / base - 1.0;
            (c.name, contrib, total)
        })
        .collect()
}

// ---- compare --------------------------------------------------------------

/// Parse a machine-configuration name as accepted by the `compare`
/// binary: `ideal | simple2 | simple4 | slice2 | slice4 | ext2 | ext4 |
/// slice2-N | slice4-N` (cumulative level `N`).
pub fn parse_config(name: &str) -> Option<MachineConfig> {
    if let Some(level) = name.strip_prefix("slice2-") {
        return Some(MachineConfig::slice2(Optimizations::level(
            level.parse().ok()?,
        )));
    }
    if let Some(level) = name.strip_prefix("slice4-") {
        return Some(MachineConfig::slice4(Optimizations::level(
            level.parse().ok()?,
        )));
    }
    Some(match name {
        "ideal" => MachineConfig::ideal(),
        "simple2" => MachineConfig::simple2(),
        "simple4" => MachineConfig::simple4(),
        "slice2" => MachineConfig::slice2_full(),
        "slice4" => MachineConfig::slice4_full(),
        "ext2" => MachineConfig::slice2(Optimizations::extended()),
        "ext4" => MachineConfig::slice4(Optimizations::extended()),
        _ => return None,
    })
}

/// One per-workload outcome from [`compare`]: the A/B stat pair, or the
/// first failure that prevented completing it.
pub type ComparePair = (&'static str, Result<(SimStats, SimStats), SweepFailure>);

/// Run the whole suite under two configurations — one panic-isolated
/// job per (workload × config) across the pool — returning per-workload
/// stat pairs in registry order. A workload whose pair could not be
/// completed yields an `Err` with the first failure of the pair.
pub fn compare(
    a: &MachineConfig,
    b: &MachineConfig,
    limit: u64,
    threads: usize,
) -> Vec<ComparePair> {
    let workloads = all();
    let programs: Vec<Program> = pool::map_jobs(threads, &workloads, Workload::program);
    // Config identity is the fingerprint (the same helper the artifact
    // cache keys on): identical configs under two labels run once per
    // workload and the stat pair is the duplicated result.
    if a.fingerprint() == b.fingerprint() {
        let jobs: Vec<(&'static str, &Program)> = workloads
            .iter()
            .zip(&programs)
            .map(|(w, p)| (w.name, p))
            .collect();
        let stats = pool::try_map_jobs(threads, &jobs, |&(name, p)| {
            poison_check(name);
            try_sim(p, a, limit)
        });
        return stats
            .into_iter()
            .zip(&jobs)
            .map(|(r, &(name, _))| {
                let pair = match r {
                    Ok(Ok(s)) => Ok((s, s)),
                    Ok(Err(e)) => Err(SweepFailure::from_sim(name, "A", &e)),
                    Err(f) => Err(SweepFailure::from_panic(name, "A", f)),
                };
                (name, pair)
            })
            .collect();
    }
    let jobs: Vec<(&'static str, &Program, &'static str, MachineConfig)> = workloads
        .iter()
        .zip(&programs)
        .flat_map(|(w, p)| [(w.name, p, "A", *a), (w.name, p, "B", *b)])
        .collect();
    let stats = pool::try_map_jobs(threads, &jobs, |&(name, p, _, cfg)| {
        poison_check(name);
        try_sim(p, &cfg, limit)
    });
    let mut results = stats
        .into_iter()
        .zip(&jobs)
        .map(|(r, &(name, _, label, _))| match r {
            Ok(Ok(s)) => Ok(s),
            Ok(Err(e)) => Err(SweepFailure::from_sim(name, label, &e)),
            Err(f) => Err(SweepFailure::from_panic(name, label, f)),
        });
    workloads
        .iter()
        .map(|w| {
            let sa = results.next().expect("config A run");
            let sb = results.next().expect("config B run");
            let pair = match (sa, sb) {
                (Ok(sa), Ok(sb)) => Ok((sa, sb)),
                (Err(f), _) | (_, Err(f)) => Err(f),
            };
            (w.name, pair)
        })
        .collect()
}

// ---- RV32 sweep ------------------------------------------------------------

/// One (workload × config) result of the RV32 sweep.
#[derive(Clone, Copy, Debug)]
pub struct Rv32Row {
    /// RV32 workload name (`rv_*`).
    pub workload: &'static str,
    /// Machine-configuration label.
    pub config: &'static str,
    /// Instructions committed within the budget.
    pub committed: u64,
    /// Cycles the run took.
    pub cycles: u64,
    /// Committed instructions per cycle.
    pub ipc: f64,
}

/// The configuration ladder of the RV32 sweep: the two simple machines,
/// both slicing factors fully optimized, and the extended 4-bit config —
/// the same ladder the PISA suite headline numbers use.
pub fn rv32_configs() -> Vec<(&'static str, MachineConfig)> {
    let mut v = vec![
        ("ideal", MachineConfig::ideal()),
        ("simple2", MachineConfig::simple2()),
        ("simple4", MachineConfig::simple4()),
        ("slice2-5", MachineConfig::slice2_full()),
        ("slice4-5", MachineConfig::slice4_full()),
        ("ext4", MachineConfig::slice4(Optimizations::extended())),
    ];
    for (_, cfg) in &mut v {
        cfg.isa = popk_core::IsaKind::Rv32;
    }
    v
}

/// Run every RV32 workload through [`rv32_configs`] on the ISA-neutral
/// frontend boundary — one panic-isolated job per (workload × config),
/// results in (workload-major, config-minor) submission order. With
/// `oracle`, every run locksteps the RV32 functional machine against
/// the commit stream and a divergence becomes that row's failure.
pub fn rv32_sweep(limit: u64, threads: usize, oracle: bool) -> Vec<Result<Rv32Row, SweepFailure>> {
    let workloads = popk_rv32::workloads::all();
    let programs: Vec<popk_rv32::Rv32Program> =
        pool::map_jobs(threads, &workloads, |w| w.program());
    let cfgs = rv32_configs();
    let jobs: Vec<(
        &'static str,
        &popk_rv32::Rv32Program,
        &'static str,
        MachineConfig,
    )> = workloads
        .iter()
        .zip(&programs)
        .flat_map(|(w, p)| {
            cfgs.iter()
                .map(move |&(label, cfg)| (w.name, p, label, cfg))
        })
        .collect();
    let stats = pool::try_map_jobs(threads, &jobs, |&(name, p, _, mut cfg)| {
        poison_check(name);
        cfg.oracle = oracle;
        let s = popk_core::try_simulate_frontend(&cfg, popk_rv32::Rv32Frontend::new(p, limit))?;
        meter_record(s.committed);
        Ok::<SimStats, SimError>(s)
    });
    stats
        .into_iter()
        .zip(&jobs)
        .map(|(r, &(workload, _, config, _))| match r {
            Ok(Ok(s)) => Ok(Rv32Row {
                workload,
                config,
                committed: s.committed,
                cycles: s.cycles,
                ipc: s.ipc(),
            }),
            Ok(Err(e)) => Err(SweepFailure::from_sim(workload, config, &e)),
            Err(f) => Err(SweepFailure::from_panic(workload, config, f)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: u64 = 12_000;

    #[test]
    fn table1_rows_complete() {
        let rows = table1(QUICK, 2, false);
        assert_eq!(rows.len(), 11);
        for r in &rows {
            let r = r.as_ref().expect("healthy sweep has no failures");
            assert!(r.ipc > 0.05 && r.ipc < 4.0, "{}: ipc {}", r.name, r.ipc);
            assert!(r.pct_loads > 0.0 && r.pct_loads < 0.6);
            assert!(r.branch_accuracy > 0.5 && r.branch_accuracy <= 1.0);
        }
    }

    #[test]
    fn table1_oracle_lockstep_is_clean() {
        // Commit-time oracle lockstep across a quick run of every
        // workload: zero divergences expected.
        for r in table1(QUICK, 2, true) {
            let r = r.expect("oracle lockstep diverged");
            assert!(r.instructions > 0);
        }
    }

    #[test]
    fn fig2_reports() {
        let reports = fig2(&["bzip"], QUICK);
        assert_eq!(reports.len(), 1);
        let (_, r) = &reports[0];
        assert!(r.loads > 100);
        // Full-width comparison resolves everything.
        assert!((r.resolved_after_bits(30) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fig4_reports() {
        let reports = fig4("twolf", false, QUICK);
        assert_eq!(reports.len(), 3);
        for (r, ways) in reports.iter().zip([2u32, 4, 8]) {
            assert_eq!(r.config.ways, ways);
            assert!(r.accesses > 100);
        }
    }

    #[test]
    fn fig6_reports() {
        let reports = fig6(QUICK);
        assert_eq!(reports.len(), 11);
        let total_br: u64 = reports.iter().map(|(_, r)| r.branches).sum();
        assert!(total_br > 1000);
    }

    #[test]
    fn fig12_contributions_sum_to_total() {
        // Synthesize a Fig11Data rather than simulating: the identity is
        // algebraic.
        let col = Fig11Column {
            name: "x",
            ideal_ipc: 2.0,
            level_ipc: [1.0, 1.2, 1.25, 1.4, 1.5, 1.6],
            way_mispredict_rate: 0.0,
            full_stats: SimStats::default(),
        };
        let data = Fig11Data {
            slice2: vec![col],
            slice4: vec![],
            failures: vec![],
        };
        let rows = fig12_from(&data, false);
        let (_, contrib, total) = &rows[0];
        let sum: f64 = contrib.iter().sum();
        assert!((sum - total).abs() < 1e-12);
        assert!((total - 0.6).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0].into_iter()) - 4.0).abs() < 1e-12);
        assert!((geomean([3.0].into_iter()) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn parse_config_names() {
        assert!(parse_config("ideal").is_some());
        assert!(parse_config("slice2-3").is_some());
        assert!(parse_config("ext4").is_some());
        assert!(parse_config("slice2-x").is_none());
        assert!(parse_config("bogus").is_none());
    }

    #[test]
    fn compare_dedups_identical_configs() {
        // Same fingerprint under two labels takes the single-run path:
        // each pair is the one result duplicated.
        let cfg = MachineConfig::ideal();
        let pairs = compare(&cfg, &cfg, QUICK, 2);
        assert_eq!(pairs.len(), 11);
        for (_, pair) in &pairs {
            let (a, b) = pair.as_ref().expect("healthy sweep");
            assert_eq!(a, b);
        }
    }

    #[test]
    fn meter_counts_runner_work() {
        let (jobs0, instrs0) = meter_snapshot();
        let rows = table1(QUICK, 1, false);
        let (jobs1, instrs1) = meter_snapshot();
        // Other tests in this process also advance the meter, so only
        // lower-bound the deltas.
        assert!(jobs1 - jobs0 >= rows.len() as u64);
        let committed: u64 = rows
            .iter()
            .map(|r| r.as_ref().expect("healthy sweep").instructions)
            .sum();
        assert!(instrs1 - instrs0 >= committed);
    }
}
