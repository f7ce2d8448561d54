//! Untraced passes: one pass runs a workload once through the entry
//! point its users call and reports set-up time, wall time, work done
//! and the checks of its outputs. `run.py` repeats passes, one process
//! each, for the run's measuring time.

use crate::util::{artifact_text, digest, floats, millis, secs, Checks};
use popk_bench::journal::verify_line;
use popk_bench::runners::meter_snapshot;
use popk_bench::SweepJournal;
use popk_bench::{fig11_report_journaled, fig2, fig4, fig6, rv32_report, Report};
use popk_core::{Json, SimStats};
use popk_workloads::Workload;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Instruction budget of each `fig11_sweep` row: the `fig11` binary's
/// default and the committed `BENCH_fig11.json` budget, so its body is
/// the reference. Each row takes four checkpoints whatever its budget,
/// so a smaller budget would inflate the journal's share of the sweep.
pub const FIG11_LIMIT: u64 = 200_000;
/// Instruction budget of each `rv32_sweep` row: the committed
/// `BENCH_rv32.json` budget, so its body is the reference.
pub const RV32_LIMIT: u64 = 200_000;
/// Instruction budget of each characterization study: the figure
/// binaries' default.
pub const CHAR_LIMIT: u64 = 200_000;
/// Set-ups timed per pass; `run.py` reports the median of all of them.
/// Each is a whole set-up as a fresh run makes it, in a directory of its
/// own. Programs are built on the calling thread, so thread start-up
/// jitter stays out of the set-up time.
pub const SETUP_REPEATS: usize = 25;

/// Fig. 11 sweep rows: 11 workloads × (ideal + 2 slicings × 6 levels).
pub const FIG11_ROWS: u64 = 143;

/// What one pass measured and checked.
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub wall_s: f64,
    /// Operations completed: rows, submits or studies.
    pub ops: u64,
    /// Time a caller waited for each answer, in ms.
    pub waits_ms: Vec<f64>,
    /// Dynamic instructions simulated or traced.
    pub instructions: u64,
    /// Digests of the outputs, compared against `refs.json` by `run.py`.
    pub digests: Vec<String>,
    pub checks: Checks,
    /// Workload-specific detail (the serve mix's per-class latencies).
    pub extra: Json,
}

impl Pass {
    pub fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.set("setup_s", floats(&self.setup_s));
        j.set("wall_s", Json::from(self.wall_s));
        j.set("ops", Json::from(self.ops));
        j.set("waits_ms", floats(&self.waits_ms));
        j.set("instructions", Json::from(self.instructions));
        j.set("digests", self.digests.iter().map(String::as_str).collect());
        self.checks.write(&mut j);
        j.set("extra", self.extra.clone());
        j
    }
}

/// Time `SETUP_REPEATS` set-ups, keeping the last one's product. The
/// set-up is passed its repeat's index.
fn timed_setups<T>(mut setup: impl FnMut(usize) -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let v = setup(i);
        times.push(secs(t.elapsed()));
        last = Some(black_box(v));
    }
    (times, last.expect("SETUP_REPEATS is positive"))
}

/// Count a report's sweep failures against the rows it attempted.
fn report_checks(checks: &mut Checks, rep: &Report) {
    if let Some(Json::Array(fs)) = rep.artifact.json().get("failures") {
        for f in fs {
            checks.fail(format!("sweep failure: {f}"));
        }
    } else if rep.failures > 0 {
        checks.fail(format!("{} sweep job(s) failed", rep.failures));
    }
}

/// The `done` rows of a sweep journal, with their recorded counters.
pub fn journal_rows(path: &Path) -> Vec<(String, SimStats)> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(verify_line)
        .filter(|j| j.get("op").and_then(Json::as_str) == Some("done"))
        .filter_map(|j| {
            let row = j.get("row")?.as_str()?.to_string();
            Some((row, SimStats::from_json(j.get("payload")?)?))
        })
        .collect()
}

/// One Fig. 11 sweep through the journaled report path the `fig11`
/// binary runs, journaling into a fresh directory under `dir` (never
/// resumed).
pub fn fig11(threads: usize, dir: &Path) -> Pass {
    let workloads = popk_workloads::all();
    let jdirs: Vec<_> = (0..SETUP_REPEATS)
        .map(|i| dir.join(format!("journal-{i}")))
        .collect();
    for d in &jdirs {
        let _ = std::fs::remove_dir_all(d);
    }
    let (setup_s, (journal, _programs)) = timed_setups(|i| {
        let journal = SweepJournal::open(&jdirs[i], "fig11", FIG11_LIMIT, "", false);
        let programs: Vec<_> = workloads.iter().map(Workload::program).collect();
        (journal, programs)
    });
    let (_, insts0) = meter_snapshot();
    let t = Instant::now();
    let rep = fig11_report_journaled(FIG11_LIMIT, threads, Some(&journal));
    let wall = t.elapsed();
    let (_, insts1) = meter_snapshot();

    let mut checks = Checks {
        attempted: FIG11_ROWS,
        ..Checks::default()
    };
    report_checks(&mut checks, &rep);
    let rows = journal_rows(&jdirs[SETUP_REPEATS - 1].join("fig11.journal"));
    if rows.len() as u64 != FIG11_ROWS {
        checks.fail(format!(
            "journal holds {} done rows, expected {FIG11_ROWS}",
            rows.len()
        ));
    }
    for (row, stats) in &rows {
        if stats.committed != FIG11_LIMIT {
            checks.fail(format!(
                "row {row} committed {} of {FIG11_LIMIT}",
                stats.committed
            ));
        }
    }
    journal.finish();
    Pass {
        setup_s,
        wall_s: secs(wall),
        ops: FIG11_ROWS,
        waits_ms: vec![millis(wall)],
        instructions: insts1 - insts0,
        digests: vec![digest(&artifact_text(rep.artifact.json()))],
        checks,
        extra: Json::Null,
    }
}

/// One RV32 sweep through the unjournaled report path the `rv32`
/// binary runs.
pub fn rv32(threads: usize) -> Pass {
    let workloads = popk_rv32::workloads::all();
    let (setup_s, _programs) =
        timed_setups(|_| workloads.iter().map(|w| w.program()).collect::<Vec<_>>());
    let (_, insts0) = meter_snapshot();
    let t = Instant::now();
    let rep = rv32_report(RV32_LIMIT, threads);
    let wall = t.elapsed();
    let (_, insts1) = meter_snapshot();

    let expected_rows = (workloads.len() * popk_bench::rv32_configs().len()) as u64;
    let mut checks = Checks {
        attempted: expected_rows,
        ..Checks::default()
    };
    report_checks(&mut checks, &rep);
    let mut rows = 0u64;
    for w in rep
        .artifact
        .json()
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        for c in w.get("configs").and_then(Json::as_array).unwrap_or(&[]) {
            rows += 1;
            let committed = c.get("committed").and_then(Json::as_u64).unwrap_or(0);
            if committed != RV32_LIMIT {
                checks.fail(format!(
                    "row {}/{} committed {committed} of {RV32_LIMIT}",
                    w.get("name").and_then(Json::as_str).unwrap_or("?"),
                    c.get("config").and_then(Json::as_str).unwrap_or("?"),
                ));
            }
        }
    }
    if rows != expected_rows {
        checks.fail(format!(
            "artifact holds {rows} rows, expected {expected_rows}"
        ));
    }
    Pass {
        setup_s,
        wall_s: secs(wall),
        ops: expected_rows,
        waits_ms: vec![millis(wall)],
        instructions: insts1 - insts0,
        digests: vec![digest(&artifact_text(rep.artifact.json()))],
        checks,
        extra: Json::Null,
    }
}

/// Studies each characterization call runs: Fig. 2 on bzip and gcc,
/// Fig. 4 at three associativities on mcf and on twolf, Fig. 6 on all
/// eleven workloads.
pub const CHAR_STUDIES: [u64; 4] = [2, 3, 3, 11];

/// One pass of the Fig. 2/4/6 characterization runners, called as the
/// `fig2`, `fig4` and `fig6` binaries call them.
pub fn char_studies() -> Pass {
    let workloads = popk_workloads::all();
    let (setup_s, _programs) =
        timed_setups(|_| workloads.iter().map(Workload::program).collect::<Vec<_>>());
    let (_, insts0) = meter_snapshot();
    let t = Instant::now();
    let rendered = [
        format!("{:?}", fig2(&["bzip", "gcc"], CHAR_LIMIT)),
        format!("{:?}", fig4("mcf", true, CHAR_LIMIT)),
        format!("{:?}", fig4("twolf", false, CHAR_LIMIT)),
        format!("{:?}", fig6(CHAR_LIMIT)),
    ];
    let wall = t.elapsed();
    let digests = rendered.iter().map(|r| digest(r)).collect();
    let (_, insts1) = meter_snapshot();
    let studies: u64 = CHAR_STUDIES.iter().sum();
    let mut checks = Checks {
        attempted: studies,
        ..Checks::default()
    };
    let expected_insns = studies * CHAR_LIMIT;
    if insts1 - insts0 != expected_insns {
        checks.fail(format!(
            "studies traced {} instructions, expected {expected_insns}",
            insts1 - insts0
        ));
    }
    Pass {
        setup_s,
        wall_s: secs(wall),
        ops: studies,
        waits_ms: vec![millis(wall)],
        instructions: insts1 - insts0,
        digests,
        checks,
        extra: Json::Null,
    }
}
