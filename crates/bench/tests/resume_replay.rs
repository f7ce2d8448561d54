//! Torn-journal resume through the report builders: a journaled sweep
//! whose journal was cut mid-append replays every sealed `done` row,
//! re-runs the rest, and prints a report and artifact byte-identical to
//! the uninterrupted run's.
//!
//! This file holds one test on purpose. The sweep meter
//! ([`meter_snapshot`]) is process-wide; with nothing else running in
//! the process it counts exactly the rows each run simulated.

use popk_bench::journal::verify_line;
use popk_bench::runners::meter_snapshot;
use popk_bench::{ablations_report_journaled, fig12_report_journaled, Report, SweepJournal};
use popk_core::Json;
use std::path::Path;

const BUDGET: u64 = 20_000;
const THREADS: usize = 2;

/// The `op` of every line of the journal at `path`; each line must
/// verify.
fn journal_ops(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .expect("journal readable")
        .lines()
        .map(|l| {
            let line = verify_line(l).expect("every journal line is sealed");
            line.get("op")
                .and_then(Json::as_str)
                .expect("line has an op")
                .to_string()
        })
        .collect()
}

/// Assert the journal at `path` is its `open` header plus `rows` `done`
/// lines.
fn assert_open_then_done(path: &Path, rows: usize) {
    let ops = journal_ops(path);
    assert_eq!(ops.len(), 1 + rows, "header plus one line per row");
    assert_eq!(ops[0], "open");
    assert!(ops[1..].iter().all(|op| op == "done"), "{ops:?}");
}

/// Cut the journal at `path` to its header, `keep` row lines and the
/// first half of the next: a crash in the middle of an append.
fn tear(path: &Path, keep: usize) {
    let text = std::fs::read(path).expect("journal readable");
    let mut ends = text
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1);
    let cut = ends.nth(keep).expect("journal has the kept lines");
    let next = ends.next().expect("journal has a line after the kept ones");
    std::fs::write(path, &text[..cut + (next - cut) / 2]).expect("torn journal written");
}

/// Run `sweep` journaled in `dir` without finishing, tear its journal
/// after `keep` of its `rows` rows, resume, and check the resumed run:
/// same text and artifact, exactly `rerun` simulations, and a journal
/// of `open` and `done` lines only.
fn check_torn_resume(
    dir: &Path,
    figure: &str,
    rows: usize,
    keep: usize,
    rerun: u64,
    sweep: impl Fn(&SweepJournal) -> Report,
) {
    let path = dir.join(format!("{figure}.journal"));
    let clean = sweep(&SweepJournal::open(dir, figure, BUDGET, "", false));
    assert_eq!(clean.failures, 0);
    assert_open_then_done(&path, rows);

    tear(&path, keep);
    let (before, _) = meter_snapshot();
    let resumed = sweep(&SweepJournal::open(dir, figure, BUDGET, "", true));
    let (after, _) = meter_snapshot();

    assert_eq!(
        after - before,
        rerun,
        "{figure}: simulations in the resumed run"
    );
    assert!(
        resumed.text == clean.text,
        "{figure}: resumed report text differs"
    );
    assert!(
        resumed.artifact.json().to_pretty(2) == clean.artifact.json().to_pretty(2),
        "{figure}: resumed artifact differs"
    );
    assert_open_then_done(&path, rows);
}

#[test]
fn torn_journal_resume_replays_done_rows_and_reruns_the_rest() {
    let dir = std::env::temp_dir().join(format!("popk-resume-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Fig. 12 derives from the 143-row Fig. 11 sweep. Torn after 70 rows
    // (the 71st line half-written), the resume re-runs the other 73.
    let (before, _) = meter_snapshot();
    check_torn_resume(&dir, "fig12", 143, 70, 73, |j| {
        fig12_report_journaled(BUDGET, THREADS, Some(j))
    });
    let (after, _) = meter_snapshot();
    assert_eq!(after - before, 143 + 73, "clean run plus resumed run");

    // The ablations journal one row per section A–H. Torn after D, the
    // resume re-runs sections E–H, whose jobs are E: 5 workloads × 3
    // configs, F: 4 workloads × 2 fetch models, G and H: 11 workloads.
    check_torn_resume(&dir, "ablations", 8, 4, 15 + 8 + 11 + 11, |j| {
        ablations_report_journaled(BUDGET, THREADS, Some(j))
    });

    let _ = std::fs::remove_dir_all(&dir);
}
