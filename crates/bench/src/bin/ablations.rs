//! Ablation sweeps beyond the paper's figures, exercising the design
//! choices DESIGN.md calls out:
//!
//! * A: gshare size sweep (how Fig. 6's detection CDF and accuracy move),
//! * B: LSQ size sweep for the Fig. 2 disambiguation categories,
//! * C: direction-predictor organization (gshare/bimodal/local/tournament),
//! * D: each technique alone over bypassing, isolating per-technique effects,
//! * E: the paper-sketched extensions (§5.1/§6/§5.2-refs),
//! * F: wrong-path fetch modeling (phantoms vs. stall),
//! * G: result significant-width distribution (the §6 premise),
//! * H: producer→consumer dependence distances (the §2 motivation).
//!
//! Usage: `cargo run --release -p popk-bench --bin ablations
//! [instr_budget] [--json] [--threads N] [--resume]`
//!
//! The sweep is journaled under `.popk/` at section granularity: with
//! `--resume` a run killed mid-sweep replays its finished sections from
//! the journal and re-runs the others from scratch.

use popk_bench::{ablations_report_journaled, Cli, HostMeter, SweepJournal};
use std::path::Path;

fn main() {
    let cli = Cli::parse();
    let journal = SweepJournal::open(Path::new(".popk"), "ablations", cli.limit, "", cli.resume);
    let meter = HostMeter::start(cli.threads);
    let mut rep = ablations_report_journaled(cli.limit, cli.threads, Some(&journal));
    print!("{}", rep.text);
    println!("{}", meter.summary());
    if cli.json {
        rep.artifact.set("host", meter.host_json());
        rep.artifact.emit();
    }
    journal.finish();
}
