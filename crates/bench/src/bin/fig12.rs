//! Reproduce **Figure 12**: speedup of bit-slice pipelining over simple
//! pipelining, broken down by technique (cumulative contributions), for
//! slice-by-2 and slice-by-4.
//!
//! Usage: `cargo run --release -p popk-bench --bin fig12
//! [instr_budget] [--json] [--threads N] [--resume]`
//!
//! The sweep is journaled under `.popk/`: with `--resume` a run killed
//! mid-sweep replays its completed rows from the journal and re-runs
//! every other row, the interrupted one included, from instruction 0.
//! Fig. 12 shares Fig. 11's simulation grid but journals under its own
//! name, so the two sweeps never clobber each other's recovery state.

use popk_bench::{fig12_report_journaled, Cli, HostMeter, SweepJournal};
use std::path::Path;

fn main() {
    let cli = Cli::parse();
    let journal = SweepJournal::open(Path::new(".popk"), "fig12", cli.limit, "", cli.resume);
    let meter = HostMeter::start(cli.threads);
    let mut rep = fig12_report_journaled(cli.limit, cli.threads, Some(&journal));
    print!("{}", rep.text);
    println!("{}", meter.summary());
    if cli.json {
        rep.artifact.set("host", meter.host_json());
        rep.artifact.emit();
    }
    if rep.failures > 0 {
        std::process::exit(1);
    }
    journal.finish();
}
