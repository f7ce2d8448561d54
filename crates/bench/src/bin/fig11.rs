//! Reproduce **Figure 11**: IPC of the bit-sliced microarchitecture vs.
//! the ideal (unpipelined EX) machine and simple pipelining, for
//! slice-by-2 and slice-by-4, with the five techniques applied
//! cumulatively. Also prints the Fig. 10 pipeline configurations and the
//! §7.1 way-mispredict statistic.
//!
//! Usage: `cargo run --release -p popk-bench --bin fig11
//! [instr_budget] [--json] [--threads N] [--resume]`
//!
//! The sweep is journaled under `.popk/`: with `--resume` a run killed
//! mid-sweep replays its completed rows from the journal and re-runs
//! every other row, the interrupted one included, from instruction 0.

use popk_bench::{fig11_report_journaled, Cli, HostMeter, SweepJournal};
use std::path::Path;

fn main() {
    let cli = Cli::parse();
    let journal = SweepJournal::open(Path::new(".popk"), "fig11", cli.limit, "", cli.resume);
    let meter = HostMeter::start(cli.threads);
    let mut rep = fig11_report_journaled(cli.limit, cli.threads, Some(&journal));
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
