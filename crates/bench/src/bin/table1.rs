//! Reproduce **Table 1**: baseline characteristics of the benchmark
//! suite on the ideal (unpipelined-EX) Table 2 machine.
//!
//! Usage: `cargo run --release -p popk-bench --bin table1
//! [instr_budget] [--json] [--threads N] [--oracle] [--resume]`
//!
//! With `--oracle`, every simulation runs the functional machine in
//! commit-time lockstep with the timing pipeline and any divergence is
//! reported as a row failure; the process exits nonzero if any remain.
//!
//! The sweep is journaled under `.popk/`: with `--resume` a run killed
//! mid-sweep replays its completed rows from the journal and re-runs
//! every other row, the interrupted one included, from instruction 0.

use popk_bench::{table1_report_journaled, Cli, HostMeter, SweepJournal};
use std::path::Path;

fn main() {
    let cli = Cli::parse();
    let journal = SweepJournal::open(
        Path::new(".popk"),
        "table1",
        cli.limit,
        &format!("oracle={}", cli.oracle),
        cli.resume,
    );
    let meter = HostMeter::start(cli.threads);
    let mut rep = table1_report_journaled(cli.limit, cli.threads, cli.oracle, Some(&journal));
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
