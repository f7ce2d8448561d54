//! Machine-readable bench artifacts (`BENCH_<figure>.json`).
//!
//! Every report binary accepts a `--json` flag alongside the usual
//! instruction budget; when set, the binary also writes a
//! `BENCH_<figure>.json` artifact carrying the same numbers the printed
//! tables show — per-workload IPC, speedups, and full counter snapshots —
//! so runs can be diffed across commits by tooling instead of eyeballs.
//! The schema is documented in `EXPERIMENTS.md`; bump [`SCHEMA_VERSION`]
//! on any incompatible shape change.

use popk_core::{Json, SimStats, StatsRegistry};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Version stamp written into every artifact (`"schema_version"`).
pub const SCHEMA_VERSION: u64 = 1;

/// Parsed command line shared by the report binaries: an optional
/// instruction budget (any bare integer argument, `_` separators allowed),
/// the `--json` artifact toggle, a `--threads N` worker-count override
/// for the sweep executor, the `--oracle` lockstep toggle, and the
/// `--resume` crash-recovery toggle — accepted in any order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cli {
    /// Dynamic-instruction budget per simulation.
    pub limit: u64,
    /// Write a `BENCH_<figure>.json` artifact next to the printed report.
    pub json: bool,
    /// Sweep worker threads (default: all available cores; `--threads 1`
    /// reproduces fully serial execution).
    pub threads: usize,
    /// Run the functional machine in commit-time lockstep with every
    /// simulation, reporting any divergence as a sweep failure
    /// (binaries honouring this flag exit nonzero on divergence).
    pub oracle: bool,
    /// Resume an interrupted sweep from its journal (`.popk/`): completed
    /// rows are replayed from the journal, every other row (the
    /// interrupted one included) re-runs from instruction 0. Without the
    /// flag any stale journal for the sweep is discarded and the run
    /// starts clean.
    pub resume: bool,
}

impl Cli {
    /// Parse the process arguments.
    pub fn parse() -> Cli {
        Cli::parse_from(std::env::args().skip(1))
    }

    /// Parse an explicit argument list (for tests).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Cli {
        let mut cli = Cli {
            limit: crate::DEFAULT_LIMIT,
            json: false,
            threads: crate::pool::default_threads(),
            oracle: false,
            resume: false,
        };
        let parse_count = |a: &str| a.replace('_', "").parse::<u64>().ok();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if a == "--json" {
                cli.json = true;
            } else if a == "--oracle" {
                cli.oracle = true;
            } else if a == "--resume" {
                cli.resume = true;
            } else if a == "--threads" {
                // Consume the value token so it is not taken as a limit.
                if let Some(n) = args.next().as_deref().and_then(parse_count) {
                    cli.threads = (n as usize).max(1);
                }
            } else if let Some(v) = a.strip_prefix("--threads=") {
                if let Some(n) = parse_count(v) {
                    cli.threads = (n as usize).max(1);
                }
            } else if let Some(n) = parse_count(&a) {
                cli.limit = n;
            }
        }
        cli
    }
}

/// Wall-clock + throughput meter for one sweep, emitted as the `host`
/// block of the JSON artifact (and as a human summary line).
///
/// Construct it just before the sweep starts; it snapshots the runner
/// crate's global simulation counters so only work done during *this*
/// sweep is attributed to it.
#[derive(Debug)]
pub struct HostMeter {
    start: Instant,
    threads: usize,
    jobs0: u64,
    instructions0: u64,
}

impl HostMeter {
    /// Start metering a sweep that will run on `threads` workers.
    pub fn start(threads: usize) -> HostMeter {
        let (jobs0, instructions0) = crate::runners::meter_snapshot();
        HostMeter {
            start: Instant::now(),
            threads,
            jobs0,
            instructions0,
        }
    }

    /// Jobs run, instructions simulated, and seconds elapsed so far.
    fn sample(&self) -> (u64, u64, f64) {
        let (jobs, instructions) = crate::runners::meter_snapshot();
        (
            jobs - self.jobs0,
            instructions - self.instructions0,
            self.start.elapsed().as_secs_f64(),
        )
    }

    /// The `host` block: worker/core counts plus the sweep's wall-clock
    /// seconds, simulated instructions, and Minsts/s. Volatile by nature
    /// — artifact diffing strips this block (`Json::remove("host")`).
    pub fn host_json(&self) -> Json {
        let (jobs, instructions, wall) = self.sample();
        let mut o = Json::object();
        o.set("threads", Json::from(self.threads));
        o.set(
            "available_parallelism",
            Json::from(crate::pool::default_threads()),
        );
        o.set("jobs", Json::from(jobs));
        o.set("wall_seconds", Json::from(wall));
        o.set("simulated_instructions", Json::from(instructions));
        o.set(
            "minsts_per_sec",
            Json::from(instructions as f64 / wall.max(1e-9) / 1e6),
        );
        o
    }

    /// One human-readable line for the end of the printed report.
    pub fn summary(&self) -> String {
        let (jobs, instructions, wall) = self.sample();
        format!(
            "sweep: {jobs} jobs, {instructions} simulated instructions in {wall:.2}s \
             ({:.2} Minsts/s, {} threads)",
            instructions as f64 / wall.max(1e-9) / 1e6,
            self.threads,
        )
    }
}

/// One figure's JSON artifact under construction.
///
/// A thin wrapper over a [`Json`] object pre-seeded with the envelope
/// fields (`figure`, `schema_version`, `instruction_limit`); the caller
/// [`set`](Artifact::set)s figure-specific keys and [`write_in`](Artifact::write_in)s
/// the result to `BENCH_<figure>.json`.
#[derive(Debug)]
pub struct Artifact {
    figure: String,
    root: Json,
}

impl Artifact {
    /// Start an artifact for `figure` (e.g. `"fig11"`), recording the
    /// instruction budget it was produced with.
    pub fn new(figure: &str, limit: u64) -> Artifact {
        let mut root = Json::object();
        root.set("figure", figure.into());
        root.set("schema_version", Json::from(SCHEMA_VERSION));
        root.set("instruction_limit", Json::from(limit));
        Artifact {
            figure: figure.to_string(),
            root,
        }
    }

    /// Insert (or replace) a top-level key.
    pub fn set(&mut self, key: &str, value: Json) -> &mut Artifact {
        self.root.set(key, value);
        self
    }

    /// The artifact body.
    pub fn json(&self) -> &Json {
        &self.root
    }

    /// The file name this artifact writes to.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.figure)
    }

    /// Write the artifact (pretty-printed, trailing newline) into `dir`,
    /// returning the path written.
    pub fn write_in(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        let mut text = self.root.to_pretty(2);
        text.push('\n');
        std::fs::write(&path, text)?;
        Ok(path)
    }

    /// Write into the current directory and print a confirmation line —
    /// the tail call of every binary's `--json` mode.
    pub fn emit(&self) {
        match self.write_in(Path::new(".")) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("error: writing {}: {e}", self.file_name()),
        }
    }
}

/// Snapshot every counter of one run as a flat JSON object keyed by the
/// canonical registry names.
pub fn counters_json(s: &SimStats) -> Json {
    StatsRegistry::from_sim(s).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        Cli::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_defaults() {
        let c = cli(&[]);
        assert_eq!(c.limit, crate::DEFAULT_LIMIT);
        assert!(!c.json);
        assert!(!c.oracle);
        assert!(!c.resume);
        assert_eq!(c.threads, crate::pool::default_threads());
    }

    #[test]
    fn cli_resume_flag() {
        let c = cli(&["--resume", "25000", "--json"]);
        assert!(c.resume);
        assert!(c.json);
        assert_eq!(c.limit, 25_000);
    }

    #[test]
    fn cli_oracle_flag() {
        let c = cli(&["--oracle", "30000"]);
        assert!(c.oracle);
        assert_eq!(c.limit, 30_000);
    }

    #[test]
    fn cli_orders_and_separators() {
        assert_eq!(cli(&["40000", "--json"]), cli(&["--json", "40_000"]));
        let c = cli(&["--json", "1_000_000"]);
        assert_eq!(c.limit, 1_000_000);
        assert!(c.json);
    }

    #[test]
    fn cli_threads_value_is_not_a_limit() {
        // The value token after --threads must not be parsed as a budget.
        let c = cli(&["--threads", "4", "20000"]);
        assert_eq!(c.threads, 4);
        assert_eq!(c.limit, 20_000);
        let c = cli(&["20000", "--threads=2"]);
        assert_eq!(c.threads, 2);
        assert_eq!(c.limit, 20_000);
        // Zero clamps to one worker.
        assert_eq!(cli(&["--threads", "0"]).threads, 1);
    }

    #[test]
    fn cli_ignores_unknown_words() {
        let c = cli(&["bogus"]);
        assert_eq!(c.limit, crate::DEFAULT_LIMIT);
        assert!(!c.json);
    }

    #[test]
    fn artifact_envelope_and_write() {
        let mut a = Artifact::new("figtest", 40_000);
        a.set("answer", Json::from(42u64));
        assert_eq!(a.json().get("figure"), Some(&Json::from("figtest")));
        assert_eq!(a.json().get("instruction_limit"), Some(&Json::Int(40_000)));
        let dir = std::env::temp_dir();
        let path = a.write_in(&dir).expect("artifact written");
        assert_eq!(path, dir.join("BENCH_figtest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\n"));
        assert!(text.ends_with("}\n"));
        assert!(text.contains("\"schema_version\": 1"));
        assert!(text.contains("\"answer\": 42"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn counters_snapshot_is_flat() {
        let s = SimStats {
            cycles: 7,
            ..Default::default()
        };
        let j = counters_json(&s);
        assert_eq!(j.get("cycles"), Some(&Json::Int(7)));
        assert_eq!(j.get("lsq_full_stalls"), Some(&Json::Int(0)));
    }
}
