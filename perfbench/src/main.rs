//! `popk-perfbench`: the measuring half of the repository benchmark.
//!
//! `run.py` builds this binary, generates the inputs from the seed and
//! calls it; every command prints one JSON object on stdout.
//!
//! ```text
//! popk-perfbench pass  --workload W --threads N --dir D [--plan P]
//! popk-perfbench trace --workload W --threads N --dir D --plan P --spans F
//! popk-perfbench verify-serve --plan P --threads N
//! popk-perfbench refs --threads N --dir D
//! ```
//!
//! `pass` runs one untraced pass of a workload; `trace` runs the traced
//! layer-by-layer decomposition; `verify-serve` computes the artifact
//! each serve key must return from a direct simulation; `refs` prints
//! the output digests `refs.json` pins.

mod counting;
mod layers;
mod passes;
mod serve_mix;
mod spans;
mod util;

use popk_core::Json;
use std::path::PathBuf;

/// The four workloads, by the names `BENCHMARK.json` gives them.
pub const WORKLOADS: [&str; 4] = ["fig11_sweep", "rv32_sweep", "serve_mix", "char_studies"];

struct Args {
    cmd: String,
    workload: String,
    threads: usize,
    dir: PathBuf,
    plan: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command")?;
    let mut args = Args {
        cmd,
        workload: String::new(),
        threads: popk_bench::pool::default_threads(),
        dir: PathBuf::from(".bench_out/work"),
        plan: None,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--threads" => {
                args.threads = value
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?
                    .max(1)
            }
            "--dir" => args.dir = value.into(),
            "--plan" => args.plan = Some(value.into()),
            "--spans" => args.spans = Some(value.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn plan(args: &Args) -> Result<serve_mix::Plan, String> {
    let path = args.plan.as_ref().ok_or("--plan is required")?;
    serve_mix::Plan::load(path)
}

fn run(args: &Args) -> Result<Json, String> {
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    match args.cmd.as_str() {
        "pass" => Ok(match args.workload.as_str() {
            "fig11_sweep" => passes::fig11(args.threads, &args.dir),
            "rv32_sweep" => passes::rv32(args.threads),
            "serve_mix" => serve_mix::pass(args.threads, &args.dir, &plan(args)?),
            "char_studies" => passes::char_studies(),
            other => return Err(format!("unknown workload {other}")),
        }
        .to_json()),
        "trace" => {
            if !WORKLOADS.contains(&args.workload.as_str()) {
                return Err(format!("unknown workload {}", args.workload));
            }
            let out = layers::run(&args.workload, args.threads, &args.dir, &plan(args)?);
            if let Some(path) = &args.spans {
                spans::write(path).map_err(|e| format!("{}: {e}", path.display()))?;
            }
            Ok(out)
        }
        "verify-serve" => {
            let bodies = serve_mix::expected_bodies(&plan(args)?, args.threads)?;
            let mut j = Json::object();
            for (k, d) in bodies {
                j.set(&k.to_string(), d.into());
            }
            Ok(j)
        }
        "refs" => {
            let mut j = Json::object();
            j.set(
                "fig11_sweep",
                passes::fig11(args.threads, &args.dir)
                    .digests
                    .iter()
                    .map(String::as_str)
                    .collect(),
            );
            j.set(
                "rv32_sweep",
                passes::rv32(args.threads)
                    .digests
                    .iter()
                    .map(String::as_str)
                    .collect(),
            );
            j.set(
                "char_studies",
                passes::char_studies()
                    .digests
                    .iter()
                    .map(String::as_str)
                    .collect(),
            );
            // The committed artifacts, minus their volatile `host`
            // blocks: the sweep references must equal their digests.
            for (file, name) in [
                ("BENCH_fig11.json", "committed_fig11"),
                ("BENCH_rv32.json", "committed_rv32"),
            ] {
                if let Ok(text) = std::fs::read_to_string(file) {
                    let mut committed = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
                    committed.remove("host");
                    j.set(name, util::digest(&util::artifact_text(&committed)).into());
                }
            }
            Ok(j)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() {
    let outcome = parse_args().and_then(|a| run(&a));
    match outcome {
        Ok(j) => println!("{j}"),
        Err(e) => {
            eprintln!("popk-perfbench: {e}");
            std::process::exit(2);
        }
    }
}
