//! Report builders: the printed table plus the JSON artifact for each
//! figure, shared by the report binaries and the threads-equivalence
//! tests.
//!
//! Each builder runs its sweep through the job [`crate::pool`] (one job
//! per workload × configuration) and assembles both outputs from the
//! submission-ordered results, so for a given (budget, workload set) the
//! text and artifact are byte-identical at any thread count. The
//! volatile `host` timing block is *not* attached here — the binaries
//! add it from their [`crate::HostMeter`] just before writing, and
//! artifact diffing strips it with `Json::remove("host")`.

#![allow(clippy::useless_vec)] // row! builds Vec rows; headers reuse it

use crate::artifact::counters_json;
use crate::fmt::{f3, pct, render};
use crate::journal::SweepJournal;
use crate::runners::{self, drive_counted, sim, SweepFailure};
use crate::{pool, row, Artifact, Fig11Data};
use popk_bpred::{DirKind, FrontEndConfig};
use popk_characterize::{BranchStudy, DisambigStudy, DistanceStudy, WidthStudy};
use popk_core::{Json, MachineConfig, Optimizations};
use popk_isa::Program;
use popk_workloads::by_name;
use std::fmt::Write as _;

/// One figure's complete report: the human-readable text the binary
/// prints and the machine-readable artifact it writes under `--json`.
#[derive(Debug)]
pub struct Report {
    /// The printed report (tables and summary lines, trailing newline).
    pub text: String,
    /// The `BENCH_<figure>.json` artifact body, without the `host` block.
    pub artifact: Artifact,
    /// Sweep jobs that failed (panicked after retry, deadlocked, or
    /// diverged from the oracle). Binaries exit nonzero when this is
    /// positive; a healthy sweep reports zero and its artifact carries
    /// no `failures` key, keeping committed artifact bodies identical.
    pub failures: usize,
}

/// Append a line to the report text (infallible for `String`).
macro_rules! say {
    ($buf:expr, $($arg:tt)*) => { let _ = writeln!($buf, $($arg)*); };
}

/// Render sweep failures as the artifact's `failures` array.
fn failures_json(failures: &[SweepFailure]) -> Json {
    failures
        .iter()
        .map(|f| {
            let mut o = Json::object();
            o.set("workload", f.workload.into());
            o.set("config", f.config.as_str().into());
            o.set("message", f.message.as_str().into());
            o.set("attempts", Json::from(u64::from(f.attempts)));
            o
        })
        .collect()
}

/// Append the failure lines to a report's text, if any.
fn say_failures(text: &mut String, failures: &[SweepFailure]) {
    if failures.is_empty() {
        return;
    }
    say!(text, "\n{} job(s) FAILED:", failures.len());
    for f in failures {
        say!(
            text,
            "  {} [{}]: {} ({} attempt(s))",
            f.workload,
            f.config,
            f.message,
            f.attempts
        );
    }
}

/// Load the named workloads' programs through the pool.
fn programs_for(names: &[&str], threads: usize) -> Vec<Program> {
    pool::map_jobs(threads, names, |name| {
        by_name(name)
            .unwrap_or_else(|| panic!("unknown workload {name}"))
            .program()
    })
}

// ---- Table 1 ---------------------------------------------------------------

/// Build the Table 1 report (baseline characteristics, ideal machine).
pub fn table1_report(limit: u64, threads: usize) -> Report {
    table1_report_with(limit, threads, false)
}

/// [`table1_report`] with the commit-time oracle lockstep toggled: with
/// `oracle` set every run cross-checks the timing pipeline against the
/// functional machine at retirement, and any divergence becomes that
/// row's failure.
pub fn table1_report_with(limit: u64, threads: usize, oracle: bool) -> Report {
    table1_report_journaled(limit, threads, oracle, None)
}

/// [`table1_report_with`] behind a sweep journal (`--resume`):
/// completed rows replay from recorded counters, every other row runs
/// from instruction 0. The report and artifact are byte-identical to an
/// uninterrupted run's.
pub fn table1_report_journaled(
    limit: u64,
    threads: usize,
    oracle: bool,
    journal: Option<&SweepJournal>,
) -> Report {
    let mut text = String::new();
    say!(
        text,
        "Table 1: benchmark characteristics (ideal machine, {limit} instructions)\n"
    );
    let results = runners::table1_journaled(limit, threads, oracle, journal);
    let rows: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let failures: Vec<SweepFailure> = results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .cloned()
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            row![
                r.name,
                r.instructions,
                f3(r.ipc),
                pct(r.pct_loads),
                pct(r.pct_stores),
                pct(r.branch_accuracy)
            ]
        })
        .collect();
    say!(
        text,
        "{}",
        render(
            &row![
                "benchmark",
                "instrs",
                "IPC",
                "% loads",
                "% stores",
                "branch acc"
            ],
            &table
        )
    );
    let mean_ipc = (rows.iter().map(|r| r.ipc.ln()).sum::<f64>() / rows.len().max(1) as f64).exp();
    say!(text, "geometric-mean IPC: {mean_ipc:.3}");
    if oracle {
        say!(
            text,
            "oracle lockstep: every retirement cross-checked, {} divergence(s)",
            failures.len()
        );
    }
    say_failures(&mut text, &failures);

    let workloads: Vec<Json> = results
        .iter()
        .map(|r| match r {
            Ok(r) => {
                let mut o = Json::object();
                o.set("name", r.name.into());
                o.set("instructions", Json::from(r.instructions));
                o.set("ipc", Json::from(r.ipc));
                o.set("pct_loads", Json::from(r.pct_loads));
                o.set("pct_stores", Json::from(r.pct_stores));
                o.set("branch_accuracy", Json::from(r.branch_accuracy));
                o
            }
            Err(f) => {
                let mut o = Json::object();
                o.set("name", f.workload.into());
                o.set("error", f.message.as_str().into());
                o
            }
        })
        .collect();
    let mut artifact = Artifact::new("table1", limit);
    artifact.set("workloads", Json::Array(workloads));
    artifact.set("geomean_ipc", Json::from(mean_ipc));
    if oracle {
        artifact.set("oracle_lockstep", Json::from(true));
    }
    if !failures.is_empty() {
        artifact.set("failures", failures_json(&failures));
    }
    Report {
        text,
        artifact,
        failures: failures.len(),
    }
}

// ---- Fig. 11 ---------------------------------------------------------------

/// One slicing factor's Fig. 11 results: per-workload IPC at every
/// cumulative level plus the ideal machine, the full-config counter
/// snapshot, and the geomean summary lines.
fn fig11_slice_json(data: &Fig11Data, by4: bool) -> Json {
    let cols = if by4 { &data.slice4 } else { &data.slice2 };
    let workloads: Vec<Json> = cols
        .iter()
        .map(|c| {
            let mut o = Json::object();
            o.set("name", c.name.into());
            o.set("ideal_ipc", Json::from(c.ideal_ipc));
            o.set(
                "level_ipc",
                c.level_ipc.iter().map(|&v| Json::from(v)).collect(),
            );
            o.set("way_mispredict_rate", Json::from(c.way_mispredict_rate));
            o.set("counters", counters_json(&c.full_stats));
            o
        })
        .collect();
    let mut s = Json::object();
    s.set("workloads", Json::Array(workloads));
    s.set(
        "geomean_full_vs_ideal",
        Json::from(data.mean_full_vs_ideal(by4)),
    );
    s.set("geomean_speedup", Json::from(data.mean_speedup(by4)));
    s
}

/// Build the Fig. 11 report (IPC stacks for both slicings) from an
/// already-run sweep.
fn fig11_report_from(data: &Fig11Data, limit: u64) -> Report {
    let mut text = String::new();
    say!(
        text,
        "Figure 10 pipeline configurations (frequency held constant):"
    );
    say!(
        text,
        "  base      : Fetch1..RF2 (12) | EX          | Mem RE CT"
    );
    say!(
        text,
        "  slice-by-2: Fetch1..RF2 (12) | EX1 EX2     | Mem RE CT"
    );
    say!(
        text,
        "  slice-by-4: Fetch1..RF2 (12) | EX1..EX4    | Mem RE CT (L1D 2 cycles)\n"
    );
    say!(
        text,
        "Figure 11: IPC stacks ({limit} instructions per run)\n"
    );

    for (by4, cols) in [(false, &data.slice2), (true, &data.slice4)] {
        let n = if by4 { 4 } else { 2 };
        say!(text, "== {n} slices ==\n");
        let header: Vec<String> = std::iter::once("benchmark".to_string())
            .chain((0..=5).map(|l| Optimizations::level_name(l).to_string()))
            .chain(std::iter::once("ideal".to_string()))
            .collect();
        let rows: Vec<Vec<String>> = cols
            .iter()
            .map(|c| {
                let mut r = vec![c.name.to_string()];
                r.extend(c.level_ipc.iter().map(|&v| f3(v)));
                r.push(f3(c.ideal_ipc));
                r
            })
            .collect();
        say!(text, "{}", render(&header, &rows));

        let vs_ideal = data.mean_full_vs_ideal(by4);
        let speedup = data.mean_speedup(by4);
        say!(
            text,
            "geomean: all-techniques IPC = {:.1}% of ideal ({}); speedup over simple pipelining = {:+.1}%\n",
            100.0 * vs_ideal,
            if by4 {
                "paper: 18% below ideal"
            } else {
                "paper: within ~1% of ideal"
            },
            100.0 * (speedup - 1.0),
        );
        let avg_way_miss: f64 =
            cols.iter().map(|c| c.way_mispredict_rate).sum::<f64>() / cols.len() as f64;
        say!(
            text,
            "avg partial-tag way-mispredict rate: {:.1}% (paper: ~{}%)\n",
            100.0 * avg_way_miss,
            if by4 { 1 } else { 2 },
        );
    }

    say_failures(&mut text, &data.failures);

    let mut artifact = Artifact::new("fig11", limit);
    artifact.set(
        "levels",
        (0..=5)
            .map(|l| Json::from(Optimizations::level_name(l)))
            .collect(),
    );
    artifact.set("slice2", fig11_slice_json(data, false));
    artifact.set("slice4", fig11_slice_json(data, true));
    if !data.failures.is_empty() {
        artifact.set("failures", failures_json(&data.failures));
    }
    Report {
        text,
        artifact,
        failures: data.failures.len(),
    }
}

/// Build the Fig. 11 report, running the sweep on `threads` workers.
pub fn fig11_report(limit: u64, threads: usize) -> Report {
    fig11_report_journaled(limit, threads, None)
}

/// [`fig11_report`] behind a sweep journal (`--resume`): each of the
/// 143 sweep jobs is a journaled row.
pub fn fig11_report_journaled(
    limit: u64,
    threads: usize,
    journal: Option<&SweepJournal>,
) -> Report {
    fig11_report_from(&runners::fig11_journaled(limit, threads, journal), limit)
}

// ---- Fig. 12 ---------------------------------------------------------------

const FIG12_TECHS: [&str; 5] = [
    "partial bypassing",
    "ooo slices",
    "early branch",
    "early l/s disambig",
    "partial tag",
];

/// Build the Fig. 12 report (per-technique speedup contributions),
/// running the Fig. 11 sweep it derives from on `threads` workers.
pub fn fig12_report(limit: u64, threads: usize) -> Report {
    fig12_report_journaled(limit, threads, None)
}

/// [`fig12_report`] behind a sweep journal (`--resume`): the Fig. 11
/// sweep it derives from runs journaled.
pub fn fig12_report_journaled(
    limit: u64,
    threads: usize,
    journal: Option<&SweepJournal>,
) -> Report {
    let mut text = String::new();
    say!(
        text,
        "Figure 12: speedup of bit-slice pipelining over simple pipelining"
    );
    say!(
        text,
        "({limit} instructions per run; columns are incremental contributions)\n"
    );

    let data = runners::fig11_journaled(limit, threads, journal);
    let mut artifact = Artifact::new("fig12", limit);
    artifact.set("techniques", FIG12_TECHS.iter().copied().collect());
    for by4 in [false, true] {
        let n = if by4 { 4 } else { 2 };
        say!(text, "== {n} slices ==\n");
        let header: Vec<String> = std::iter::once("benchmark".to_string())
            .chain(FIG12_TECHS.iter().map(|s| s.to_string()))
            .chain(std::iter::once("total".to_string()))
            .collect();
        let rows_data = runners::fig12_from(&data, by4);
        let mut rows = Vec::new();
        let mut jrows = Vec::new();
        let mut new_tech_sum = 0.0;
        for (name, contrib, total) in &rows_data {
            let mut r = vec![name.to_string()];
            r.extend(contrib.iter().map(|c| format!("{:+.1}%", 100.0 * c)));
            r.push(format!("{:+.1}%", 100.0 * total));
            rows.push(r);
            // The paper's "new techniques" are everything past bypassing.
            new_tech_sum += contrib[1..].iter().sum::<f64>();
            let mut o = Json::object();
            o.set("name", (*name).into());
            o.set("contributions", contrib.iter().copied().collect());
            o.set("total_speedup", Json::from(*total));
            jrows.push(o);
        }
        say!(text, "{}", render(&header, &rows));
        let bypass = data.mean_bypass_speedup(by4) - 1.0;
        let total = data.mean_speedup(by4) - 1.0;
        say!(
            text,
            "geomean total speedup {:+.1}% (paper: {}); bypassing alone {:+.1}%;\n\
             new techniques add ~{:+.1}% on average (paper: {}).\n",
            100.0 * total,
            if by4 { "+44%" } else { "+16%" },
            100.0 * bypass,
            100.0 * new_tech_sum / rows_data.len() as f64,
            if by4 { "+13%" } else { "+8%" },
        );
        let mut s = Json::object();
        s.set("workloads", Json::Array(jrows));
        s.set("geomean_total_speedup", Json::from(total));
        s.set("geomean_bypass_speedup", Json::from(bypass));
        artifact.set(if by4 { "slice4" } else { "slice2" }, s);
    }
    say_failures(&mut text, &data.failures);
    if !data.failures.is_empty() {
        artifact.set("failures", failures_json(&data.failures));
    }
    Report {
        text,
        artifact,
        failures: data.failures.len(),
    }
}

// ---- Ablations -------------------------------------------------------------

/// One journaled ablation section: replay the recorded `{text, value}`
/// payload when the journal already has it, otherwise run the section
/// and record it. The section's printed text and artifact value are
/// byte-identical either way.
fn journaled_section(
    journal: Option<&SweepJournal>,
    row: &str,
    key: &str,
    text: &mut String,
    artifact: &mut Artifact,
    run: impl FnOnce() -> (String, Json),
) {
    if let Some(done) = journal.and_then(|j| j.completed(row)) {
        if let (Some(t), Some(v)) = (done.get("text").and_then(Json::as_str), done.get("value")) {
            text.push_str(t);
            artifact.set(key, v.clone());
            return;
        }
    }
    let (t, v) = run();
    if let Some(j) = journal {
        let mut payload = Json::object();
        payload.set("text", t.as_str().into());
        payload.set("value", v.clone());
        j.record_done(row, payload);
    }
    text.push_str(&t);
    artifact.set(key, v);
}

/// Build the ablations report (sweeps A–H beyond the paper's figures),
/// fanning each section's (workload × parameter) jobs across `threads`
/// workers.
pub fn ablations_report(limit: u64, threads: usize) -> Report {
    ablations_report_journaled(limit, threads, None)
}

/// [`ablations_report`] behind a sweep journal (`--resume`), at section
/// granularity: each of the eight sections A–H is one journal row whose
/// payload carries the section's exact text and artifact value, so a
/// resumed run replays finished sections and re-runs the others from
/// scratch.
pub fn ablations_report_journaled(
    limit: u64,
    threads: usize,
    journal: Option<&SweepJournal>,
) -> Report {
    let mut text = String::new();
    let names = ["gcc", "li", "twolf"];
    let progs = programs_for(&names, threads);
    let named_progs: Vec<(&str, &Program)> = names.iter().copied().zip(progs.iter()).collect();
    let mut artifact = Artifact::new("ablations", limit);

    // ---- A: gshare size sweep ----------------------------------------
    journaled_section(
        journal,
        "ablations/A",
        "gshare_sweep",
        &mut text,
        &mut artifact,
        || {
            let mut text = String::new();
            say!(
                text,
                "Ablation A: gshare size vs. accuracy and 8-bit detection ({limit} instrs)\n"
            );
            let jobs: Vec<(&str, &Program, u32)> = named_progs
                .iter()
                .flat_map(|&(n, p)| [10u32, 12, 14, 16].map(|bits| (n, p, bits)))
                .collect();
            let reports = pool::map_jobs(threads, &jobs, |&(_, p, bits)| {
                let mut study = BranchStudy::new(bits);
                drive_counted(p, limit, &mut [&mut study]);
                study.report()
            });
            let mut rows = Vec::new();
            let mut jrows = Vec::new();
            for (&(name, _, bits), r) in jobs.iter().zip(&reports) {
                rows.push(row![
                    name,
                    format!("{}K", (1u32 << bits) / 1024),
                    format!("{:.1}%", 100.0 * r.accuracy()),
                    format!("{:.0}%", r.percent_detected_within(8))
                ]);
                let mut o = Json::object();
                o.set("name", name.into());
                o.set("table_bits", Json::from(u64::from(bits)));
                o.set("accuracy", Json::from(r.accuracy()));
                o.set(
                    "pct_detected_within_8b",
                    Json::from(r.percent_detected_within(8)),
                );
                jrows.push(o);
            }
            say!(
                text,
                "{}",
                render(
                    &row!["benchmark", "entries", "accuracy", "detect ≤8b"],
                    &rows
                )
            );
            (text, Json::Array(jrows))
        },
    );

    // ---- B: LSQ size sweep --------------------------------------------
    journaled_section(
        journal,
        "ablations/B",
        "lsq_sweep",
        &mut text,
        &mut artifact,
        || {
            let mut text = String::new();
            say!(
                text,
                "Ablation B: LSQ window vs. loads resolved after 9 bits\n"
            );
            let jobs: Vec<(&str, &Program, usize)> = named_progs
                .iter()
                .flat_map(|&(n, p)| [8usize, 16, 32, 64].map(|lsq| (n, p, lsq)))
                .collect();
            let reports = pool::map_jobs(threads, &jobs, |&(_, p, lsq)| {
                let mut study = DisambigStudy::new(lsq);
                drive_counted(p, limit, &mut [&mut study]);
                study.report()
            });
            let mut rows = Vec::new();
            let mut jrows = Vec::new();
            for (&(name, _, lsq), r) in jobs.iter().zip(&reports) {
                rows.push(row![name, lsq, format!("{:.1}%", r.resolved_after_bits(9))]);
                let mut o = Json::object();
                o.set("name", name.into());
                o.set("lsq_entries", Json::from(lsq));
                o.set(
                    "pct_resolved_within_9b",
                    Json::from(r.resolved_after_bits(9)),
                );
                jrows.push(o);
            }
            say!(
                text,
                "{}",
                render(&row!["benchmark", "LSQ", "resolved ≤9b"], &rows)
            );
            (text, Json::Array(jrows))
        },
    );

    // ---- C: direction predictor organization ---------------------------
    journaled_section(
        journal,
        "ablations/C",
        "direction_predictor",
        &mut text,
        &mut artifact,
        || {
            let mut text = String::new();
            say!(
                text,
                "Ablation C: direction predictor organization on slice-by-2 (all techniques)\n"
            );
            let kinds = [
                ("gshare", DirKind::Gshare),
                ("bimodal", DirKind::Bimodal),
                ("local", DirKind::Local),
                ("tournament", DirKind::Tournament),
            ];
            let jobs: Vec<(&Program, DirKind)> = progs
                .iter()
                .flat_map(|p| kinds.map(|(_, kind)| (p, kind)))
                .collect();
            let ipcs = pool::map_jobs(threads, &jobs, |&(p, kind)| {
                let mut cfg = MachineConfig::slice2_full();
                cfg.frontend = FrontEndConfig {
                    dir_kind: kind,
                    ..FrontEndConfig::default()
                };
                sim(p, &cfg, limit).ipc()
            });
            let mut rows = Vec::new();
            let mut jrows = Vec::new();
            for (&name, per_kind) in names.iter().zip(ipcs.chunks_exact(kinds.len())) {
                let mut r = vec![name.to_string()];
                let mut o = Json::object();
                o.set("name", name.into());
                for ((kname, _), &ipc) in kinds.iter().zip(per_kind) {
                    r.push(f3(ipc));
                    o.set(kname, Json::from(ipc));
                }
                rows.push(r);
                jrows.push(o);
            }
            say!(
                text,
                "{}",
                render(
                    &row!["benchmark", "gshare", "bimodal", "local", "tournament"],
                    &rows
                )
            );
            (text, Json::Array(jrows))
        },
    );

    // ---- D: single-technique isolation ---------------------------------
    journaled_section(
        journal,
        "ablations/D",
        "single_technique",
        &mut text,
        &mut artifact,
        || {
            let mut text = String::new();
            say!(
                text,
                "Ablation D: each technique alone on top of partial bypassing (slice-by-4)\n"
            );
            let single = |f: fn(&mut Optimizations)| {
                let mut o = Optimizations::level(1);
                f(&mut o);
                o
            };
            let variants: [(&str, Optimizations); 5] = [
                ("bypass only", Optimizations::level(1)),
                ("+ooo slices", single(|o| o.ooo_slices = true)),
                ("+early branch", single(|o| o.early_branch = true)),
                ("+early disambig", single(|o| o.early_disambig = true)),
                ("+partial tag", single(|o| o.partial_tag = true)),
            ];
            let jobs: Vec<(&Program, Optimizations)> = progs
                .iter()
                .flat_map(|p| variants.map(|(_, opts)| (p, opts)))
                .collect();
            let ipcs = pool::map_jobs(threads, &jobs, |&(p, opts)| {
                sim(p, &MachineConfig::slice4(opts), limit).ipc()
            });
            let mut rows = Vec::new();
            let mut jrows = Vec::new();
            for (&name, per_variant) in names.iter().zip(ipcs.chunks_exact(variants.len())) {
                let mut r = vec![name.to_string()];
                let mut o = Json::object();
                o.set("name", name.into());
                for ((vname, _), &ipc) in variants.iter().zip(per_variant) {
                    r.push(f3(ipc));
                    o.set(vname, Json::from(ipc));
                }
                rows.push(r);
                jrows.push(o);
            }
            let header: Vec<String> = std::iter::once("benchmark".to_string())
                .chain(variants.iter().map(|(n, _)| n.to_string()))
                .collect();
            say!(text, "{}", render(&header, &rows));
            (text, Json::Array(jrows))
        },
    );

    // ---- E: paper-sketched extensions ----------------------------------
    journaled_section(
        journal,
        "ablations/E",
        "extensions",
        &mut text,
        &mut artifact,
        || {
            let mut text = String::new();
            say!(
                text,
                "Ablation E: paper-sketched extensions on top of all techniques (slice-by-2)\n"
            );
            let ext_names = ["gcc", "li", "twolf", "bzip", "vortex"];
            let ext_progs = programs_for(&ext_names, threads);
            let memdep = {
                let mut o = Optimizations::all();
                o.mem_dep_predict = true;
                o
            };
            let jobs: Vec<(&Program, Optimizations)> = ext_progs
                .iter()
                .flat_map(|p| {
                    [Optimizations::all(), Optimizations::extended(), memdep].map(|opts| (p, opts))
                })
                .collect();
            let stats = pool::map_jobs(threads, &jobs, |&(p, opts)| {
                sim(p, &MachineConfig::slice2(opts), limit)
            });
            let mut rows = Vec::new();
            let mut jrows = Vec::new();
            for (&name, runs) in ext_names.iter().zip(stats.chunks_exact(3)) {
                let (full, ext, md) = (&runs[0], &runs[1], &runs[2]);
                rows.push(row![
                    name,
                    f3(full.ipc()),
                    f3(ext.ipc()),
                    format!("{:+.1}%", 100.0 * (ext.ipc() / full.ipc() - 1.0)),
                    ext.spec_forwards,
                    ext.narrow_wakeups,
                    ext.sam_starts,
                    f3(md.ipc()),
                    format!("{}/{}", md.mem_dep_speculations, md.mem_dep_violations)
                ]);
                let mut o = Json::object();
                o.set("name", name.into());
                o.set("all_ipc", Json::from(full.ipc()));
                o.set("extended_ipc", Json::from(ext.ipc()));
                o.set("spec_forwards", Json::from(ext.spec_forwards));
                o.set("narrow_wakeups", Json::from(ext.narrow_wakeups));
                o.set("sam_starts", Json::from(ext.sam_starts));
                o.set("memdep_ipc", Json::from(md.ipc()));
                o.set("mem_dep_speculations", Json::from(md.mem_dep_speculations));
                o.set("mem_dep_violations", Json::from(md.mem_dep_violations));
                jrows.push(o);
            }
            say!(
                text,
                "{}",
                render(
                    &row![
                        "benchmark",
                        "all IPC",
                        "ext IPC",
                        "ext gain",
                        "spec fwd",
                        "narrow",
                        "sam",
                        "+memdep IPC",
                        "specs/viol"
                    ],
                    &rows
                )
            );
            say!(
                text,
                "`extended()` = spec-forward + narrow + sum-addressed; the memory\n\
                 dependence predictor is reported separately because its benefit is\n\
                 workload-dependent (see EXPERIMENTS.md)."
            );
            (text, Json::Array(jrows))
        },
    );

    // ---- F: wrong-path fetch modeling ----------------------------------
    journaled_section(
        journal,
        "ablations/F",
        "wrong_path",
        &mut text,
        &mut artifact,
        || {
            let mut text = String::new();
            say!(
                text,
                "\nAblation F: wrong-path fetch modeling (phantoms vs. fetch stall)\n"
            );
            let wp_names = ["go", "gcc", "parser", "twolf"];
            let wp_progs = programs_for(&wp_names, threads);
            let jobs: Vec<(&Program, bool)> = wp_progs
                .iter()
                .flat_map(|p| [(p, false), (p, true)])
                .collect();
            let stats = pool::map_jobs(threads, &jobs, |&(p, wrong_path)| {
                let mut cfg = MachineConfig::slice2_full();
                cfg.model_wrong_path = wrong_path;
                sim(p, &cfg, limit)
            });
            let mut rows = Vec::new();
            let mut jrows = Vec::new();
            for (&name, runs) in wp_names.iter().zip(stats.chunks_exact(2)) {
                let (a, b) = (&runs[0], &runs[1]);
                rows.push(row![
                    name,
                    f3(a.ipc()),
                    f3(b.ipc()),
                    format!("{:+.2}%", 100.0 * (b.ipc() / a.ipc() - 1.0))
                ]);
                let mut o = Json::object();
                o.set("name", name.into());
                o.set("stall_model_ipc", Json::from(a.ipc()));
                o.set("phantom_model_ipc", Json::from(b.ipc()));
                jrows.push(o);
            }
            say!(
                text,
                "{}",
                render(
                    &row!["benchmark", "stall-model IPC", "phantom-model IPC", "delta"],
                    &rows
                )
            );
            say!(
                text,
                "Wrong-path pollution is second-order and non-monotone — the effect\n\
                 the paper credits for bzip/gzip/li slightly exceeding the ideal\n\
                 machine."
            );
            (text, Json::Array(jrows))
        },
    );

    // ---- G: operand width distribution ---------------------------------
    let workloads = popk_workloads::all();
    journaled_section(
        journal,
        "ablations/G",
        "width_distribution",
        &mut text,
        &mut artifact,
        || {
            let mut text = String::new();
            say!(
                text,
                "\nAblation G: result significant-width distribution (the §6 premise)\n"
            );
            let width_reports = pool::map_jobs(threads, &workloads, |w| {
                let p = w.program();
                let mut study = WidthStudy::new();
                drive_counted(&p, limit, &mut [&mut study]);
                study.report()
            });
            let mut rows = Vec::new();
            let mut jrows = Vec::new();
            for (w, r) in workloads.iter().zip(&width_reports) {
                rows.push(row![
                    w.name,
                    format!("{:.0}%", 100.0 * r.fraction_within(8)),
                    format!("{:.0}%", 100.0 * r.fraction_within(16)),
                    format!("{:.0}%", 100.0 * r.fraction_within(24)),
                    format!("{:.1}", r.mean_width())
                ]);
                let mut o = Json::object();
                o.set("name", w.name.into());
                o.set("fraction_within_8b", Json::from(r.fraction_within(8)));
                o.set("fraction_within_16b", Json::from(r.fraction_within(16)));
                o.set("fraction_within_24b", Json::from(r.fraction_within(24)));
                o.set("mean_width_bits", Json::from(r.mean_width()));
                jrows.push(o);
            }
            say!(
                text,
                "{}",
                render(
                    &row!["benchmark", "≤8 bits", "≤16 bits", "≤24 bits", "mean width"],
                    &rows
                )
            );
            say!(
                text,
                "Most results are sign/zero extensions of a narrow low slice — the\n\
                 empirical basis for the narrow-operand extension (refs [3], [6])."
            );
            (text, Json::Array(jrows))
        },
    );

    // ---- H: dependence distances ---------------------------------------
    journaled_section(
        journal,
        "ablations/H",
        "dependence_distance",
        &mut text,
        &mut artifact,
        || {
            let mut text = String::new();
            say!(
                text,
                "\nAblation H: producer→consumer dependence distances (the §2 motivation)\n"
            );
            let distance_reports = pool::map_jobs(threads, &workloads, |w| {
                let p = w.program();
                let mut study = DistanceStudy::new();
                drive_counted(&p, limit, &mut [&mut study]);
                study.report()
            });
            let mut rows = Vec::new();
            let mut jrows = Vec::new();
            for (w, r) in workloads.iter().zip(&distance_reports) {
                rows.push(row![
                    w.name,
                    format!("{:.0}%", 100.0 * r.fraction_within(1)),
                    format!("{:.0}%", 100.0 * r.fraction_within(2)),
                    format!("{:.0}%", 100.0 * r.fraction_within(4)),
                    format!("{:.0}%", 100.0 * r.fraction_within(8)),
                    format!("{:.1}", r.mean_distance())
                ]);
                let mut o = Json::object();
                o.set("name", w.name.into());
                o.set("fraction_within_1", Json::from(r.fraction_within(1)));
                o.set("fraction_within_2", Json::from(r.fraction_within(2)));
                o.set("fraction_within_4", Json::from(r.fraction_within(4)));
                o.set("fraction_within_8", Json::from(r.fraction_within(8)));
                o.set("mean_distance", Json::from(r.mean_distance()));
                jrows.push(o);
            }
            say!(
                text,
                "{}",
                render(&row!["benchmark", "d=1", "≤2", "≤4", "≤8", "mean"], &rows)
            );
            say!(
                text,
                "A third to half of all source operands come from the immediately\n\
                 preceding instructions — exactly the population naive EX\n\
                 pipelining penalizes and partial bypassing rescues (Fig. 1)."
            );
            (text, Json::Array(jrows))
        },
    );

    Report {
        text,
        artifact,
        failures: 0,
    }
}

// ---- compare ---------------------------------------------------------------

/// Build the compare report (two configurations across the suite), or
/// `None` if either configuration name is unknown.
pub fn compare_report(a_name: &str, b_name: &str, limit: u64, threads: usize) -> Option<Report> {
    let a_cfg = runners::parse_config(a_name)?;
    let b_cfg = runners::parse_config(b_name)?;
    let mut text = String::new();
    say!(
        text,
        "{a_name} vs {b_name} ({limit} instructions per run)\n"
    );
    let pairs = runners::compare(&a_cfg, &b_cfg, limit, threads);

    let mut rows = Vec::new();
    let mut jrows = Vec::new();
    let mut failures: Vec<SweepFailure> = Vec::new();
    let mut log_sum = 0.0f64;
    let mut ok_count = 0u32;
    for (name, pair) in &pairs {
        let (a, b) = match pair {
            Ok(pair) => pair,
            Err(f) => {
                failures.push(f.clone());
                let mut o = Json::object();
                o.set("name", (*name).into());
                o.set("error", f.message.as_str().into());
                jrows.push(o);
                continue;
            }
        };
        let ratio = a.ipc() / b.ipc();
        log_sum += ratio.ln();
        ok_count += 1;
        rows.push(row![
            name,
            f3(a.ipc()),
            f3(b.ipc()),
            format!("{:+.1}%", 100.0 * (ratio - 1.0)),
            a.cycles,
            b.cycles
        ]);
        let mut o = Json::object();
        o.set("name", (*name).into());
        o.set("ipc_a", Json::from(a.ipc()));
        o.set("ipc_b", Json::from(b.ipc()));
        o.set("cycles_a", Json::from(a.cycles));
        o.set("cycles_b", Json::from(b.cycles));
        o.set("ipc_ratio", Json::from(ratio));
        jrows.push(o);
    }
    say!(
        text,
        "{}",
        render(
            &row![
                "benchmark",
                format!("{a_name} IPC"),
                format!("{b_name} IPC"),
                "delta",
                format!("{a_name} cyc"),
                format!("{b_name} cyc")
            ],
            &rows
        )
    );
    let geo = (log_sum / f64::from(ok_count.max(1))).exp();
    say!(
        text,
        "geomean IPC ratio {a_name}/{b_name}: {:.3} ({:+.1}%)",
        geo,
        100.0 * (geo - 1.0)
    );
    say_failures(&mut text, &failures);

    let mut artifact = Artifact::new("compare", limit);
    artifact.set("config_a", a_name.into());
    artifact.set("config_b", b_name.into());
    // Config identity as the rest of the bench layer derives it
    // (`MachineConfig::fingerprint`, shared with the artifact cache).
    artifact.set(
        "config_a_hash",
        format!("{:016x}", a_cfg.fingerprint()).into(),
    );
    artifact.set(
        "config_b_hash",
        format!("{:016x}", b_cfg.fingerprint()).into(),
    );
    artifact.set("workloads", Json::Array(jrows));
    artifact.set("geomean_ipc_ratio", Json::from(geo));
    if !failures.is_empty() {
        artifact.set("failures", failures_json(&failures));
    }
    Some(Report {
        text,
        artifact,
        failures: failures.len(),
    })
}

// ---- RV32 ------------------------------------------------------------------

/// Build the RV32 sweep report: per-workload IPC across the
/// configuration ladder of [`runners::rv32_configs`], through the same
/// timing core as the PISA suite via the ISA-neutral frontend boundary.
pub fn rv32_report(limit: u64, threads: usize) -> Report {
    rv32_report_with(limit, threads, false)
}

/// [`rv32_report`] with the commit-time oracle lockstep toggled: with
/// `oracle` set every run replays the RV32 functional machine against
/// the commit stream, and any divergence becomes that row's failure.
pub fn rv32_report_with(limit: u64, threads: usize, oracle: bool) -> Report {
    let mut text = String::new();
    say!(
        text,
        "RV32 sweep: IPC by machine configuration ({limit} instructions)\n"
    );
    let cfgs = runners::rv32_configs();
    let results = runners::rv32_sweep(limit, threads, oracle);
    let rows: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let failures: Vec<SweepFailure> = results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .cloned()
        .collect();

    // Matrix: one row per workload, one IPC column per configuration.
    let names: Vec<&'static str> = {
        let mut v: Vec<&'static str> = rows.iter().map(|r| r.workload).collect();
        v.dedup();
        v
    };
    let table: Vec<Vec<String>> = names
        .iter()
        .map(|&name| {
            let mut cells = vec![name.to_string()];
            for &(label, _) in &cfgs {
                let cell = rows
                    .iter()
                    .find(|r| r.workload == name && r.config == label)
                    .map_or_else(|| "-".into(), |r| f3(r.ipc));
                cells.push(cell);
            }
            cells
        })
        .collect();
    let mut header = vec!["workload".to_string()];
    header.extend(cfgs.iter().map(|&(label, _)| label.to_string()));
    say!(text, "{}", render(&header, &table));

    // Geomean IPC per configuration over the workloads that completed.
    let mut geo = Json::object();
    for &(label, _) in &cfgs {
        let ipcs: Vec<f64> = rows
            .iter()
            .filter(|r| r.config == label)
            .map(|r| r.ipc)
            .collect();
        if !ipcs.is_empty() {
            let g = (ipcs.iter().map(|v| v.ln()).sum::<f64>() / ipcs.len() as f64).exp();
            say!(text, "geomean IPC [{label}]: {g:.3}");
            geo.set(label, Json::from(g));
        }
    }
    if oracle {
        say!(
            text,
            "oracle lockstep: every retirement cross-checked, {} divergence(s)",
            failures.len()
        );
    }
    say_failures(&mut text, &failures);

    let workloads: Vec<Json> = names
        .iter()
        .map(|&name| {
            let mut o = Json::object();
            o.set("name", name.into());
            let configs: Vec<Json> = rows
                .iter()
                .filter(|r| r.workload == name)
                .map(|r| {
                    let mut c = Json::object();
                    c.set("config", r.config.into());
                    c.set("committed", Json::from(r.committed));
                    c.set("cycles", Json::from(r.cycles));
                    c.set("ipc", Json::from(r.ipc));
                    c
                })
                .collect();
            o.set("configs", Json::Array(configs));
            o
        })
        .collect();
    let mut artifact = Artifact::new("rv32", limit);
    artifact.set("isa", "rv32".into());
    artifact.set("workloads", Json::Array(workloads));
    artifact.set("geomean_ipc", geo);
    if oracle {
        artifact.set("oracle_lockstep", Json::from(true));
    }
    if !failures.is_empty() {
        artifact.set("failures", failures_json(&failures));
    }
    Report {
        text,
        artifact,
        failures: failures.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_rejects_unknown_configs() {
        assert!(compare_report("bogus", "ideal", 1000, 1).is_none());
        assert!(compare_report("ideal", "bogus", 1000, 1).is_none());
    }

    #[test]
    fn table1_report_shape() {
        let rep = table1_report(5_000, 2);
        assert!(rep.text.contains("geometric-mean IPC"));
        assert_eq!(
            rep.artifact.json().get("figure"),
            Some(&Json::from("table1"))
        );
        let Some(Json::Array(ws)) = rep.artifact.json().get("workloads") else {
            panic!("workloads array missing");
        };
        assert_eq!(ws.len(), 11);
        // The host block is the binaries' job, not the builder's.
        assert!(rep.artifact.json().get("host").is_none());
    }
}
