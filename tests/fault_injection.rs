//! Self-checking simulation, end to end: seed-driven fault injection
//! into the partial-operand policy inputs, the commit-time oracle
//! lockstep, the no-progress watchdog, config validation, and the
//! panic-isolated sweep executor.
//!
//! The contract under test: every injected fault is either *recovered*
//! (policy-input faults perturb timing only — the verify/recover paths
//! of the partial-knowledge techniques absorb them, and the oracle sees
//! a clean architectural stream) or *flagged* (commit-record faults
//! corrupt what the pipeline claims to retire, and the oracle reports a
//! structured divergence). Nothing panics either way.

use popk::core::{
    try_simulate, FaultKinds, FaultPlan, MachineConfig, Optimizations, SimError, SimStats,
    Simulator,
};
use popk::isa::Program;

const LIMIT: u64 = 30_000;

fn program(name: &str) -> Program {
    popk::workloads::by_name(name)
        .unwrap_or_else(|| panic!("unknown workload {name}"))
        .test_program()
}

/// A bit-sliced all-techniques config with the oracle enabled — the
/// machine where every fault site (operand slices, partial
/// disambiguation, partial tags, commit records) is live.
fn oracle_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::slice2_full();
    cfg.oracle = true;
    cfg
}

fn run_with_faults(
    p: &Program,
    cfg: &MachineConfig,
    kinds: FaultKinds,
    seed: u64,
) -> (Result<SimStats, SimError>, popk::core::FaultLog) {
    let mut sim = Simulator::new(cfg);
    sim.set_fault_plan(FaultPlan::new(seed, 25, kinds));
    let result = sim.try_run(p, LIMIT);
    (result, sim.fault_log())
}

/// Budget of the Fig. 11 ladder runs in the oracle lockstep test.
const LADDER_LIMIT: u64 = 5_000;

#[test]
fn oracle_lockstep_is_clean_across_machines() {
    let check = |name: &str, label: &str, p: &Program, mut cfg: MachineConfig, limit: u64| {
        cfg.oracle = true;
        let s = try_simulate(p, &cfg, limit)
            .unwrap_or_else(|e| panic!("{name} on {label}: oracle diverged: {e}"));
        assert!(s.committed > 0, "{name} on {label}");
    };
    for name in ["bzip", "gcc", "twolf"] {
        let p = program(name);
        for (label, cfg) in [
            ("ideal", MachineConfig::ideal()),
            ("simple2", MachineConfig::simple2()),
            ("slice2_full", MachineConfig::slice2_full()),
            ("slice4_full", MachineConfig::slice4_full()),
        ] {
            check(name, label, &p, cfg, LIMIT);
        }
    }
    // The rows of the Fig. 11 sweep: every workload's full-size program
    // on the ideal machine and on both slicings at each cumulative
    // optimization level.
    let mut ladder = vec![("ideal".to_string(), MachineConfig::ideal())];
    for level in 0..=5 {
        let opts = Optimizations::level(level);
        ladder.push((format!("slice2-{level}"), MachineConfig::slice2(opts)));
        ladder.push((format!("slice4-{level}"), MachineConfig::slice4(opts)));
    }
    for w in popk::workloads::all() {
        let p = w.program();
        for (label, cfg) in &ladder {
            check(w.name, label, &p, *cfg, LADDER_LIMIT);
        }
    }
}

#[test]
fn recoverable_faults_are_absorbed_by_the_verify_paths() {
    // Policy-input faults perturb timing decisions the techniques
    // already verify and recover from; with the oracle watching every
    // retirement, the architectural stream must stay exact.
    let p = program("gcc");
    let cfg = oracle_cfg();
    let clean = try_simulate(&p, &cfg, LIMIT).expect("clean run");

    let single = |f: fn(&mut FaultKinds)| {
        let mut k = FaultKinds::default();
        f(&mut k);
        k
    };
    let plans = [
        ("operand_slice", single(|k| k.operand_slice = true)),
        ("disambig_match", single(|k| k.disambig_match = true)),
        ("tag_bits", single(|k| k.tag_bits = true)),
        ("all recoverable", FaultKinds::recoverable()),
    ];
    for (label, kinds) in plans {
        for seed in [1u64, 0xbeef, 0x5eed_5eed] {
            let (result, log) = run_with_faults(&p, &cfg, kinds, seed);
            let s = result.unwrap_or_else(|e| panic!("{label} seed {seed:#x}: {e}"));
            assert!(log.total() > 0, "{label} seed {seed:#x}: no faults fired");
            assert_eq!(
                s.committed, clean.committed,
                "{label} seed {seed:#x}: architectural stream changed"
            );
        }
    }
}

#[test]
fn each_recoverable_site_actually_fires() {
    let p = program("gcc");
    let cfg = oracle_cfg();
    let (result, log) = run_with_faults(&p, &cfg, FaultKinds::recoverable(), 7);
    result.expect("recoverable faults never diverge");
    assert!(log.operand_slice > 0, "operand site never fired");
    assert!(log.disambig_match > 0, "disambig site never fired");
    assert!(log.tag_bits > 0, "tag site never fired");
    assert_eq!(log.commit_record, 0, "commit faults were not requested");
}

#[test]
fn commit_record_faults_are_flagged_by_the_oracle() {
    // Corrupting what the pipeline claims to retire is exactly what the
    // lockstep oracle exists to catch: every seed must produce a
    // structured divergence, never a panic, never a silent pass.
    let p = program("bzip");
    let cfg = oracle_cfg();
    let kinds = FaultKinds {
        commit_record: true,
        ..FaultKinds::default()
    };
    for seed in [2u64, 3, 0xfa11] {
        let (result, log) = run_with_faults(&p, &cfg, kinds, seed);
        match result {
            Err(SimError::OracleDivergence { seq, field, .. }) => {
                assert!(log.commit_record > 0, "seed {seed:#x}: nothing injected");
                assert!(!field.is_empty());
                assert!(seq < LIMIT);
            }
            other => panic!("seed {seed:#x}: expected divergence, got {other:?}"),
        }
    }
}

#[test]
fn commit_faults_only_touch_the_oracle_claim() {
    // The injected commit-record corruption applies to a local copy of
    // the retirement claim; with the oracle off it must be inert — the
    // simulated machine itself is untouched.
    let p = program("bzip");
    let mut cfg = MachineConfig::slice2_full();
    cfg.oracle = false;
    let clean = try_simulate(&p, &cfg, LIMIT).expect("clean run");
    let kinds = FaultKinds {
        commit_record: true,
        ..FaultKinds::default()
    };
    let (result, log) = run_with_faults(&p, &cfg, kinds, 2);
    let s = result.expect("oracle off: corruption of the claim copy is inert");
    assert!(log.commit_record > 0);
    assert_eq!(s.committed, clean.committed);
    assert_eq!(s.cycles, clean.cycles);
}

#[test]
fn starved_machine_terminates_via_watchdog() {
    // Zero memory ports is a validated-legal but non-viable machine: the
    // first load can never issue, commit stops, and the watchdog must
    // convert the livelock into a typed error with a pipeline snapshot.
    let p = program("gcc");
    let mut cfg = MachineConfig::slice2_full();
    cfg.mem_ports = 0;
    cfg.watchdog = 5_000;
    match try_simulate(&p, &cfg, LIMIT) {
        Err(SimError::Deadlock(snap)) => {
            assert!(snap.cycle - snap.last_commit_cycle > 5_000);
            assert!(snap.window_len > 0, "stuck window should be non-empty");
            assert!(!snap.head.is_empty(), "snapshot should name the stuck head");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn degenerate_configs_are_typed_errors() {
    let p = program("bzip");
    type Breaker = fn(&mut MachineConfig);
    let cases: [(&str, Breaker); 6] = [
        ("width", |c| c.width = 0),
        ("lsq_size", |c| c.lsq_size = 0),
        ("memory.l1d", |c| c.memory.l1d.size_bytes = 48 * 1024),
        // Sizes whose up-front allocation would abort the process.
        ("width", |c| c.width = u32::MAX),
        ("ruu_size", |c| c.ruu_size = 1 << 40),
        ("lsq_size", |c| c.lsq_size = 1 << 40),
    ];
    for (field, breaker) in cases {
        let mut cfg = MachineConfig::slice2_full();
        breaker(&mut cfg);
        match try_simulate(&p, &cfg, LIMIT) {
            Err(SimError::InvalidConfig(e)) => {
                assert!(e.field.contains(field), "{field}: got `{}`", e.field);
            }
            other => panic!("{field}: expected InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn poisoned_sweep_job_still_emits_a_complete_artifact() {
    // One workload's jobs panic on entry; the sweep must retry, isolate
    // the failure into the artifact's `failures` array plus a per-row
    // error entry, and leave every other row intact.
    popk_bench::set_poisoned_workload(Some("gcc"));
    let rep = popk_bench::table1_report_with(5_000, 2, false);
    popk_bench::set_poisoned_workload(None);

    assert_eq!(rep.failures, 1);
    assert!(rep.text.contains("FAILED"), "text lacks failure section");
    let json = rep.artifact.json();
    let Some(popk::core::Json::Array(failures)) = json.get("failures") else {
        panic!("artifact lacks failures array");
    };
    assert_eq!(failures.len(), 1);
    assert_eq!(
        failures[0].get("workload"),
        Some(&popk::core::Json::from("gcc"))
    );
    let Some(popk::core::Json::Array(rows)) = json.get("workloads") else {
        panic!("artifact lacks workloads array");
    };
    assert_eq!(rows.len(), 11, "every row present, failed one included");
    let error_rows = rows.iter().filter(|r| r.get("error").is_some()).count();
    assert_eq!(error_rows, 1);

    // A healthy sweep afterwards: no failures key at all, so committed
    // artifact bodies are unchanged by the robustness machinery.
    let rep = popk_bench::table1_report_with(5_000, 2, false);
    assert_eq!(rep.failures, 0);
    assert!(rep.artifact.json().get("failures").is_none());
}
