//! The staged pipeline: one module per stage of the Fig. 10 machine,
//! plus the shared window/scheduling state they communicate through.
//!
//! Module map (each stage documents its paper figure in detail):
//!
//! * [`frontend`] — fetch, I-cache probing, branch prediction, redirect
//!   stalls (Fig. 10 Fetch1–Fetch2).
//! * [`dispatch`] — rename, window/LSQ allocation, serialization
//!   (Fig. 10 Decode1–RF2; Fig. 7's RUU).
//! * [`issue`] — the event-driven wakeup/select loop over window
//!   entries (Fig. 7).
//! * [`execute`] — slice-level issue rules (Fig. 8), the atomic
//!   functional units, branch resolution (Fig. 6), narrow-operand
//!   publication.
//! * [`memory`] — load/store disambiguation (Fig. 2), the L1D access
//!   with optional partial tag matching (Fig. 4), sum-addressed decode,
//!   memory-dependence prediction.
//! * [`commit`] — in-order retirement and wrong-path squash/recovery.
//! * [`entry`] — per-opcode decode products and the [`entry::CycleSlot`]
//!   schedule sentinel.
//! * [`window`] — the struct-of-arrays window store the stages advance
//!   (hot columns per field, cold trace records in a side column).
//! * [`sched`] — the calendar-wheel wakeup schedule and age-ordered
//!   LSQ bookkeeping (private to its narrow API).
//!
//! The three paper techniques the stages *vary on* live in
//! [`crate::policies`] and are selected once at construction; the
//! stages hold the mechanism only. The driver loop itself is in
//! [`crate::sim`].

pub(crate) mod commit;
pub(crate) mod dispatch;
pub(crate) mod entry;
pub(crate) mod execute;
pub(crate) mod frontend;
pub(crate) mod issue;
pub(crate) mod memory;
pub(crate) mod sched;
pub(crate) mod window;

use crate::config::MachineConfig;
use crate::events::{NullTrace, TraceSink};
use crate::policies::PolicySet;
use crate::stats::SimStats;
use dispatch::RenameTable;
use execute::FuncUnits;
use frontend::FrontendFeed;
use memory::MemDepPredictor;
use popk_bpred::FrontEnd;
use popk_cache::Hierarchy;
use popk_isa::Insn;
use popk_trace::UopInsn;
use sched::{SchedBufs, Scheduler};
use window::{Window, WindowBufs};

/// Reusable simulator allocations: the window's struct-of-arrays
/// columns (waiter lists included) and the scheduler's calendar-wheel /
/// LSQ buffers.
///
/// A simulator built through [`Simulator::with_sink_in`] (as
/// [`crate::sim::try_simulate`] does) takes these allocations
/// instead of making fresh ones, and hands them back through
/// [`Simulator::reclaim`] when the run finishes — so a sweep driver
/// running thousands of rows on one thread allocates the hot state
/// once. A `Scratch` carries no simulation state across runs: every
/// column is reset on reuse.
pub struct Scratch<I = Insn> {
    pub(crate) window: WindowBufs<I>,
    pub(crate) sched: SchedBufs,
}

// Manual impl: a derived one would demand `I: Default` for no reason.
impl<I> Default for Scratch<I> {
    fn default() -> Scratch<I> {
        Scratch {
            window: WindowBufs::default(),
            sched: SchedBufs::default(),
        }
    }
}

impl<I> Scratch<I> {
    /// Empty scratch (allocations grow on first use).
    pub fn new() -> Scratch<I> {
        Scratch::default()
    }
}

/// Emit a trace event, stamped with the current cycle. A macro rather
/// than a method so it can run while a window entry is mutably borrowed:
/// `self.sink` and `self.cycle` are fields disjoint from `self.window`,
/// and the whole emission folds away when `S::ENABLED` is false.
macro_rules! emit {
    ($self:ident, $ev:expr) => {
        if S::ENABLED {
            let cycle = $self.cycle;
            $self.sink.event(cycle, &$ev);
        }
    };
}
pub(crate) use emit;

/// The timing simulator. Use [`crate::sim::simulate`] for the one-call
/// entry point.
///
/// Generic over a [`TraceSink`] that observes every pipeline event; the
/// default [`NullTrace`] compiles all emission out, so `Simulator::new`
/// is exactly the untraced machine. Use [`Simulator::with_sink`] to
/// attach a recorder (e.g. [`crate::VecTrace`] or a
/// [`crate::timeline::TimelineBuilder`]).
///
/// Also generic over the frontend's instruction type `I` (default: the
/// native PISA [`Insn`]): the stages consume only the ISA-neutral
/// [`popk_trace::Uop`] boundary, so any [`popk_trace::Frontend`] can
/// drive the same timing core.
pub struct Simulator<S = NullTrace, I = Insn> {
    pub(crate) cfg: MachineConfig,
    pub(crate) nslices: usize,
    pub(crate) slice_bits: u32,
    pub(crate) frontend: FrontEnd,
    pub(crate) memory: Hierarchy,
    pub(crate) stats: SimStats,

    pub(crate) cycle: u64,
    pub(crate) next_seq: u64,
    pub(crate) window: Window<I>,
    pub(crate) lsq_occupancy: usize,
    /// Fetched-but-not-dispatched instructions and the fetch stall state
    /// (owned by the [`frontend`] stage).
    pub(crate) feed: FrontendFeed<I>,
    /// Per-register producer tracking at dispatch (rename).
    pub(crate) rename: RenameTable,
    /// Non-pipelined functional-unit reservations.
    pub(crate) units: FuncUnits,
    /// Memory-dependence predictor (used by `opts.mem_dep_predict`).
    pub(crate) mem_dep: MemDepPredictor,
    /// The wakeup calendar and age-ordered store/load bookkeeping.
    pub(crate) sched: Scheduler,
    /// The partial-operand technique implementations this configuration
    /// selected (see [`crate::policies`]).
    pub(crate) policies: PolicySet,
    /// The trace-event consumer (zero-sized and inert by default).
    pub(crate) sink: S,
    /// Commit-time lockstep checker (built by `try_run` when
    /// `cfg.oracle` is set; `None` costs one branch per retire).
    pub(crate) oracle: Option<crate::oracle::Oracle<I>>,
    /// Deterministic fault injector (attached via
    /// [`Simulator::set_fault_plan`]; `None` in normal runs).
    pub(crate) fault: Option<crate::fault::FaultPlan>,
    /// Error raised inside a stage this cycle (the run loop surfaces it;
    /// stages have `()` signatures).
    pub(crate) error: Option<crate::error::SimError>,
    /// Cycle of the most recent retirement, for the no-progress watchdog.
    pub(crate) last_commit_cycle: u64,
    /// Cooperative cancellation flag (attached via
    /// [`Simulator::set_cancel`]; `None` in normal runs). The run loop
    /// polls it every 1024 cycles and returns
    /// [`SimError::Canceled`](crate::SimError) when set.
    pub(crate) cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl<I: UopInsn, S: TraceSink<I>> Simulator<S, I> {
    /// Build a simulator that reports pipeline events to `sink`.
    pub fn with_sink(cfg: &MachineConfig, sink: S) -> Simulator<S, I> {
        Simulator::with_sink_in(cfg, sink, &mut Scratch::new())
    }

    /// Like [`Simulator::with_sink`], taking the window and scheduler
    /// allocations from `scratch` (left empty) instead of allocating
    /// fresh ones. Pair with [`Simulator::reclaim`] to hand them back
    /// after the run.
    pub fn with_sink_in(cfg: &MachineConfig, sink: S, scratch: &mut Scratch<I>) -> Simulator<S, I> {
        let nslices = cfg.slice_count();
        Simulator {
            cfg: *cfg,
            nslices,
            slice_bits: 32 / nslices as u32,
            frontend: FrontEnd::new(&cfg.frontend),
            memory: Hierarchy::new(cfg.memory),
            stats: SimStats::default(),
            cycle: 0,
            next_seq: 0,
            window: Window::new(cfg.ruu_size, std::mem::take(&mut scratch.window)),
            lsq_occupancy: 0,
            feed: FrontendFeed::new(cfg.width),
            rename: RenameTable::new(I::NUM_REGS),
            units: FuncUnits::default(),
            mem_dep: MemDepPredictor::new(cfg),
            sched: Scheduler::new_in(
                cfg.ruu_size,
                cfg.lsq_size,
                std::mem::take(&mut scratch.sched),
            ),
            policies: PolicySet::from_config(cfg),
            sink,
            oracle: None,
            fault: None,
            error: None,
            last_commit_cycle: 0,
            cancel: None,
        }
    }

    /// Consume the simulator, returning its reusable allocations to
    /// `scratch` for the next run.
    pub fn reclaim(self, scratch: &mut Scratch<I>) {
        scratch.window = self.window.into_bufs();
        scratch.sched = self.sched.into_bufs();
    }

    /// Attach a deterministic [`FaultPlan`](crate::FaultPlan): subsequent
    /// cycles inject faults at its sites. Used by the fault-injection
    /// suite; never set in normal runs.
    pub fn set_fault_plan(&mut self, plan: crate::fault::FaultPlan) {
        self.fault = Some(plan);
    }

    /// Attach a cooperative cancellation flag. Setting `flag` from
    /// another thread makes [`try_run`](Simulator::try_run) stop within
    /// ~1024 cycles and return
    /// [`SimError::Canceled`](crate::SimError::Canceled). Has no effect
    /// on results when the flag is never raised: the poll touches no
    /// architectural or timing state.
    pub fn set_cancel(&mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) {
        self.cancel = Some(flag);
    }

    /// Injection counts of the attached fault plan (all-zero when none).
    pub fn fault_log(&self) -> crate::fault::FaultLog {
        self.fault.map(|p| p.log()).unwrap_or_default()
    }

    /// Retirements the commit-time oracle has verified (0 unless
    /// `cfg.oracle` was set).
    pub fn oracle_checks(&self) -> u64 {
        self.oracle.as_ref().map_or(0, |o| o.checks())
    }

    /// The [`DeadlockSnapshot`](crate::DeadlockSnapshot) the watchdog
    /// attaches to [`SimError::Deadlock`](crate::SimError).
    pub(crate) fn deadlock_snapshot(&self) -> crate::error::DeadlockSnapshot {
        crate::error::DeadlockSnapshot {
            cycle: self.cycle,
            last_commit_cycle: self.last_commit_cycle,
            committed: self.stats.committed,
            window_len: self.window.len(),
            lsq_occupancy: self.lsq_occupancy,
            feed_len: self.feed.len(),
            head: (0..self.window.len().min(4))
                .map(|i| {
                    format!(
                        "seq {} pc {:#010x} {}{}",
                        self.window.seq(i),
                        self.window.rec(i).pc,
                        self.window.rec(i).insn,
                        if self.window.phantom(i) {
                            " (phantom)"
                        } else {
                            ""
                        }
                    )
                })
                .collect(),
        }
    }

    /// Immutable access to the attached sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consume the simulator and return the sink (with whatever it
    /// recorded).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// The statistics accumulated so far (final after
    /// [`Simulator::run`](crate::sim)).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Snapshot every counter — simulator, front end, and cache
    /// hierarchy — into a named [`crate::StatsRegistry`].
    pub fn registry(&self) -> crate::StatsRegistry {
        let mut r = crate::StatsRegistry::from_sim(&self.stats);
        r.add_frontend(self.frontend.stats());
        r.add_cache("l1i", self.memory.l1i().stats());
        r.add_cache("l1d", self.memory.l1d().stats());
        r.add_cache("l2", self.memory.l2().stats());
        r
    }

    /// O(1) window position of `seq` (seqs are contiguous in the window).
    #[inline]
    pub(crate) fn index_of(&self, seq: u64) -> Option<usize> {
        self.window.index_of(seq)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared assembly kernels and runners for the per-stage tests.

    use crate::config::MachineConfig;
    use crate::sim::simulate;
    use crate::stats::SimStats;
    use popk_isa::asm::assemble;

    pub(crate) fn run_cfg(src: &str, cfg: &MachineConfig) -> SimStats {
        let p = assemble(src).unwrap();
        simulate(&p, cfg, 1_000_000)
    }

    /// A loop of dependent adds isolates dependency-edge latency (looped
    /// so the I-cache warms up and the branch trains).
    pub(crate) fn dependent_chain() -> String {
        let mut s = String::from(".text\nmain:\n  li r8, 1\n  li r20, 300\nloop:\n");
        for _ in 0..32 {
            s.push_str("  addu r8, r8, r8\n");
        }
        s.push_str("  addiu r20, r20, -1\n  bne r20, r0, loop\n  li r2, 0\n  syscall\n");
        s
    }

    /// Independent adds isolate issue bandwidth.
    pub(crate) fn independent_stream() -> String {
        let mut s = String::from(".text\nmain:\n  li r20, 300\nloop:\n");
        for i in 0..32 {
            let r = 8 + (i % 8);
            s.push_str(&format!("  addu r{r}, r0, r0\n"));
        }
        s.push_str("  addiu r20, r20, -1\n  bne r20, r0, loop\n  li r2, 0\n  syscall\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use crate::config::{MachineConfig, Optimizations};
    use crate::sim::simulate;

    #[test]
    fn ideal_runs_dependent_chain_at_ipc_1() {
        let stats = run_cfg(&dependent_chain(), &MachineConfig::ideal());
        let ipc = stats.ipc();
        assert!(ipc > 0.85 && ipc <= 1.1, "ideal chain IPC {ipc}");
    }

    #[test]
    fn all_configs_commit_every_instruction() {
        let src = r#"
            .text
            main:
                li r16, 0x10000000
                li r8, 50
            loop:
                sw r8, 0(r16)
                lw r9, 0(r16)
                mult r9, r8
                mflo r10
                sra r10, r10, 2
                bne r8, r0, cont
            cont:
                addiu r8, r8, -1
                bgtz r8, loop
                li r2, 0
                syscall
        "#;
        let configs = [
            MachineConfig::ideal(),
            MachineConfig::simple2(),
            MachineConfig::simple4(),
            MachineConfig::slice2_full(),
            MachineConfig::slice4_full(),
            MachineConfig::slice2(Optimizations::level(2)),
            MachineConfig::slice4(Optimizations::level(3)),
        ];
        let expect = run_cfg(src, &configs[0]).committed;
        assert!(expect > 300);
        for cfg in &configs {
            let s = run_cfg(src, cfg);
            assert_eq!(s.committed, expect, "{}", cfg.label());
            assert!(s.cycles > 0);
        }
    }

    #[test]
    fn extended_config_is_at_least_as_fast_on_kernels() {
        for name in ["gcc", "bzip"] {
            let p = popk_workloads::by_name(name).unwrap().program();
            let full = simulate(&p, &MachineConfig::slice2(Optimizations::all()), 40_000);
            let ext = simulate(
                &p,
                &MachineConfig::slice2(Optimizations::extended()),
                40_000,
            );
            assert_eq!(full.committed, ext.committed);
            assert!(
                ext.cycles <= full.cycles + full.cycles / 50,
                "{name}: extended {} vs full {}",
                ext.cycles,
                full.cycles
            );
        }
    }

    #[test]
    fn cumulative_levels_never_hurt_much_on_real_kernel() {
        let w = popk_workloads::by_name("parser").unwrap();
        let p = w.program();
        let mut prev = f64::MAX;
        for level in 0..=5 {
            let s = simulate(
                &p,
                &MachineConfig::slice2(Optimizations::level(level)),
                60_000,
            );
            let cycles = s.cycles as f64;
            assert!(
                cycles <= prev * 1.02,
                "level {level} slower than level {}: {cycles} vs {prev}",
                level - 1
            );
            prev = cycles.min(prev);
        }
    }

    #[test]
    fn sliced_full_approaches_ideal() {
        let w = popk_workloads::by_name("gcc").unwrap();
        let p = w.program();
        let ideal = simulate(&p, &MachineConfig::ideal(), 60_000);
        let full = simulate(&p, &MachineConfig::slice2_full(), 60_000);
        let simple = simulate(&p, &MachineConfig::simple2(), 60_000);
        assert!(simple.ipc() < ideal.ipc());
        assert!(full.ipc() > simple.ipc(), "techniques must help");
        let gap = (ideal.ipc() - full.ipc()) / ideal.ipc();
        assert!(gap < 0.15, "slice-2 full should be near ideal, gap {gap}");
    }
}
