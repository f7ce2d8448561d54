//! The cycle-level trace-driven pipeline model.
//!
//! # Model overview
//!
//! The simulator replays a dynamic trace (oracle operand values, the
//! standard SimpleScalar practice) through a structural model of the
//! Fig. 10 pipelines:
//!
//! * **Fetch** pulls up to `width` instructions per cycle from the trace,
//!   probing the L1 I-cache per line and consulting the front-end
//!   predictor for every control instruction. Fetch past a mispredicted
//!   branch stalls until that branch *resolves* (wrong-path instructions
//!   are not simulated; their cost is the refill bubble, see DESIGN.md).
//! * **Dispatch** enters instructions into the RUU window (and LSQ for
//!   memory ops) `dispatch_depth` cycles after fetch; the earliest issue
//!   is `front_depth` cycles after fetch (Fetch1 … RF2 of Fig. 10).
//! * **Issue** wakes *slices*: each operand is decomposed per
//!   [`SliceWidth`](popk_slice::SliceWidth), and slice `k` of an
//!   instruction issues when its source slices are available and its
//!   class's inter-slice dependences (Fig. 8) are met — a carry edge for
//!   arithmetic, none for logic, full-width for shifts. Without
//!   `partial_bypass` the machine degrades to naive EX pipelining: one
//!   issue event, result atomic after `slice_count` cycles.
//! * **Memory**: loads wait on older-store disambiguation (bit-serial
//!   with `early_disambig`), access the hierarchy (optionally with a
//!   partial-tag index + MRU way prediction under `partial_tag`), and
//!   replay on way mispredicts. Stores write at commit.
//! * **Commit** retires up to `width` completed instructions in order.
//!
//! Each stage lives in its own module under the (private) `pipeline`
//! directory; the
//! three paper techniques are pluggable policies in [`crate::policies`],
//! selected by the [`MachineConfig`]. This module keeps the public
//! entry points — [`simulate`], [`Simulator::new`], [`Simulator::run`],
//! [`Simulator::run_timeline`] — at their historical paths.
//!
//! # The ISA-neutral boundary
//!
//! The run loop itself is ISA-agnostic: [`Simulator::try_run_frontend`]
//! drives the pipeline from any [`popk_trace::Frontend`] (an iterator of
//! [`popk_trace::Uop`] records plus an optional commit-lockstep
//! checker). The PISA-specific entry points ([`simulate`],
//! [`Simulator::run`], …) wrap it with a
//! [`PisaFrontend`] built from the program.

use crate::config::MachineConfig;
use crate::error::SimError;
use crate::events::{NullTrace, TraceSink};
use crate::stats::SimStats;
use crate::timeline::{InsnTiming, TimelineBuilder};
use popk_emu::PisaFrontend;
use popk_isa::{Insn, Program};
use popk_trace::{Frontend, UopInsn};

pub use crate::pipeline::{Scratch, Simulator};

std::thread_local! {
    /// Per-thread scratch arena reused by [`simulate`]/[`try_simulate`]
    /// across runs (sweeps run thousands of short simulations; the
    /// window columns and scheduler buffers dominate their setup cost).
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::new());
}

/// Run `program` under `cfg` for up to `limit` dynamic instructions and
/// return the statistics.
///
/// # Panics
/// Panics on any [`SimError`] (invalid configuration, emulation fault,
/// watchdog deadlock, oracle divergence); use [`try_simulate`] for a
/// typed result.
pub fn simulate(program: &Program, cfg: &MachineConfig, limit: u64) -> SimStats {
    match try_simulate(program, cfg, limit) {
        Ok(stats) => stats,
        Err(e) => panic!("simulation failed: {e}"),
    }
}

/// Fallible variant of [`simulate`]: validates `cfg`, then runs,
/// surfacing every failure mode as a structured [`SimError`].
///
/// Reuses a per-thread [`Scratch`] arena, returning its buffers when
/// the run finishes, however it ends.
pub fn try_simulate(
    program: &Program,
    cfg: &MachineConfig,
    limit: u64,
) -> Result<SimStats, SimError> {
    cfg.validate()?;
    SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => {
            let mut sim = Simulator::with_sink_in(cfg, NullTrace, &mut scratch);
            let result = sim.try_run(program, limit);
            sim.reclaim(&mut scratch);
            result
        }
        // Re-entrant call (a sink callback simulating): run unpooled.
        Err(_) => Simulator::new(cfg).try_run(program, limit),
    })
}

/// Run an arbitrary [`Frontend`] under `cfg` through the ISA-neutral
/// boundary (the non-PISA analogue of [`try_simulate`]). The frontend
/// carries its own instruction budget.
pub fn try_simulate_frontend<I, F>(cfg: &MachineConfig, frontend: F) -> Result<SimStats, SimError>
where
    I: UopInsn,
    F: Frontend<I>,
{
    cfg.validate()?;
    Simulator::with_sink(cfg, NullTrace).try_run_frontend(frontend)
}

impl Simulator {
    /// Build an untraced simulator for one run.
    pub fn new(cfg: &MachineConfig) -> Simulator {
        Simulator::with_sink(cfg, NullTrace)
    }

    /// Like [`Simulator::run`], additionally recording an [`InsnTiming`]
    /// pipetrace for the first `max_records` committed instructions.
    ///
    /// Runs a fresh simulator with this one's configuration, with a
    /// [`TimelineBuilder`] sink folding the event stream back into
    /// per-instruction records.
    pub fn run_timeline(
        &mut self,
        program: &Program,
        limit: u64,
        max_records: usize,
    ) -> (SimStats, Vec<InsnTiming>) {
        let mut sim = Simulator::with_sink(&self.cfg, TimelineBuilder::new(max_records));
        let stats = sim.run(program, limit);
        (stats, sim.into_sink().finish())
    }
}

impl<S: TraceSink<Insn>> Simulator<S, Insn> {
    /// Execute the run loop over `program` on the native PISA frontend.
    ///
    /// # Panics
    /// Panics on any [`SimError`]; use [`Simulator::try_run`] for a
    /// typed result.
    pub fn run(&mut self, program: &Program, limit: u64) -> SimStats {
        match self.try_run(program, limit) {
            Ok(stats) => stats,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    /// Fallible run loop over the native PISA frontend (see
    /// [`Simulator::try_run_frontend`] for the failure modes).
    pub fn try_run(&mut self, program: &Program, limit: u64) -> Result<SimStats, SimError> {
        self.try_run_frontend(PisaFrontend::new(program, limit))
    }
}

impl<I: UopInsn, S: TraceSink<I>> Simulator<S, I> {
    /// Execute the run loop from any [`Frontend`]: one call per pipeline
    /// stage per cycle, in commit-to-fetch order so a value produced
    /// this cycle is consumed no earlier than the next.
    ///
    /// Surfaces three runtime failure modes as structured errors:
    ///
    /// * a functional-machine fault while producing the trace
    ///   ([`SimError::Emulation`]);
    /// * no retirement for `cfg.watchdog` consecutive cycles
    ///   ([`SimError::Deadlock`], with a snapshot of the stuck window);
    /// * with `cfg.oracle` set, a commit-time lockstep divergence
    ///   ([`SimError::OracleDivergence`]) — every retirement is
    ///   re-verified against the frontend's independent checker.
    pub fn try_run_frontend<F>(&mut self, frontend: F) -> Result<SimStats, SimError>
    where
        F: Frontend<I>,
    {
        if self.cfg.oracle {
            self.oracle = frontend.checker().map(crate::oracle::Oracle::from_checker);
        }
        let mut trace = frontend.peekable();
        let mut drained = false;

        while !drained || !self.window.is_empty() || !self.feed.is_empty() {
            self.commit();
            if let Some(e) = self.error.take() {
                return Err(e);
            }
            self.issue();
            self.memory_stage();
            self.dispatch();
            if !drained {
                drained = self.fetch(&mut trace)?;
            }
            self.cycle += 1;
            // Watchdog: a machine that stops retiring is stuck (the
            // worst legitimate stall is orders of magnitude shorter).
            if self.cycle - self.last_commit_cycle > self.cfg.watchdog {
                return Err(SimError::Deadlock(self.deadlock_snapshot()));
            }
            // Cooperative cancellation: polled sparsely so the common
            // (no-flag or flag-unset) case costs one predictable branch.
            if self.cycle & 1023 == 0 {
                if let Some(c) = &self.cancel {
                    if c.load(std::sync::atomic::Ordering::Relaxed) {
                        return Err(SimError::Canceled);
                    }
                }
            }
        }
        self.stats.cycles = self.cycle;
        Ok(self.stats)
    }
}
