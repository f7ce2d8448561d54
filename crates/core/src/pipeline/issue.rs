//! The issue stage: the event-driven wakeup/select loop over window
//! entries (Fig. 7's RUU select), and the wakeup plumbing every other
//! stage uses to schedule re-examinations.
//!
//! Instead of rescanning the whole window each cycle, only entries with
//! a due calendar wakeup (see [`super::sched`]) are examined. An
//! examination runs exactly the per-entry logic of an exhaustive scan
//! and is side-effect-free unless the entry actually progresses, so
//! behaviour is bit-identical provided the schedule is *sound*: every
//! entry that would progress this cycle under a full rescan must be
//! among the candidates (each blocked examination records a wake no
//! later than its blocker can clear). Candidates are examined in
//! sequence-number — window (age) — order, so ALU-slot contention also
//! resolves identically.

use super::entry::{CycleSlot, Dep, ExecClass, MAX_SLICES};
use super::{emit, Simulator};
use crate::events::{TraceEvent, TraceSink};
use popk_trace::UopInsn;

/// Why a wakeup-driven examination could not make progress, and when
/// (or on what) to try again.
pub(crate) enum Block {
    /// Re-examine at this cycle (a known ready time, or next cycle for
    /// per-cycle resources).
    Until(u64),
    /// Park on the producer with this seq until it publishes a result
    /// slice.
    OnPublish(u64),
}

/// How [`Simulator::publish_all_slices`] marks the issue slots: not at
/// all (front-end-resolved jumps — no issue event), slot 0 only
/// (serialized ops and the atomic functional units), or every slice at
/// once (atomic-operand pipelines), matching each caller's original
/// event order.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum IssueMark {
    None,
    Slot0,
    AllSlices,
}

/// What a slice-issue examination changed, so the follow-on bookkeeping
/// (branch resolution, completion, rescheduling) runs only when it can
/// matter. `all` is whether every issue slot of the entry is now marked.
#[derive(Clone, Copy)]
pub(crate) enum Progress {
    /// A slice (or the whole operation) issued this examination.
    Issued { all: bool },
    /// Nothing issued (the entry was blocked, or already fully issued).
    NoChange { all: bool },
}

impl<I: UopInsn, S: TraceSink<I>> Simulator<S, I> {
    /// Per-cycle issue of slices (or whole atomic operations).
    pub(crate) fn issue(&mut self) {
        let mut int_used = [0usize; MAX_SLICES];
        let mut fp_used = 0usize;
        let cands = self.sched.due_candidates(self.cycle);
        for &seq in &cands {
            if let Some(idx) = self.index_of(seq) {
                self.examine(idx, &mut int_used, &mut fp_used);
            }
        }
        self.sched.recycle(cands);
    }

    /// Examine one window entry for issue progress — the body of the
    /// old per-entry rescan. On failure to progress, schedules a sound
    /// re-examination point (a future wake or a producer's waiter
    /// list).
    fn examine(&mut self, idx: usize, int_used: &mut [usize; MAX_SLICES], fp_used: &mut usize) {
        if self.window.completed_at(idx).is_set() {
            return;
        }
        let seq = self.window.seq(idx);
        let earliest_ex = self.window.earliest_ex(idx);
        let class = self.window.class(idx);
        if self.cycle < earliest_ex {
            self.wake_at(seq, earliest_ex);
            return;
        }
        match class {
            ExecClass::Front => {}
            ExecClass::Sys => {
                if idx == 0 && self.window.issued(idx, 0).is_unset() {
                    let done = self.cycle + 1;
                    self.publish_all_slices(idx, done, IssueMark::Slot0);
                    self.window.set_completed_at(idx, CycleSlot::at(done));
                    emit!(self, TraceEvent::Completed { seq, at: done });
                } else if self.window.issued(idx, 0).is_unset() {
                    // Not at the window head yet: poll until it is.
                    self.wake_at(seq, self.cycle + 1);
                }
            }
            ExecClass::MulDiv | ExecClass::FpAdd | ExecClass::FpLong => {
                self.examine_atomic_unit(idx, fp_used);
            }
            ExecClass::IntSliced => {
                let progress = if !self.effective_bypass() {
                    self.examine_unsliced(idx, int_used)
                } else {
                    self.examine_sliced(idx, int_used)
                };
                // Follow-on bookkeeping, gated on what the examination
                // can actually have changed (each skipped call is a
                // proven no-op — an unissued slice's ready slot is
                // unset, and only this entry's own issues move its
                // `ready` row between examinations).
                let is_store = self.window.is_store(idx);
                let control = self.window.is_control(idx);
                match progress {
                    Progress::Issued { all } => {
                        if control {
                            self.resolve_branch_if_possible(idx);
                        }
                        if is_store {
                            self.update_store_data(idx);
                        }
                        if all {
                            self.finish_if_done(idx);
                            self.reschedule_pending(idx);
                        } else {
                            // A slice issued: the next one (or an
                            // arbitration loser) is eligible next cycle.
                            self.wake_at(seq, self.cycle + 1);
                            if is_store {
                                self.reschedule_store_data(idx);
                            }
                        }
                    }
                    Progress::NoChange { all } => {
                        // Branch resolution reads only this entry's
                        // `ready` row, which is untouched since the
                        // previous examination — except under fault
                        // injection, where the corrupted operand is
                        // cycle-dependent.
                        if control && self.fault.is_some() {
                            self.resolve_branch_if_possible(idx);
                        }
                        if is_store {
                            self.update_store_data(idx);
                        }
                        if all {
                            self.finish_if_done(idx);
                        }
                        if is_store && self.window.completed_at(idx).is_unset() {
                            self.reschedule_store_data(idx);
                        }
                    }
                }
            }
        }
    }

    /// After an examination of a sliced entry, schedule whatever it is
    /// still waiting on that the issue paths themselves don't cover: the
    /// next slice after one issued this cycle, and a store's pending
    /// data operand.
    fn reschedule_pending(&mut self, idx: usize) {
        if self.window.completed_at(idx).is_set() {
            return;
        }
        let seq = self.window.seq(idx);
        // A slice issued this cycle: the next slice (or a slice that lost
        // ALU arbitration to it) becomes eligible next cycle.
        let issued_now =
            (0..self.nslices).any(|k| self.window.issued(idx, k).get() == Some(self.cycle));
        if issued_now {
            self.wake_at(seq, self.cycle + 1);
        }
        self.reschedule_store_data(idx);
    }

    /// Schedule a store's re-examination for its pending data operand.
    fn reschedule_store_data(&mut self, idx: usize) {
        if !self.window.is_store(idx) || self.window.store_data_ready(idx).is_set() {
            return;
        }
        let seq = self.window.seq(idx);
        match self.store_data_dep(idx) {
            Dep::InFlight(p) => match self.index_of(p) {
                Some(pi) => match self.window.result_ready_full(pi, self.nslices).get() {
                    Some(r) => {
                        let at = r.max(self.cycle + 1);
                        self.wake_at(seq, at);
                    }
                    None => self.wait_on(seq, p),
                },
                // Producer committed: the next examination resolves.
                None => self.wake_at(seq, self.cycle + 1),
            },
            // Register-file data reads by `earliest_ex`, which has
            // passed — `update_store_data` handles it this very
            // examination, so this arm is unreachable; poll if not.
            Dep::Ready => self.wake_at(seq, self.cycle + 1),
        }
    }

    /// Schedule an examination of `seq` at cycle `at` (clamped to the
    /// next issue opportunity — a wake for the past means "as soon as
    /// possible").
    #[inline]
    pub(crate) fn wake_at(&mut self, seq: u64, at: u64) {
        self.sched.schedule(self.cycle, seq, at);
    }

    /// Park `seq` on the waiter list of the in-window producer `pseq`:
    /// it re-enters the calendar when the producer publishes a result
    /// slice.
    pub(crate) fn wait_on(&mut self, seq: u64, pseq: u64) {
        match self.index_of(pseq) {
            Some(pi) => self.window.park_waiter(pi, seq),
            // Producer already committed — its value is ready; retry.
            None => self.wake_at(seq, self.cycle + 1),
        }
    }

    /// Wake everything parked on entry `idx`'s result at cycle `at`.
    pub(crate) fn wake_waiters(&mut self, idx: usize, at: u64) {
        if self.window.waiters_empty(idx) {
            return;
        }
        // Detach the list so the schedule pushes don't fight the window
        // borrow; hand the (cleared) allocation back for reuse.
        let ws = self.window.detach_waiters(idx);
        for &w in &ws {
            self.wake_at(w, at);
        }
        self.window.attach_waiters(idx, ws);
    }

    /// Shared tail of every all-slices-at-once scheduling path
    /// (serialized ops, the atomic functional units, atomic-operand
    /// pipelines, front-end-resolved jumps): mark the issue slots per
    /// `mark`, schedule every result slice at `done`, emit the matching
    /// events in each path's original order, and wake the waiters.
    pub(crate) fn publish_all_slices(&mut self, idx: usize, done: u64, mark: IssueMark) {
        let nslices = self.nslices;
        let seq = self.window.seq(idx);
        match mark {
            IssueMark::None => {}
            IssueMark::Slot0 => self.window.set_issued(idx, 0, self.cycle),
            IssueMark::AllSlices => {
                for k in 0..nslices {
                    self.window.set_issued(idx, k, self.cycle);
                }
            }
        }
        for k in 0..nslices {
            self.window.set_ready(idx, k, CycleSlot::at(done));
        }
        if S::ENABLED {
            if mark == IssueMark::Slot0 {
                emit!(self, TraceEvent::SliceIssued { seq, slice: 0 });
            }
            for k in 0..nslices {
                if mark == IssueMark::AllSlices {
                    emit!(
                        self,
                        TraceEvent::SliceIssued {
                            seq,
                            slice: k as u8
                        }
                    );
                }
                emit!(
                    self,
                    TraceEvent::SliceReady {
                        seq,
                        slice: k as u8,
                        at: done
                    }
                );
            }
        }
        self.wake_waiters(idx, done);
    }

    /// Record why not every source slice of `window[idx]` is ready: the
    /// first busy source slice yields either a known future cycle or a
    /// producer to wait on.
    pub(crate) fn block_on_sources(&mut self, idx: usize) {
        let seq = self.window.seq(idx);
        for k in 0..self.nslices {
            if let Some(b) = self.source_block(idx, k) {
                self.apply_block(seq, b);
                return;
            }
        }
        // Sources ready after all (caller raced a same-cycle state
        // change): just retry.
        self.wake_at(seq, self.cycle + 1);
    }

    /// Why slice `k` of some source of `window[idx]` is unavailable this
    /// cycle, if it is.
    pub(crate) fn source_block(&self, idx: usize, k: usize) -> Option<Block> {
        for d in 0..self.window.ndeps(idx) {
            if let Dep::InFlight(pseq) = self.window.dep(idx, d) {
                if let Some(pi) = self.window.index_of(pseq) {
                    let r = self.window.result_ready(pi, k);
                    if r.is_unset() {
                        return Some(Block::OnPublish(pseq));
                    }
                    if !r.done_by(self.cycle) {
                        return Some(Block::Until(r.value()));
                    }
                }
                // Producer committed → ready.
            }
        }
        None
    }

    pub(crate) fn apply_block(&mut self, seq: u64, b: Block) {
        match b {
            Block::Until(t) => self.wake_at(seq, t.max(self.cycle + 1)),
            Block::OnPublish(p) => self.wait_on(seq, p),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::MachineConfig;
    use crate::pipeline::testutil::{dependent_chain, independent_stream, run_cfg};

    #[test]
    fn independent_work_saturates_width() {
        let stats = run_cfg(&independent_stream(), &MachineConfig::ideal());
        assert!(stats.ipc() > 2.0, "independent stream IPC {}", stats.ipc());
    }

    #[test]
    fn simple_pipelining_halves_chain_throughput() {
        let s2 = run_cfg(&dependent_chain(), &MachineConfig::simple2());
        let ideal = run_cfg(&dependent_chain(), &MachineConfig::ideal());
        let ratio = s2.ipc() / ideal.ipc();
        assert!(
            (0.4..0.65).contains(&ratio),
            "simple-2 should run the chain at about half speed, ratio {ratio}"
        );
        let s4 = run_cfg(&dependent_chain(), &MachineConfig::simple4());
        let ratio4 = s4.ipc() / ideal.ipc();
        assert!(
            (0.2..0.4).contains(&ratio4),
            "simple-4 should run the chain at about quarter speed, ratio {ratio4}"
        );
    }
}
