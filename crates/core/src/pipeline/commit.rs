//! The commit stage: in-order retirement from the window head
//! (Fig. 7's RUU retire port), store writeback to the cache, rename
//! cleanup — and the wrong-path squash that recovery after a resolved
//! misprediction performs under `model_wrong_path`.

use super::{emit, Simulator};
use crate::events::{TraceEvent, TraceSink};
use popk_trace::UopInsn;

impl<I: UopInsn, S: TraceSink<I>> Simulator<S, I> {
    /// Retire up to `width` completed instructions from the window head.
    pub(crate) fn commit(&mut self) {
        for _ in 0..self.cfg.width {
            if self.window.is_empty() {
                return;
            }
            if self.window.phantom(0) {
                // Wrong-path work never retires; it waits for the squash.
                return;
            }
            if !self.window.completed_at(0).done_by(self.cycle) {
                return;
            }
            let seq = self.window.seq(0);
            let is_load = self.window.is_load(0);
            let is_store = self.window.is_store(0);
            let is_mem = self.window.is_mem(0);
            let ea = self.window.rec(0).ea;
            let defs = self.window.rec(0).insn.dst_regs();
            // A completed producer has published every result slice, and
            // publishing drains the waiter list.
            debug_assert!(self.window.waiters_empty(0));
            // The architectural claim this retirement makes. A fault plan
            // may corrupt it (modeling in-flight state corruption); the
            // oracle then re-executes it on the reference machine and
            // aborts the run on any divergence. (The full record is only
            // copied out on these slow paths.)
            let claim =
                (self.oracle.is_some() || self.fault.is_some()).then(|| *self.window.rec(0));
            self.window.pop_front();
            if let Some(mut claim) = claim {
                if let Some(f) = self.fault.as_mut() {
                    f.corrupt_commit(seq, self.cycle, &mut claim);
                }
                if let Some(o) = self.oracle.as_mut() {
                    if let Err(e) = o.check(seq, &claim) {
                        self.error = Some(e);
                        return;
                    }
                }
            }

            emit!(self, TraceEvent::Committed { seq });
            self.stats.committed += 1;
            self.last_commit_cycle = self.cycle;
            if is_mem {
                self.lsq_occupancy -= 1;
            }
            #[cfg(debug_assertions)]
            debug_assert!(!is_load || !self.sched.load_is_pending(seq));
            if is_load {
                self.stats.loads += 1;
            } else if is_store {
                self.sched.commit_store(seq);
                self.stats.stores += 1;
                // The store writes the cache at retirement.
                self.stats.l1d_accesses += 1;
                if self.memory.access_data(ea).l1_hit {
                    self.stats.l1d_hits += 1;
                }
            }
            // Clear producer entries that still point at this instruction.
            for r in defs.iter() {
                self.rename.clear_if(r, seq);
            }
        }
    }

    /// Drop every wrong-path phantom younger than the resolved branch and
    /// rewind the sequence counter (phantoms define no registers, so no
    /// producer cleanup is needed).
    pub(crate) fn squash_wrong_path(&mut self, branch_seq: u64) {
        loop {
            let n = self.window.len();
            if n == 0 {
                break;
            }
            let tail = n - 1;
            let seq = self.window.seq(tail);
            if !(self.window.phantom(tail) && seq > branch_seq) {
                break;
            }
            self.window.pop_back();
            emit!(self, TraceEvent::Squashed { seq });
        }
        self.feed.drop_phantoms();
        let after_tail = match self.window.len() {
            0 => self.next_seq,
            n => self.window.seq(n - 1) + 1,
        };
        self.next_seq = after_tail.max(branch_seq + 1).min(self.next_seq);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::MachineConfig;
    use crate::events::TraceEvent;
    use crate::pipeline::testutil::run_cfg;
    use crate::sim::Simulator;
    use crate::VecTrace;
    use popk_isa::asm::assemble;

    /// A branchy kernel whose mispredictions force squashes under
    /// wrong-path modeling.
    const STORM: &str = r#"
        .text
        main:
            li r8, 300
        loop:
            andi r9, r8, 1
            beq r9, r0, even
            nop
        even:
            addiu r8, r8, -1
            bne r8, r0, loop
            li r2, 0
            syscall
    "#;

    #[test]
    fn squash_drops_phantoms_and_preserves_commits() {
        // Recovery at the new module boundary: every squashed entry is a
        // phantom, every real instruction still commits exactly once, and
        // no squashed seq ever commits.
        let p = assemble(STORM).unwrap();
        let mut cfg = MachineConfig::slice2_full();
        cfg.model_wrong_path = true;
        let mut sim = Simulator::with_sink(&cfg, VecTrace::new());
        let stats = sim.run(&p, 1_000_000);
        let committed = stats.committed;
        let trace = sim.into_sink();
        // Squash rewinds the sequence counter, so real instructions reuse
        // squashed seqs: a seq squashed *after* its commit would be a bug,
        // the other order is the designed reuse.
        let mut committed_seqs = std::collections::HashSet::new();
        let mut squash_events = 0u64;
        let mut commit_events = 0u64;
        for (_, ev) in &trace.events {
            match ev {
                TraceEvent::Squashed { seq } => {
                    squash_events += 1;
                    assert!(
                        !committed_seqs.contains(seq),
                        "seq {seq} committed then squashed"
                    );
                }
                TraceEvent::Committed { seq } => {
                    commit_events += 1;
                    assert!(committed_seqs.insert(*seq), "seq {seq} committed twice");
                }
                _ => {}
            }
        }
        assert!(squash_events > 0, "the storm must squash phantoms");
        assert_eq!(commit_events, committed);

        // And the squash machinery is invisible to architectural progress.
        let base = MachineConfig::slice2_full();
        assert_eq!(committed, run_cfg(STORM, &base).committed);
    }
}
