//! A counting `TraceSink`: per-stage work counts of one simulation,
//! taken through the public `Simulator::with_sink`.

use popk_core::{StallReason, TraceEvent, TraceSink};

/// Per-stage event counts. Exact: two runs of one row must agree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounts {
    pub dispatch_uops: u64,
    pub issue_slices: u64,
    pub memory_accesses: u64,
    pub memory_replays: u64,
    pub branch_resolves: u64,
    pub early_resolves: u64,
    pub stall_redirect: u64,
    pub stall_ruu_full: u64,
    pub stall_lsq_full: u64,
    pub commit_uops: u64,
}

impl StageCounts {
    /// The counts under their metric names.
    pub fn named(&self) -> [(&'static str, u64); 10] {
        [
            ("core.dispatch.uops", self.dispatch_uops),
            ("core.issue.slices", self.issue_slices),
            ("core.memory.accesses", self.memory_accesses),
            ("core.memory.replays", self.memory_replays),
            ("core.execute.branch_resolves", self.branch_resolves),
            ("core.execute.early_resolves", self.early_resolves),
            ("core.stall.redirect", self.stall_redirect),
            ("core.stall.ruu_full", self.stall_ruu_full),
            ("core.stall.lsq_full", self.stall_lsq_full),
            ("core.commit.uops", self.commit_uops),
        ]
    }
}

impl<I> TraceSink<I> for StageCounts {
    fn event(&mut self, _cycle: u64, ev: &TraceEvent<I>) {
        match ev {
            TraceEvent::Dispatched { .. } => self.dispatch_uops += 1,
            TraceEvent::SliceIssued { .. } => self.issue_slices += 1,
            TraceEvent::MemStarted { .. } => self.memory_accesses += 1,
            TraceEvent::Replay { .. } => self.memory_replays += 1,
            TraceEvent::BranchResolved { early, .. } => {
                self.branch_resolves += 1;
                self.early_resolves += u64::from(*early);
            }
            TraceEvent::Stall(StallReason::FetchRedirect) => self.stall_redirect += 1,
            TraceEvent::Stall(StallReason::RuuFull) => self.stall_ruu_full += 1,
            TraceEvent::Stall(StallReason::LsqFull) => self.stall_lsq_full += 1,
            TraceEvent::Committed { .. } => self.commit_uops += 1,
            _ => {}
        }
    }
}
