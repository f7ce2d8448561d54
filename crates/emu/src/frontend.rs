//! The PISA [`Frontend`]: the functional emulator behind the
//! ISA-neutral micro-op boundary.
//!
//! [`PisaFrontend`] is an owning twin of [`crate::Tracer`] (identical
//! iteration semantics) that additionally provides a [`PisaChecker`] —
//! a second, independent [`Machine`] replaying the same program in
//! lockstep with the timing core's commit stream, exactly as the
//! commit-time oracle has always worked for PISA.

use crate::machine::{Machine, StepEvent};
use crate::trace::TraceRecord;
use popk_isa::{Insn, Program};
use popk_trace::{CommitChecker, EmuError, Frontend, LockstepMismatch};

/// A self-contained PISA trace producer: owns its [`Machine`], yields at
/// most `limit` retired records, stops at program exit, and surfaces a
/// machine fault as one final `Err`.
pub struct PisaFrontend {
    machine: Machine,
    program: Program,
    remaining: u64,
    done: bool,
}

impl PisaFrontend {
    /// A frontend executing `program` for up to `limit` instructions.
    pub fn new(program: &Program, limit: u64) -> PisaFrontend {
        PisaFrontend {
            machine: Machine::new(program),
            program: program.clone(),
            remaining: limit,
            done: false,
        }
    }
}

impl Iterator for PisaFrontend {
    type Item = Result<TraceRecord, EmuError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.machine.step_record() {
            Ok(StepEvent::Retired(rec)) => Some(Ok(rec)),
            Ok(StepEvent::Exited(_)) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

impl Frontend<Insn> for PisaFrontend {
    fn isa(&self) -> &'static str {
        "pisa"
    }

    fn checker(&self) -> Option<Box<dyn CommitChecker<Insn>>> {
        Some(Box::new(PisaChecker::new(&self.program)))
    }
}

/// An independent reference machine verifying a commit stream via
/// [`Machine::verify_step`].
pub struct PisaChecker {
    machine: Machine,
}

impl PisaChecker {
    /// A checker replaying `program` from its entry point.
    pub fn new(program: &Program) -> PisaChecker {
        PisaChecker {
            machine: Machine::new(program),
        }
    }
}

impl CommitChecker<Insn> for PisaChecker {
    fn verify(&mut self, claim: &TraceRecord) -> Result<(), LockstepMismatch> {
        self.machine.verify_step(claim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popk_isa::asm::assemble;

    const PROG: &str = r#"
        .text
        main:
            li r8, 3
            addu r9, r8, r8
            li r2, 0
            syscall
    "#;

    #[test]
    fn frontend_matches_tracer() {
        let p = assemble(PROG).unwrap();
        let fe: Vec<TraceRecord> = PisaFrontend::new(&p, 1_000).map(|r| r.unwrap()).collect();
        let mut m = Machine::new(&p);
        let tr: Vec<TraceRecord> = m.trace(1_000).map(|r| r.unwrap()).collect();
        assert_eq!(fe.len(), tr.len());
        for (a, b) in fe.iter().zip(&tr) {
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.insn, b.insn);
            assert_eq!(a.results, b.results);
            assert_eq!(a.next_pc, b.next_pc);
        }
    }

    #[test]
    fn checker_locksteps_and_flags_corruption() {
        let p = assemble(PROG).unwrap();
        let fe = PisaFrontend::new(&p, 1_000);
        let mut checker = fe.checker().expect("pisa always has a checker");
        let recs: Vec<TraceRecord> = fe.map(|r| r.unwrap()).collect();
        for rec in &recs {
            checker.verify(rec).unwrap();
        }
        let mut checker = PisaFrontend::new(&p, 1_000).checker().unwrap();
        let mut bad = recs[1];
        bad.results[0] ^= 1;
        checker.verify(&recs[0]).unwrap();
        let err = checker.verify(&bad).unwrap_err();
        assert_eq!(err.field, "dest0");
    }
}
