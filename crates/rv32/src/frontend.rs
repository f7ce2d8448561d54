//! The RV32I [`Frontend`]: functional emulation behind the ISA-neutral
//! micro-op boundary, with a lockstep checker for differential replay.
//!
//! Structurally identical to the PISA frontend in `popk-emu`: the
//! iterator yields at most `limit` retired [`Uop`]s, stops at program
//! exit, surfaces a machine fault as one final `Err`, and
//! [`checker`](Frontend::checker) hands the timing core a second,
//! independent [`Rv32Machine`] to verify every commit claim against.

use crate::insn::Rv32Insn;
use crate::machine::{Rv32Machine, Rv32Program, Rv32Step};
use popk_trace::{CommitChecker, EmuError, Frontend, LockstepMismatch, Uop};

/// A self-contained RV32I trace producer.
pub struct Rv32Frontend {
    machine: Rv32Machine,
    program: Rv32Program,
    remaining: u64,
    done: bool,
}

impl Rv32Frontend {
    /// A frontend executing `program` for up to `limit` instructions.
    pub fn new(program: &Rv32Program, limit: u64) -> Rv32Frontend {
        Rv32Frontend {
            machine: Rv32Machine::new(program),
            program: program.clone(),
            remaining: limit,
            done: false,
        }
    }
}

impl Iterator for Rv32Frontend {
    type Item = Result<Uop<Rv32Insn>, EmuError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.machine.step_record() {
            Ok(Rv32Step::Retired(rec)) => Some(Ok(rec)),
            Ok(Rv32Step::Exited(_)) => {
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

impl Frontend<Rv32Insn> for Rv32Frontend {
    fn isa(&self) -> &'static str {
        "rv32"
    }

    fn checker(&self) -> Option<Box<dyn CommitChecker<Rv32Insn>>> {
        Some(Box::new(Rv32Checker::new(&self.program)))
    }
}

/// An independent reference machine verifying a commit stream via
/// [`Rv32Machine::verify_step`].
pub struct Rv32Checker {
    machine: Rv32Machine,
}

impl Rv32Checker {
    /// A checker replaying `program` from its entry point.
    pub fn new(program: &Rv32Program) -> Rv32Checker {
        Rv32Checker {
            machine: Rv32Machine::new(program),
        }
    }
}

impl CommitChecker<Rv32Insn> for Rv32Checker {
    fn verify(&mut self, claim: &Uop<Rv32Insn>) -> Result<(), LockstepMismatch> {
        self.machine.verify_step(claim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;
    use crate::machine::SYS_EXIT;

    fn prog() -> Rv32Program {
        let mut words = vec![
            asm::addi(10, 0, 5),
            asm::addi(11, 0, 7),
            asm::add(10, 10, 11),
            asm::lui(5, 0x20),
            asm::sw(5, 10, 0),
            asm::lw(12, 5, 0),
        ];
        words.extend(asm::li(17, SYS_EXIT as i32));
        words.push(asm::ecall());
        Rv32Program::new(words)
    }

    #[test]
    fn frontend_ends_at_exit_and_respects_limit() {
        let recs: Vec<_> = Rv32Frontend::new(&prog(), 1_000)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(recs.len(), 7, "ecall itself does not retire");
        assert_eq!(Rv32Frontend::new(&prog(), 3).count(), 3);
    }

    #[test]
    fn checker_locksteps_and_flags_corruption() {
        let p = prog();
        let fe = Rv32Frontend::new(&p, 1_000);
        assert_eq!(fe.isa(), "rv32");
        let mut checker = fe.checker().expect("rv32 always has a checker");
        let recs: Vec<_> = fe.map(|r| r.unwrap()).collect();
        for rec in &recs {
            checker.verify(rec).unwrap();
        }
        let mut checker = Rv32Frontend::new(&p, 1_000).checker().unwrap();
        let mut bad = recs[0];
        bad.results[0] ^= 1;
        assert_eq!(checker.verify(&bad).unwrap_err().field, "dest0");
    }

    #[test]
    fn faults_surface_as_one_final_err() {
        let p = Rv32Program::new(vec![asm::addi(10, 0, 1), asm::ebreak()]);
        let mut fe = Rv32Frontend::new(&p, 1_000);
        assert!(fe.next().unwrap().is_ok());
        assert!(matches!(fe.next(), Some(Err(EmuError::Break { .. }))));
        assert!(fe.next().is_none());
    }
}
