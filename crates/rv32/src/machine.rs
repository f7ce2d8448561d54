//! The RV32I functional machine: reference executor, trace producer and
//! lockstep verifier.
//!
//! [`Rv32Machine`] mirrors the PISA emulator's contract exactly — one
//! [`step_record`](Rv32Machine::step_record) per retired instruction
//! producing a [`Uop`], program exit via the Linux-style `exit` ecall
//! (a7 = 93), and a [`verify_step`](Rv32Machine::verify_step) that
//! replays an independent copy against a timing core's commit claims
//! field by field.
//!
//! Memory is a sparse word-granular map, so workloads address heap and
//! stack freely without a sized backing store; unwritten words read 0.

use crate::insn::Rv32UopExt;
use crate::insn::{decode, Rv32Insn, Rv32Op};
use popk_trace::{EmuError, LockstepMismatch, Uop, UopInsn};
use std::collections::HashMap;

/// Where workload text is loaded (and the reset PC).
pub const TEXT_BASE: u32 = 0x0001_0000;

/// Initial stack pointer (x2), 16-byte aligned.
pub const STACK_TOP: u32 = 0x7fff_fff0;

/// The Linux-style `exit` service number checked on `ecall` (a7).
pub const SYS_EXIT: u32 = 93;

/// An RV32I program image: a flat word array at [`Rv32Program::base`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rv32Program {
    /// Load address of `words[0]` (also the entry point).
    pub base: u32,
    /// The instruction words, contiguous from `base`.
    pub words: Vec<u32>,
}

impl Rv32Program {
    /// A program loaded at [`TEXT_BASE`].
    pub fn new(words: Vec<u32>) -> Rv32Program {
        Rv32Program {
            base: TEXT_BASE,
            words,
        }
    }

    /// The entry PC.
    pub fn entry(&self) -> u32 {
        self.base
    }

    /// The instruction word at `pc`, if inside the text image.
    pub fn fetch(&self, pc: u32) -> Option<u32> {
        let off = pc.wrapping_sub(self.base);
        if !off.is_multiple_of(4) {
            return None;
        }
        self.words.get((off / 4) as usize).copied()
    }
}

/// Outcome of one [`Rv32Machine::step_record`].
#[derive(Clone, Copy, Debug)]
pub enum Rv32Step {
    /// One instruction retired.
    Retired(Uop<Rv32Insn>),
    /// The program has exited with this code (sticky).
    Exited(u32),
}

/// The RV32I functional reference machine.
pub struct Rv32Machine {
    regs: [u32; 32],
    pc: u32,
    program: Rv32Program,
    /// Sparse memory, keyed by word address (`addr >> 2`).
    mem: HashMap<u32, u32>,
    exited: Option<u32>,
    /// Instructions retired so far.
    icount: u64,
}

impl Rv32Machine {
    /// A machine reset at `program`'s entry, sp = [`STACK_TOP`].
    pub fn new(program: &Rv32Program) -> Rv32Machine {
        let mut regs = [0u32; 32];
        regs[2] = STACK_TOP;
        Rv32Machine {
            regs,
            pc: program.entry(),
            program: program.clone(),
            mem: HashMap::new(),
            exited: None,
            icount: 0,
        }
    }

    /// Instructions retired so far.
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// Current architectural value of register `r` (x0 reads 0).
    pub fn reg(&self, r: u8) -> u32 {
        self.regs[r as usize & 31]
    }

    /// Current PC.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The exit code, once the program has exited.
    pub fn exit_code(&self) -> Option<u32> {
        self.exited
    }

    fn load_word(&self, addr: u32) -> u32 {
        self.mem.get(&(addr >> 2)).copied().unwrap_or(0)
    }

    fn store_word(&mut self, addr: u32, val: u32) {
        self.mem.insert(addr >> 2, val);
    }

    fn load(&self, addr: u32, bytes: u8) -> u32 {
        let word = self.load_word(addr);
        let shift = (addr & 3) * 8;
        match bytes {
            1 => (word >> shift) & 0xff,
            2 => (word >> shift) & 0xffff,
            _ => word,
        }
    }

    fn store(&mut self, addr: u32, bytes: u8, val: u32) {
        let shift = (addr & 3) * 8;
        let word = self.load_word(addr);
        let new = match bytes {
            1 => (word & !(0xff << shift)) | ((val & 0xff) << shift),
            2 => (word & !(0xffff << shift)) | ((val & 0xffff) << shift),
            _ => val,
        };
        self.store_word(addr, new);
    }

    /// Execute one instruction, producing its [`Uop`].
    pub fn step_record(&mut self) -> Result<Rv32Step, EmuError> {
        if let Some(code) = self.exited {
            return Ok(Rv32Step::Exited(code));
        }
        let pc = self.pc;
        if !pc.is_multiple_of(4) {
            return Err(EmuError::Misaligned { pc, addr: pc });
        }
        let raw = self.program.fetch(pc).ok_or(EmuError::UnmappedPc { pc })?;
        let insn = decode(raw).ok_or(EmuError::Illegal { pc, raw })?;

        let mut src_vals = [0u32; 2];
        for (i, r) in insn.src_regs().iter().enumerate() {
            src_vals[i] = self.reg(r);
        }

        let rs1 = self.reg(insn.rs1);
        let rs2 = self.reg(insn.rs2);
        let imm = insn.imm as u32;
        let mut ea = 0u32;
        let mut taken = false;
        let mut next_pc = pc.wrapping_add(4);
        let mut rd_val = 0u32;

        use Rv32Op::*;
        match insn.op {
            Lui => rd_val = imm,
            Auipc => rd_val = pc.wrapping_add(imm),
            Jal => {
                rd_val = pc.wrapping_add(4);
                next_pc = pc.wrapping_add(imm);
                taken = true;
            }
            Jalr => {
                rd_val = pc.wrapping_add(4);
                next_pc = rs1.wrapping_add(imm) & !1;
                taken = true;
            }
            Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                taken = match insn.op {
                    Beq => rs1 == rs2,
                    Bne => rs1 != rs2,
                    Blt => (rs1 as i32) < (rs2 as i32),
                    Bge => (rs1 as i32) >= (rs2 as i32),
                    Bltu => rs1 < rs2,
                    _ => rs1 >= rs2,
                };
                if taken {
                    next_pc = pc.wrapping_add(imm);
                }
            }
            Lb | Lh | Lw | Lbu | Lhu => {
                ea = rs1.wrapping_add(imm);
                let bytes = insn.op.mem_bytes();
                if !ea.is_multiple_of(bytes as u32) {
                    return Err(EmuError::Misaligned { pc, addr: ea });
                }
                let v = self.load(ea, bytes);
                rd_val = match insn.op {
                    Lb => v as u8 as i8 as i32 as u32,
                    Lh => v as u16 as i16 as i32 as u32,
                    _ => v,
                };
            }
            Sb | Sh | Sw => {
                ea = rs1.wrapping_add(imm);
                let bytes = insn.op.mem_bytes();
                if !ea.is_multiple_of(bytes as u32) {
                    return Err(EmuError::Misaligned { pc, addr: ea });
                }
                self.store(ea, bytes, rs2);
            }
            Addi => rd_val = rs1.wrapping_add(imm),
            Slti => rd_val = ((rs1 as i32) < insn.imm) as u32,
            Sltiu => rd_val = (rs1 < imm) as u32,
            Xori => rd_val = rs1 ^ imm,
            Ori => rd_val = rs1 | imm,
            Andi => rd_val = rs1 & imm,
            Slli => rd_val = rs1 << (imm & 31),
            Srli => rd_val = rs1 >> (imm & 31),
            Srai => rd_val = ((rs1 as i32) >> (imm & 31)) as u32,
            Add => rd_val = rs1.wrapping_add(rs2),
            Sub => rd_val = rs1.wrapping_sub(rs2),
            Sll => rd_val = rs1 << (rs2 & 31),
            Slt => rd_val = ((rs1 as i32) < (rs2 as i32)) as u32,
            Sltu => rd_val = (rs1 < rs2) as u32,
            Xor => rd_val = rs1 ^ rs2,
            Srl => rd_val = rs1 >> (rs2 & 31),
            Sra => rd_val = ((rs1 as i32) >> (rs2 & 31)) as u32,
            Or => rd_val = rs1 | rs2,
            And => rd_val = rs1 & rs2,
            Fence => {}
            Ecall => {
                let service = self.reg(17);
                if service != SYS_EXIT {
                    return Err(EmuError::BadSyscall { pc, service });
                }
                let code = self.reg(10);
                self.exited = Some(code);
                return Ok(Rv32Step::Exited(code));
            }
            Ebreak => return Err(EmuError::Break { pc }),
        }

        let mut results = [0u32; 2];
        if !insn.dst_regs().is_empty() {
            self.regs[insn.rd as usize] = rd_val;
            results[0] = rd_val;
        }
        self.pc = next_pc;
        self.icount += 1;
        Ok(Rv32Step::Retired(Uop {
            pc,
            insn,
            src_vals,
            results,
            ea,
            taken,
            next_pc,
        }))
    }

    /// Verify one retirement claim against this machine, advancing it by
    /// one instruction — the RV32 half of differential replay, mirroring
    /// the PISA emulator's `verify_step` field for field.
    pub fn verify_step(&mut self, claim: &Uop<Rv32Insn>) -> Result<(), LockstepMismatch> {
        let mm = |field, expected, got| {
            Err(LockstepMismatch {
                pc: claim.pc,
                field,
                expected,
                got,
            })
        };
        let rec = match self.step_record() {
            Ok(Rv32Step::Retired(r)) => r,
            Ok(Rv32Step::Exited(code)) => return mm("exited", code, claim.pc),
            Err(e) => return mm("emulation", e.pc(), claim.pc),
        };
        if rec.pc != claim.pc {
            return mm("pc", rec.pc, claim.pc);
        }
        if rec.insn != claim.insn {
            return mm("insn", rec.insn.raw, claim.insn.raw);
        }
        if !rec.insn.dst_regs().is_empty() && rec.results[0] != claim.results[0] {
            return mm("dest0", rec.results[0], claim.results[0]);
        }
        if rec.is_mem() && rec.ea != claim.ea {
            return mm("ea", rec.ea, claim.ea);
        }
        if rec.insn.meta().is_store {
            let data = rec.src_val(rec.insn.rs2);
            if data != claim.src_val(claim.insn.rs2) {
                return mm(
                    "store_data",
                    data.unwrap_or(0),
                    claim.src_val(claim.insn.rs2).unwrap_or(0),
                );
            }
        }
        if rec.insn.meta().ctrl.is_some() {
            if rec.taken != claim.taken {
                return mm("taken", rec.taken as u32, claim.taken as u32);
            }
            if rec.next_pc != claim.next_pc {
                return mm("next_pc", rec.next_pc, claim.next_pc);
            }
        }
        Ok(())
    }

    /// Run to exit (or `limit` instructions), returning the exit code if
    /// the program finished.
    pub fn run(&mut self, limit: u64) -> Result<Option<u32>, EmuError> {
        for _ in 0..limit {
            match self.step_record()? {
                Rv32Step::Retired(_) => {}
                Rv32Step::Exited(code) => return Ok(Some(code)),
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;

    fn run_words(words: Vec<u32>, limit: u64) -> (Rv32Machine, Option<u32>) {
        let p = Rv32Program::new(words);
        let mut m = Rv32Machine::new(&p);
        let code = m.run(limit).expect("no fault");
        (m, code)
    }

    fn exit_with_a0() -> Vec<u32> {
        vec![asm::addi(17, 0, SYS_EXIT as i32), asm::ecall()]
    }

    #[test]
    fn arithmetic_and_exit() {
        let mut words = vec![
            asm::addi(10, 0, 40),
            asm::addi(11, 0, 2),
            asm::add(10, 10, 11),
        ];
        words.extend(exit_with_a0());
        let (_, code) = run_words(words, 100);
        assert_eq!(code, Some(42));
    }

    #[test]
    fn memory_subword_and_sign_extension() {
        let mut words = vec![
            asm::lui(5, 0x20),     // t0 = 0x20000 (heap)
            asm::addi(6, 0, -2),   // t1 = 0xfffffffe
            asm::sw(5, 6, 0),      // [heap] = fffffffe
            asm::addi(7, 0, 0x7f), //
            asm::sb(5, 7, 1),      // byte 1 := 7f -> ffff7ffe
            asm::lw(10, 5, 0),     // a0 = ffff7ffe
            asm::lh(11, 5, 0),     // a1 = sext(7ffe)
            asm::lbu(12, 5, 3),    // a2 = ff
            asm::lb(13, 5, 3),     // a3 = sext(ff)
        ];
        words.extend(exit_with_a0());
        let (m, code) = run_words(words, 100);
        assert_eq!(code, Some(0xffff_7ffe));
        assert_eq!(m.reg(11), 0x7ffe);
        assert_eq!(m.reg(12), 0xff);
        assert_eq!(m.reg(13), 0xffff_ffff);
    }

    #[test]
    fn branches_and_calls() {
        // Loop 5 times via bne; call a leaf that doubles a0.
        let words = vec![
            asm::addi(10, 0, 0),  // a0 = 0
            asm::addi(5, 0, 0),   // t0 = 0
            asm::addi(6, 0, 5),   // t1 = 5
            asm::addi(10, 10, 3), // loop: a0 += 3
            asm::addi(5, 5, 1),
            asm::bne(5, 6, -8), // -> loop
            asm::jal(1, 16),    // call double (4 words ahead)
            asm::addi(17, 0, SYS_EXIT as i32),
            asm::ecall(),
            0,                    // padding (never executed)
            asm::add(10, 10, 10), // double: a0 *= 2
            asm::jalr(0, 1, 0),   // ret
        ];
        let (_, code) = run_words(words, 100);
        assert_eq!(code, Some(30));
    }

    #[test]
    fn faults_are_typed() {
        let p = Rv32Program::new(vec![0xffff_ffff]);
        let mut m = Rv32Machine::new(&p);
        assert!(matches!(
            m.step_record(),
            Err(EmuError::Illegal {
                raw: 0xffff_ffff,
                ..
            })
        ));

        let p = Rv32Program::new(vec![asm::lw(10, 0, 2)]);
        let mut m = Rv32Machine::new(&p);
        assert!(matches!(
            m.step_record(),
            Err(EmuError::Misaligned { addr: 2, .. })
        ));

        let p = Rv32Program::new(vec![asm::ecall()]);
        let mut m = Rv32Machine::new(&p);
        assert!(matches!(
            m.step_record(),
            Err(EmuError::BadSyscall { service: 0, .. })
        ));

        let p = Rv32Program::new(vec![asm::ebreak()]);
        let mut m = Rv32Machine::new(&p);
        assert!(matches!(m.step_record(), Err(EmuError::Break { .. })));

        let p = Rv32Program::new(vec![asm::jalr(0, 0, 0x100)]);
        let mut m = Rv32Machine::new(&p);
        m.step_record().expect("jalr itself retires");
        assert!(matches!(m.step_record(), Err(EmuError::UnmappedPc { .. })));
    }

    #[test]
    fn verify_step_locksteps_and_flags_corruption() {
        let mut words = vec![
            asm::addi(10, 0, 1),
            asm::addi(11, 0, 2),
            asm::add(10, 10, 11),
            asm::lui(5, 0x20),
            asm::sw(5, 10, 0),
            asm::lw(12, 5, 0),
        ];
        words.extend(exit_with_a0());
        let p = Rv32Program::new(words);
        let mut m = Rv32Machine::new(&p);
        let mut recs = Vec::new();
        while let Rv32Step::Retired(r) = m.step_record().unwrap() {
            recs.push(r);
        }
        let mut checker = Rv32Machine::new(&p);
        for r in &recs {
            checker.verify_step(r).unwrap();
        }
        let mut checker = Rv32Machine::new(&p);
        let mut bad = recs[0];
        bad.results[0] ^= 4;
        assert_eq!(checker.verify_step(&bad).unwrap_err().field, "dest0");
        let mut checker = Rv32Machine::new(&p);
        checker.verify_step(&recs[0]).unwrap();
        let mut bad = recs[1];
        bad.pc ^= 4;
        assert_eq!(checker.verify_step(&bad).unwrap_err().field, "pc");
    }
}
