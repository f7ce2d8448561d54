//! The architectural interpreter.

use crate::mem::Memory;
use crate::trace::{ExecStats, TraceRecord, Tracer};
use popk_isa::{Insn, MemWidth, Op, Program, Reg, DATA_BASE, STACK_TOP};

pub use popk_trace::{EmuError, LockstepMismatch};

/// Result of a single [`Machine::step_record`].
#[derive(Clone, Copy, Debug)]
pub enum StepEvent {
    /// An instruction retired (this includes the final exit `syscall`).
    Retired(TraceRecord),
    /// The machine has already exited with this code.
    Exited(u32),
}

/// Syscall services, selected by `v0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Syscall {
    /// `v0 = 0`: terminate with exit code 0.
    Exit,
    /// `v0 = 1`: append `a0` (as `i32`) to the integer output channel.
    PrintInt,
    /// `v0 = 2`: append the low byte of `a0` to the byte output channel.
    PrintChar,
    /// `v0 = 3`: terminate with the exit code in `a0`.
    ExitCode,
}

impl Syscall {
    fn from_v0(v: u32) -> Option<Syscall> {
        match v {
            0 => Some(Syscall::Exit),
            1 => Some(Syscall::PrintInt),
            2 => Some(Syscall::PrintChar),
            3 => Some(Syscall::ExitCode),
            _ => None,
        }
    }
}

/// Architectural machine state and interpreter.
pub struct Machine {
    regs: [u32; Reg::COUNT],
    pc: u32,
    /// The flat memory image (data segment pre-loaded, stack on demand).
    pub mem: Memory,
    program: Program,
    exited: Option<u32>,
    icount: u64,
    out_ints: Vec<i32>,
    out_bytes: Vec<u8>,
    stats: ExecStats,
}

impl Machine {
    /// Build a machine with `program` loaded: data segment at `DATA_BASE`,
    /// `sp` at [`STACK_TOP`], PC at the entry point.
    pub fn new(program: &Program) -> Machine {
        let mut mem = Memory::new();
        mem.load(DATA_BASE, &program.data);
        let mut regs = [0u32; Reg::COUNT];
        regs[Reg::SP.index()] = STACK_TOP;
        Machine {
            regs,
            pc: program.entry,
            mem,
            program: program.clone(),
            exited: None,
            icount: 0,
            out_ints: Vec::new(),
            out_bytes: Vec::new(),
            stats: ExecStats::default(),
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Read an architectural register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Write an architectural register (`r0` writes are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Instructions retired so far.
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// Exit code, if the program has exited.
    pub fn exit_code(&self) -> Option<u32> {
        self.exited
    }

    /// Integers written via the `PrintInt` syscall.
    pub fn output_ints(&self) -> &[i32] {
        &self.out_ints
    }

    /// Bytes written via the `PrintChar` syscall.
    pub fn output_bytes(&self) -> &[u8] {
        &self.out_bytes
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Run up to `limit` instructions; returns the exit code if the program
    /// exited within the budget.
    pub fn run(&mut self, limit: u64) -> Result<Option<u32>, EmuError> {
        for _ in 0..limit {
            match self.step_record()? {
                StepEvent::Retired(_) => {}
                StepEvent::Exited(code) => return Ok(Some(code)),
            }
        }
        Ok(self.exited)
    }

    /// A streaming trace iterator retiring up to `limit` instructions.
    pub fn trace(&mut self, limit: u64) -> Tracer<'_> {
        Tracer::new(self, limit)
    }

    /// Step-level lockstep verification: execute one instruction on
    /// *this* machine and cross-check the claimed record `claim` —
    /// instruction identity, destination register values, effective
    /// address, store data, and branch outcome — returning the first
    /// diverging field.
    ///
    /// This is the primitive behind the timing model's commit-time
    /// oracle: retire-order claims from a pipeline are fed to a second,
    /// independent machine, so any corruption of architectural state in
    /// flight surfaces as a [`LockstepMismatch`] instead of silently
    /// wrong statistics. If this machine itself faults or has exited,
    /// that too is a mismatch (fields `"emulation"` / `"exited"`).
    pub fn verify_step(&mut self, claim: &TraceRecord) -> Result<(), LockstepMismatch> {
        let mm = |field, expected, got| {
            Err(LockstepMismatch {
                pc: claim.pc,
                field,
                expected,
                got,
            })
        };
        let rec = match self.step_record() {
            Ok(StepEvent::Retired(r)) => r,
            Ok(StepEvent::Exited(code)) => return mm("exited", code, claim.pc),
            Err(e) => return mm("emulation", e.pc(), claim.pc),
        };
        if rec.pc != claim.pc {
            return mm("pc", rec.pc, claim.pc);
        }
        if rec.insn != claim.insn {
            return mm(
                "insn",
                popk_isa::encode(&rec.insn),
                popk_isa::encode(&claim.insn),
            );
        }
        for (i, field) in ["dest0", "dest1"].into_iter().enumerate() {
            if i < rec.insn.defs().len() && rec.results[i] != claim.results[i] {
                return mm(field, rec.results[i], claim.results[i]);
            }
        }
        if rec.is_mem() && rec.ea != claim.ea {
            return mm("ea", rec.ea, claim.ea);
        }
        if rec.insn.op().is_store() {
            let data = rec.src_val(rec.insn.rt());
            if data != claim.src_val(claim.insn.rt()) {
                return mm(
                    "store_data",
                    data.unwrap_or(0),
                    claim.src_val(claim.insn.rt()).unwrap_or(0),
                );
            }
        }
        if rec.insn.op().is_control() {
            if rec.taken != claim.taken {
                return mm("taken", rec.taken as u32, claim.taken as u32);
            }
            if rec.next_pc != claim.next_pc {
                return mm("next_pc", rec.next_pc, claim.next_pc);
            }
        }
        Ok(())
    }

    /// Execute one instruction, producing its trace record.
    pub fn step_record(&mut self) -> Result<StepEvent, EmuError> {
        if let Some(code) = self.exited {
            return Ok(StepEvent::Exited(code));
        }
        let pc = self.pc;
        let insn = *self.program.fetch(pc).ok_or(EmuError::UnmappedPc { pc })?;

        let mut src_vals = [0u32; 2];
        for (i, r) in insn.uses().iter().enumerate() {
            src_vals[i] = self.reg(r);
        }

        let mut ea = 0u32;
        let mut taken = false;
        let mut next_pc = pc.wrapping_add(4);

        let op = insn.op();
        let rs_v = self.reg(insn.rs());
        let rt_v = self.reg(insn.rt());

        match op {
            // ---- integer ALU (wrapping; PISA has no overflow traps) -----
            Op::Add | Op::Addu => self.set_reg(insn.rd(), rs_v.wrapping_add(rt_v)),
            Op::Sub | Op::Subu => self.set_reg(insn.rd(), rs_v.wrapping_sub(rt_v)),
            Op::Slt => self.set_reg(insn.rd(), ((rs_v as i32) < (rt_v as i32)) as u32),
            Op::Sltu => self.set_reg(insn.rd(), (rs_v < rt_v) as u32),
            Op::And => self.set_reg(insn.rd(), rs_v & rt_v),
            Op::Or => self.set_reg(insn.rd(), rs_v | rt_v),
            Op::Xor => self.set_reg(insn.rd(), rs_v ^ rt_v),
            Op::Nor => self.set_reg(insn.rd(), !(rs_v | rt_v)),
            Op::Addi | Op::Addiu => self.set_reg(insn.rd(), rs_v.wrapping_add(insn.imm() as u32)),
            Op::Slti => self.set_reg(insn.rd(), ((rs_v as i32) < insn.imm()) as u32),
            Op::Sltiu => self.set_reg(insn.rd(), (rs_v < insn.imm() as u32) as u32),
            Op::Andi => self.set_reg(insn.rd(), rs_v & insn.imm() as u32),
            Op::Ori => self.set_reg(insn.rd(), rs_v | insn.imm() as u32),
            Op::Xori => self.set_reg(insn.rd(), rs_v ^ insn.imm() as u32),
            Op::Lui => self.set_reg(insn.rd(), insn.imm() as u32),

            // ---- shifts -------------------------------------------------
            Op::Sll => self.set_reg(insn.rd(), rt_v << (insn.imm() as u32 & 31)),
            Op::Srl => self.set_reg(insn.rd(), rt_v >> (insn.imm() as u32 & 31)),
            Op::Sra => self.set_reg(
                insn.rd(),
                ((rt_v as i32) >> (insn.imm() as u32 & 31)) as u32,
            ),
            Op::Sllv => self.set_reg(insn.rd(), rt_v << (rs_v & 31)),
            Op::Srlv => self.set_reg(insn.rd(), rt_v >> (rs_v & 31)),
            Op::Srav => self.set_reg(insn.rd(), ((rt_v as i32) >> (rs_v & 31)) as u32),

            // ---- multiply / divide --------------------------------------
            Op::Mult => {
                let p = (rs_v as i32 as i64).wrapping_mul(rt_v as i32 as i64) as u64;
                self.set_reg(Reg::HI, (p >> 32) as u32);
                self.set_reg(Reg::LO, p as u32);
            }
            Op::Multu => {
                let p = (rs_v as u64) * (rt_v as u64);
                self.set_reg(Reg::HI, (p >> 32) as u32);
                self.set_reg(Reg::LO, p as u32);
            }
            Op::Div => {
                // Divide-by-zero and i32::MIN / -1 produce the MIPS
                // "boundedly undefined" convention: LO = all-ones / MIN.
                let (s, t) = (rs_v as i32, rt_v as i32);
                let (q, r) = if t == 0 {
                    (-1i32, s)
                } else if s == i32::MIN && t == -1 {
                    (i32::MIN, 0)
                } else {
                    (s / t, s % t)
                };
                self.set_reg(Reg::LO, q as u32);
                self.set_reg(Reg::HI, r as u32);
            }
            Op::Divu => {
                let (q, r) = match (rs_v.checked_div(rt_v), rs_v.checked_rem(rt_v)) {
                    (Some(q), Some(r)) => (q, r),
                    _ => (u32::MAX, rs_v),
                };
                self.set_reg(Reg::LO, q);
                self.set_reg(Reg::HI, r);
            }
            Op::Mfhi => self.set_reg(insn.rd(), self.reg(Reg::HI)),
            Op::Mflo => self.set_reg(insn.rd(), self.reg(Reg::LO)),
            Op::Mthi => self.set_reg(Reg::HI, rs_v),
            Op::Mtlo => self.set_reg(Reg::LO, rs_v),

            // ---- floating point (GPR bit patterns as f32) ---------------
            Op::AddS => self.fp2(insn, |a, b| a + b),
            Op::SubS => self.fp2(insn, |a, b| a - b),
            Op::MulS => self.fp2(insn, |a, b| a * b),
            Op::DivS => self.fp2(insn, |a, b| a / b),
            Op::SqrtS => {
                let v = f32::from_bits(rs_v).sqrt();
                self.set_reg(insn.rd(), v.to_bits());
            }
            Op::CvtSW => self.set_reg(insn.rd(), (rs_v as i32 as f32).to_bits()),
            Op::CvtWS => {
                let v = f32::from_bits(rs_v);
                let clamped = if v.is_nan() { 0 } else { v as i32 };
                self.set_reg(insn.rd(), clamped as u32);
            }

            // ---- memory -------------------------------------------------
            Op::Lb | Op::Lbu | Op::Lh | Op::Lhu | Op::Lw => {
                ea = rs_v.wrapping_add(insn.imm() as u32);
                let width = op
                    .mem_width()
                    .unwrap_or_else(|| unreachable!("load {insn} at PC {pc:#010x} has no width"));
                self.check_align(pc, ea, width)?;
                let v = match width {
                    MemWidth::B => self.mem.read_u8(ea) as i8 as i32 as u32,
                    MemWidth::Bu => self.mem.read_u8(ea) as u32,
                    MemWidth::H => self.mem.read_u16(ea) as i16 as i32 as u32,
                    MemWidth::Hu => self.mem.read_u16(ea) as u32,
                    MemWidth::W => self.mem.read_u32(ea),
                };
                self.set_reg(insn.rd(), v);
            }
            Op::Sb | Op::Sh | Op::Sw => {
                ea = rs_v.wrapping_add(insn.imm() as u32);
                let width = op
                    .mem_width()
                    .unwrap_or_else(|| unreachable!("store {insn} at PC {pc:#010x} has no width"));
                self.check_align(pc, ea, width)?;
                match width {
                    MemWidth::B | MemWidth::Bu => self.mem.write_u8(ea, rt_v as u8),
                    MemWidth::H | MemWidth::Hu => self.mem.write_u16(ea, rt_v as u16),
                    MemWidth::W => self.mem.write_u32(ea, rt_v),
                }
            }

            // ---- control ------------------------------------------------
            Op::Beq | Op::Bne | Op::Blez | Op::Bgtz | Op::Bltz | Op::Bgez => {
                let cond = op.branch_cond().unwrap_or_else(|| {
                    unreachable!("branch {insn} at PC {pc:#010x} has no condition")
                });
                taken = cond.eval(rs_v, rt_v);
                if taken {
                    next_pc = pc
                        .wrapping_add(4)
                        .wrapping_add((insn.imm() as u32).wrapping_mul(4));
                }
            }
            Op::J => {
                taken = true;
                next_pc = (insn.imm() as u32) << 2;
            }
            Op::Jal => {
                taken = true;
                self.set_reg(Reg::RA, pc.wrapping_add(4));
                next_pc = (insn.imm() as u32) << 2;
            }
            Op::Jr => {
                taken = true;
                next_pc = rs_v;
            }
            Op::Jalr => {
                taken = true;
                self.set_reg(insn.rd(), pc.wrapping_add(4));
                next_pc = rs_v;
            }

            // ---- system -------------------------------------------------
            Op::Syscall => {
                let service = self.reg(Reg::V0);
                let a0 = self.reg(Reg::A0);
                match Syscall::from_v0(service) {
                    Some(Syscall::Exit) => self.exited = Some(0),
                    Some(Syscall::PrintInt) => self.out_ints.push(a0 as i32),
                    Some(Syscall::PrintChar) => self.out_bytes.push(a0 as u8),
                    Some(Syscall::ExitCode) => self.exited = Some(a0),
                    None => return Err(EmuError::BadSyscall { pc, service }),
                }
            }
            Op::Break => return Err(EmuError::Break { pc }),
        }

        let mut results = [0u32; 2];
        for (i, r) in insn.defs().iter().enumerate() {
            results[i] = self.reg(r);
        }

        self.pc = next_pc;
        self.icount += 1;
        let rec = TraceRecord {
            pc,
            insn,
            src_vals,
            results,
            ea,
            taken,
            next_pc,
        };
        self.stats.record(&rec);
        Ok(StepEvent::Retired(rec))
    }

    fn fp2(&mut self, insn: Insn, f: impl Fn(f32, f32) -> f32) {
        let a = f32::from_bits(self.reg(insn.rs()));
        let b = f32::from_bits(self.reg(insn.rt()));
        self.set_reg(insn.rd(), f(a, b).to_bits());
    }

    fn check_align(&self, pc: u32, addr: u32, width: MemWidth) -> Result<(), EmuError> {
        if !addr.is_multiple_of(width.bytes()) {
            Err(EmuError::Misaligned { pc, addr })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popk_isa::asm::assemble;

    fn run_asm(src: &str) -> Machine {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(&p);
        let code = m.run(10_000_000).unwrap();
        assert_eq!(code, Some(0), "program did not exit cleanly");
        m
    }

    #[test]
    fn sum_loop() {
        let m = run_asm(
            r#"
            .text
            main:
                li r8, 0        # sum
                li r9, 10       # i
            loop:
                addu r8, r8, r9
                addiu r9, r9, -1
                bne r9, r0, loop
                move r4, r8
                li r2, 1
                syscall         # print sum
                li r2, 0
                syscall
            "#,
        );
        assert_eq!(m.output_ints(), &[55]);
    }

    #[test]
    fn memory_widths_and_sign_extension() {
        let m = run_asm(
            r#"
            .data
            b:  .byte 0xff, 0x7f
            h:  .half 0x8000
            w:  .word 0x12345678
            .text
            main:
                la r8, b
                lb  r4, 0(r8)      # -1
                li r2, 1
                syscall
                lbu r4, 0(r8)      # 255
                syscall
                lb  r4, 1(r8)      # 127
                syscall
                la r8, h
                lh  r4, 0(r8)      # -32768
                syscall
                lhu r4, 0(r8)      # 32768
                syscall
                la r8, w
                lw  r4, 0(r8)
                syscall
                sb r4, 0(r8)
                lbu r4, 0(r8)      # 0x78
                syscall
                li r2, 0
                syscall
            "#,
        );
        assert_eq!(
            m.output_ints(),
            &[-1, 255, 127, -32768, 32768, 0x12345678, 0x78]
        );
    }

    #[test]
    fn mult_div_hi_lo() {
        let m = run_asm(
            r#"
            .text
            main:
                li r8, 100000
                li r9, 100000
                multu r8, r9       # 10^10 = 0x2_540B_E400
                mfhi r4
                li r2, 1
                syscall            # 2
                mflo r4
                syscall            # 0x540BE400
                li r8, -7
                li r9, 2
                div r8, r9
                mflo r4
                syscall            # -3 (trunc toward zero)
                mfhi r4
                syscall            # -1
                li r2, 0
                syscall
            "#,
        );
        assert_eq!(m.output_ints(), &[2, 0x540B_E400u32 as i32, -3, -1]);
    }

    #[test]
    fn div_by_zero_convention() {
        let m = run_asm(
            r#"
            .text
            main:
                li r8, 5
                div r8, r0
                mflo r4
                li r2, 1
                syscall       # -1
                divu r8, r0
                mflo r4
                syscall       # u32::MAX as i32 = -1
                li r2, 0
                syscall
            "#,
        );
        assert_eq!(m.output_ints(), &[-1, -1]);
    }

    #[test]
    fn branch_taxonomy() {
        let m = run_asm(
            r#"
            .text
            main:
                li r8, -5
                li r4, 0
                bltz r8, a      # taken
                li r4, 99
            a:  li r2, 1
                syscall         # 0
                bgez r8, b      # not taken
                li r4, 1
            b:  syscall         # 1
                li r4, 2
                blez r0, c      # taken (0 <= 0)
                li r4, 98
            c:  syscall         # 2
                li r2, 0
                syscall
            "#,
        );
        assert_eq!(m.output_ints(), &[0, 1, 2]);
    }

    #[test]
    fn calls_and_returns() {
        let m = run_asm(
            r#"
            .text
            main:
                li r4, 7
                jal double
                li r2, 1
                syscall          # 14
                li r2, 0
                syscall
            double:
                addu r4, r4, r4
                jr ra
            "#,
        );
        assert_eq!(m.output_ints(), &[14]);
    }

    #[test]
    fn fp_ops() {
        let m = run_asm(
            r#"
            .text
            main:
                li r8, 3
                li r9, 4
                cvt.s.w r8, r8
                cvt.s.w r9, r9
                mul.s r10, r8, r9     # 12.0
                add.s r10, r10, r8    # 15.0
                sqrt.s r11, r9        # 2.0
                div.s r10, r10, r11   # 7.5
                mul.s r10, r10, r11   # back to 15.0
                cvt.w.s r4, r10
                li r2, 1
                syscall
                li r2, 0
                syscall
            "#,
        );
        assert_eq!(m.output_ints(), &[15]);
    }

    #[test]
    fn misaligned_access_errors() {
        let p = assemble(
            r#"
            .text
            main:
                li r8, 0x10000001
                lw r9, 0(r8)
            "#,
        )
        .unwrap();
        let mut m = Machine::new(&p);
        let err = m.run(100).unwrap_err();
        assert!(matches!(
            err,
            EmuError::Misaligned {
                addr: 0x1000_0001,
                ..
            }
        ));
    }

    #[test]
    fn runaway_pc_errors() {
        let p = assemble(".text\nmain:\n  nop\n").unwrap();
        let mut m = Machine::new(&p);
        let err = m.run(100).unwrap_err();
        assert!(matches!(err, EmuError::UnmappedPc { .. }));
    }

    #[test]
    fn trace_records_carry_values() {
        let p = assemble(
            r#"
            .text
            main:
                li r8, 6
                li r9, 7
                addu r10, r8, r9
                sw r10, -4(sp)
                beq r10, r0, main
                li r2, 0
                syscall
            "#,
        )
        .unwrap();
        let mut m = Machine::new(&p);
        let recs: Vec<_> = m.trace(100).map(|r| r.unwrap()).collect();
        // li expands to lui+ori: addu is at index 4.
        let addu = recs
            .iter()
            .find(|r| r.insn.op() == Op::Addu && r.insn.rd() == Reg::gpr(10))
            .unwrap();
        assert_eq!(addu.src_vals, [6, 7]);
        assert_eq!(addu.results[0], 13);
        let sw = recs.iter().find(|r| r.insn.op() == Op::Sw).unwrap();
        assert_eq!(sw.ea, STACK_TOP - 4);
        assert_eq!(sw.src_val(Reg::gpr(10)), Some(13));
        let beq = recs.iter().find(|r| r.insn.op() == Op::Beq).unwrap();
        assert!(!beq.taken);
        // Trace ends at exit; stats know the mix.
        assert_eq!(m.stats().stores, 1);
        assert_eq!(m.stats().cond_branches, 1);
    }

    #[test]
    fn stats_fractions() {
        let m = run_asm(
            r#"
            .text
            main:
                lw r8, 0(sp)
                lw r9, 4(sp)
                sw r8, 8(sp)
                bne r8, r9, skip
            skip:
                li r2, 0
                syscall
            "#,
        );
        let s = m.stats();
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.cond_branches, 1);
        assert_eq!(s.eq_ne_branches, 1);
        assert!(s.load_fraction() > 0.0 && s.load_fraction() < 1.0);
    }
}
