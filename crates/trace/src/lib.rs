//! # popk-trace — the ISA-neutral micro-op boundary
//!
//! The timing core ([`popk-core`]'s pipeline) models *partial operand
//! knowledge*, which is an ISA-agnostic idea: slices of values wake
//! consumers, partial addresses disambiguate loads, low-order bits
//! refute branch predictions. This crate defines the neutral record the
//! timing core consumes — a [`Uop`]: one retired dynamic instruction
//! with its operand values, memory effect, and control outcome — and
//! the [`UopInsn`] trait an ISA's static instruction type implements to
//! describe everything the pipeline needs to schedule it (execution
//! class, slice decomposition, operand registers, latency class,
//! control kind).
//!
//! A [`Frontend`] is any producer of `Uop` streams (a functional
//! emulator, a captured trace file); its optional [`CommitChecker`]
//! locksteps an independent reference against the timing core's commit
//! stream, turning any model corruption into a structured
//! [`LockstepMismatch`] instead of silently wrong statistics.
//!
//! The [`pisa`] module binds the repo's native PISA-like ISA
//! ([`popk_isa::Insn`]) to this boundary; `popk-rv32` binds RV32I.
//!
//! [`popk-core`]: ../popk_core/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pisa;

use popk_isa::{BranchCond, SliceClass};
use popk_slice::AluSliceOp;
use std::fmt;

/// One retired dynamic instruction, ISA-neutral: the unit of exchange
/// between a [`Frontend`] and the timing core.
///
/// `I` is the ISA's static instruction type (a [`UopInsn`]); the
/// remaining fields are the *dynamic* facts the paper's techniques
/// consult — operand values (for slice-wise branch refutation and the
/// debug-mode sliced-ALU cross-check), results (for narrow-operand
/// detection and oracle lockstep), the effective address (partial
/// disambiguation and tag match), and the control outcome.
#[derive(Clone, Copy, Debug)]
pub struct Uop<I> {
    /// Program counter.
    pub pc: u32,
    /// The decoded instruction.
    pub insn: I,
    /// Source operand values, in `src_regs()` order.
    pub src_vals: [u32; 2],
    /// Destination values written, in `dst_regs()` order.
    pub results: [u32; 2],
    /// Effective address, if a memory access.
    pub ea: u32,
    /// Whether a control transfer was taken.
    pub taken: bool,
    /// The next PC actually executed.
    pub next_pc: u32,
}

impl<I: UopInsn> Uop<I> {
    /// Whether this instruction accesses memory.
    pub fn is_mem(&self) -> bool {
        let m = self.insn.meta();
        m.is_load || m.is_store
    }
}

/// Functional-unit binding of an instruction (which execution resource
/// examines it each cycle).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecClass {
    /// Integer/logic/shift work on the sliced datapath.
    IntSliced,
    /// The unpipelined multiply/divide unit.
    MulDiv,
    /// The pipelined FP adder.
    FpAdd,
    /// The unpipelined FP multiply/divide/sqrt unit.
    FpLong,
    /// Resolved entirely in the front end (direct jumps).
    Front,
    /// Serializing system operation.
    Sys,
}

/// Latency class within an [`ExecClass`]: which configured latency
/// applies. The mapping to cycle counts lives in the machine
/// configuration; the ISA only names the class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LatClass {
    /// Single-cycle (per slice) ALU work.
    Alu,
    /// Integer multiply.
    Mult,
    /// Integer divide.
    Div,
    /// A `HI`/`LO`-style move through the muldiv unit: single-cycle and
    /// exempt from the unit's busy reservation.
    HiLoMove,
    /// FP add/convert.
    FpAdd,
    /// FP multiply.
    FpMul,
    /// FP divide.
    FpDiv,
    /// FP square root.
    FpSqrt,
}

/// Control-transfer kind, as the front end and branch-resolution logic
/// need it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CtrlKind {
    /// Target known at decode (`j`/`jal`-like).
    DirectJump {
        /// Pushes a return address (drives the RAS).
        is_call: bool,
    },
    /// Target comes from a register (`jr`/`jalr`-like).
    IndirectJump {
        /// Pushes a return address.
        is_call: bool,
        /// Pops the return-address stack.
        is_return: bool,
    },
    /// Conditional branch testing `cond` on the source operands.
    CondBranch(BranchCond),
}

/// Everything the pipeline stages need to know about an instruction
/// statically, derived once from [`UopInsn::meta`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UopMeta {
    /// Functional-unit binding.
    pub class: ExecClass,
    /// Bit-slice decomposition (Fig. 8 taxonomy).
    pub slice_class: SliceClass,
    /// Which configured latency applies.
    pub lat: LatClass,
    /// Control-transfer kind, if any.
    pub ctrl: Option<CtrlKind>,
    /// The low result slice is not valid until all slices complete
    /// (set-less-than style ops whose bit 0 depends on the top carry).
    pub late_result: bool,
    /// Memory load.
    pub is_load: bool,
    /// Memory store.
    pub is_store: bool,
    /// Access width in bytes (0 for non-memory instructions).
    pub mem_bytes: u8,
}

impl UopMeta {
    /// Whether this instruction accesses memory.
    pub fn is_mem(&self) -> bool {
        self.is_load || self.is_store
    }
}

/// Up to two operand registers, as small ISA-neutral ids (the ISA's
/// architectural index; id 0 is the hardwired zero in both PISA and
/// RV32). Mirrors `popk_isa`'s `ArgSet` semantics: pushes deduplicate
/// against the first slot only, preserving insertion order.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RegList {
    regs: [Option<u8>; 2],
}

impl RegList {
    /// The empty list.
    pub fn new() -> RegList {
        RegList::default()
    }

    /// Append `r`, deduplicating against the first slot.
    pub fn push(&mut self, r: u8) {
        if self.regs[0].is_none() {
            self.regs[0] = Some(r);
        } else if self.regs[0] != Some(r) && self.regs[1].is_none() {
            self.regs[1] = Some(r);
        }
    }

    /// The registers, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.regs.iter().filter_map(|r| *r)
    }

    /// Number of registers present.
    pub fn len(&self) -> usize {
        self.regs.iter().filter(|r| r.is_some()).count()
    }

    /// True if no registers are present.
    pub fn is_empty(&self) -> bool {
        self.regs[0].is_none()
    }

    /// Whether `r` is present.
    pub fn contains(&self, r: u8) -> bool {
        self.regs.contains(&Some(r))
    }
}

/// The static-instruction side of the micro-op boundary: what an ISA
/// must describe about each decoded instruction for the timing core to
/// schedule it. Implementations are cheap `Copy` types; `Display` is
/// the disassembly used in timelines and deadlock snapshots.
pub trait UopInsn: Copy + fmt::Debug + fmt::Display + 'static {
    /// Number of architectural registers (rename-table size). Index 0
    /// must be the hardwired zero register.
    const NUM_REGS: usize;

    /// Static scheduling metadata.
    fn meta(&self) -> UopMeta;

    /// Source registers, in the order `Uop::src_vals` reports values.
    fn src_regs(&self) -> RegList;

    /// Destination registers, in the order `Uop::results` reports
    /// values. Writes to the zero register are not reported.
    fn dst_regs(&self) -> RegList;

    /// The register whose value a store writes to memory, if this is a
    /// store (it is also listed in [`UopInsn::src_regs`]).
    fn store_data_reg(&self) -> Option<u8>;

    /// A no-op instruction used for wrong-path phantoms.
    fn phantom_nop() -> Self;

    /// The two comparison operands of a conditional branch (`(0, 0)`
    /// for anything else): what slice-wise misprediction detection
    /// inspects.
    fn branch_cmp(rec: &Uop<Self>) -> (u32, u32);

    /// If this instruction maps onto one sliced-ALU lane, the op and
    /// full-width operands to cross-check `results[0]` against (the
    /// debug-build sliced-datapath validation).
    fn alu_lane(rec: &Uop<Self>) -> Option<(AluSliceOp, u32, u32)>;
}

/// A functional-emulation fault while producing a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmuError {
    /// PC left the text segment.
    UnmappedPc {
        /// The offending PC.
        pc: u32,
    },
    /// A load/store violated natural alignment.
    Misaligned {
        /// PC of the access.
        pc: u32,
        /// The misaligned effective address.
        addr: u32,
    },
    /// `syscall`/`ecall` with an unknown service number.
    BadSyscall {
        /// PC of the call.
        pc: u32,
        /// The unknown service number.
        service: u32,
    },
    /// A breakpoint instruction.
    Break {
        /// PC of the breakpoint.
        pc: u32,
    },
    /// An instruction word that does not decode in the frontend's ISA.
    Illegal {
        /// PC of the undecodable word.
        pc: u32,
        /// The raw instruction encoding.
        raw: u32,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::UnmappedPc { pc } => write!(f, "PC {pc:#010x} outside text segment"),
            EmuError::Misaligned { pc, addr } => {
                write!(f, "misaligned access to {addr:#010x} at PC {pc:#010x}")
            }
            EmuError::BadSyscall { pc, service } => {
                write!(f, "unknown syscall {service} at PC {pc:#010x}")
            }
            EmuError::Break { pc } => write!(f, "break at PC {pc:#010x}"),
            EmuError::Illegal { pc, raw } => {
                write!(f, "illegal instruction {raw:#010x} at PC {pc:#010x}")
            }
        }
    }
}

impl EmuError {
    /// The PC at which the error occurred (every variant carries one).
    pub fn pc(&self) -> u32 {
        match *self {
            EmuError::UnmappedPc { pc }
            | EmuError::Misaligned { pc, .. }
            | EmuError::BadSyscall { pc, .. }
            | EmuError::Break { pc }
            | EmuError::Illegal { pc, .. } => pc,
        }
    }
}

impl std::error::Error for EmuError {}

/// One architectural field on which lockstep verification diverged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockstepMismatch {
    /// PC of the instruction under verification (the claimed record's).
    pub pc: u32,
    /// The diverging field: `"pc"`, `"insn"`, `"dest0"`, `"dest1"`,
    /// `"ea"`, `"store_data"`, `"taken"`, `"next_pc"`, `"exited"`, or
    /// `"emulation"` (the reference machine itself faulted).
    pub field: &'static str,
    /// The reference machine's value.
    pub expected: u32,
    /// The claimed record's value.
    pub got: u32,
}

impl fmt::Display for LockstepMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lockstep mismatch at PC {:#010x}: field `{}` expected {:#x}, got {:#x}",
            self.pc, self.field, self.expected, self.got
        )
    }
}

/// A producer of [`Uop`] streams: the decoupling point between an ISA's
/// functional side and the timing core. Iteration yields retired
/// records in program order and ends at program exit (or the
/// frontend's instruction limit); a fault surfaces as one final
/// `Err`.
pub trait Frontend<I>: Iterator<Item = Result<Uop<I>, EmuError>> {
    /// Short identity of the ISA/frontend (e.g. `"pisa"`, `"rv32"`),
    /// for reports and cache keys.
    fn isa(&self) -> &'static str;

    /// An independent reference checker for differential replay of the
    /// commit stream, if this frontend can provide one. Call before
    /// iterating: the checker replays from the beginning.
    fn checker(&self) -> Option<Box<dyn CommitChecker<I>>>;
}

/// Lockstep verification of a timing core's commit stream against an
/// independent reference (differential replay).
pub trait CommitChecker<I> {
    /// Verify one retirement claim against the reference, advancing it
    /// by one instruction.
    fn verify(&mut self, claim: &Uop<I>) -> Result<(), LockstepMismatch>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reglist_mirrors_argset_dedup() {
        let mut l = RegList::new();
        assert!(l.is_empty());
        l.push(8);
        l.push(8); // dup of slot 0: dropped
        assert_eq!(l.len(), 1);
        l.push(9);
        assert_eq!(l.len(), 2);
        l.push(10); // full: dropped
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![8, 9]);
        assert!(l.contains(9));
        assert!(!l.contains(10));

        // ArgSet's quirk, preserved on purpose: a duplicate of slot 1
        // (not slot 0) is admitted. PISA never produces that pattern
        // (uses()/defs() never emit x,y,y), and mirroring exactly keeps
        // the rename walk byte-identical.
        let mut q = RegList::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn emu_error_text_is_stable() {
        let e = EmuError::Misaligned {
            pc: 0x0040_0000,
            addr: 0x1000_0001,
        };
        assert_eq!(
            e.to_string(),
            "misaligned access to 0x10000001 at PC 0x00400000"
        );
        assert_eq!(e.pc(), 0x0040_0000);
    }
}
