//! Machine configuration (Table 2 and the Fig. 10 pipeline variants).

use popk_bpred::FrontEndConfig;
use popk_cache::{CacheConfig, HierarchyConfig, MAX_WAYS};
use popk_slice::SliceWidth;
use std::fmt;

/// A degenerate [`MachineConfig`], rejected by
/// [`MachineConfig::validate`] before any cycle is simulated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending configuration field (e.g. `"width"`,
    /// `"memory.l1d"`).
    pub field: &'static str,
    /// Why the value is degenerate.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Which execute-stage organization is simulated (Fig. 10).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PipelineKind {
    /// Single-cycle, unpipelined EX: the best-case machine the paper's
    /// thin bars mark (frequency held equal by fiat).
    Ideal,
    /// EX pipelined over the slice count with operands kept atomic: the
    /// "simple pipelining" bottom bar of Fig. 11.
    SimplePipelined,
    /// The bit-sliced machine: slices tracked and scheduled independently,
    /// techniques enabled per [`Optimizations`].
    BitSliced,
}

/// The paper's five techniques as independent toggles.
///
/// For [`PipelineKind::BitSliced`] these are applied in Fig. 11's
/// cumulative order via [`Optimizations::level`]; for other pipeline kinds
/// they are ignored.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct Optimizations {
    /// Dependent slices wake as producer slices complete.
    pub partial_bypass: bool,
    /// Independent-class (logic) slices may issue out of order.
    pub ooo_slices: bool,
    /// `beq`/`bne` mispredictions redirect at the first differing slice.
    pub early_branch: bool,
    /// Loads pass older stores once low address slices prove mismatch.
    pub early_disambig: bool,
    /// L1D access overlaps agen: index after the first 16 address bits,
    /// MRU way prediction among partial-tag matchers.
    pub partial_tag: bool,
    /// Extension (§5.1's "could speculatively forward ... with very high
    /// accuracy"): when exactly one older store partially matches, forward
    /// its data before the full addresses resolve, verifying later.
    pub spec_forward: bool,
    /// Extension (§6's narrow-width note): when a producer's value is a
    /// sign/zero-extension of its low slice, consumers' upper-slice
    /// dependences are satisfied by the low slice alone (models a perfect
    /// narrowness detector à la Brooks & Martonosi).
    pub narrow_operands: bool,
    /// Extension (§5.1's pointer to the Memory Conflict Buffer \[7\]):
    /// a per-load-PC dependence predictor lets predicted-safe loads issue
    /// past *unknown* older store addresses, replaying on violation.
    pub mem_dep_predict: bool,
    /// Extension (§5.2's pointer to sum-addressed memory \[18\]): the cache
    /// decoder folds `base + offset`, so the index is available as soon as
    /// the *base register* slices are — no separate agen wait.
    pub sum_addressed: bool,
}

impl Optimizations {
    /// No techniques.
    pub fn none() -> Optimizations {
        Optimizations::default()
    }

    /// The cumulative stacks of Fig. 11/12: level 0 = none (simple
    /// pipelining), 1 = +partial bypassing, 2 = +out-of-order slices,
    /// 3 = +early branch resolution, 4 = +early disambiguation,
    /// 5 = +partial tag matching (all).
    pub fn level(n: usize) -> Optimizations {
        Optimizations {
            partial_bypass: n >= 1,
            ooo_slices: n >= 2,
            early_branch: n >= 3,
            early_disambig: n >= 4,
            partial_tag: n >= 5,
            spec_forward: false,
            narrow_operands: false,
            mem_dep_predict: false,
            sum_addressed: false,
        }
    }

    /// Display name of cumulative level `n`.
    pub fn level_name(n: usize) -> &'static str {
        match n {
            0 => "simple pipelining",
            1 => "+ partial operand bypassing",
            2 => "+ out-of-order slices",
            3 => "+ early branch resolution",
            4 => "+ early l/s disambiguation",
            5 => "+ partial tag matching",
            _ => "all techniques",
        }
    }

    /// All five techniques.
    pub fn all() -> Optimizations {
        Optimizations::level(5)
    }

    /// All five techniques plus the uniformly-beneficial extensions the
    /// paper sketches: speculative partial-match forwarding (§5.1),
    /// narrow-operand relaxation (§6), and sum-addressed indexing
    /// (§5.2 → \[18\]).
    ///
    /// `mem_dep_predict` (§5.1 → \[7\]) is deliberately *not* included: with
    /// this simple per-PC predictor it helps chain-walking codes (gcc −7%
    /// cycles) but can hurt byte-granular ones (bzip +9%, by racing the
    /// MTF search loop into still-in-flight shift stores) — see the
    /// `ablations` binary and EXPERIMENTS.md.
    pub fn extended() -> Optimizations {
        Optimizations {
            spec_forward: true,
            narrow_operands: true,
            sum_addressed: true,
            ..Optimizations::all()
        }
    }
}

/// Which ISA/frontend feeds the timing core. Purely an identity: the
/// pipeline consumes ISA-neutral micro-ops either way, but results are
/// not comparable across ISAs, so the frontend is part of the
/// configuration [`fingerprint`](MachineConfig::fingerprint) (and thus
/// of every artifact cache key).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IsaKind {
    /// The native PISA-like ISA (`popk_isa::Insn`, `popk-emu` frontend).
    #[default]
    Pisa,
    /// RV32I (`popk-rv32` frontend).
    Rv32,
}

impl IsaKind {
    /// Short lowercase name, as reports and cache keys spell it.
    pub fn name(self) -> &'static str {
        match self {
            IsaKind::Pisa => "pisa",
            IsaKind::Rv32 => "rv32",
        }
    }
}

/// Full machine configuration. Defaults reproduce Table 2.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// ISA/frontend identity (default: the native PISA-like ISA).
    pub isa: IsaKind,
    /// Pipeline organization of the execute stage.
    pub kind: PipelineKind,
    /// Operand slicing (ignored for `Ideal`, which is `W32`).
    pub slicing: SliceWidth,
    /// Technique toggles for the bit-sliced machine.
    pub opts: Optimizations,

    /// Fetch/issue/commit width (Table 2: 4).
    pub width: u32,
    /// Register update unit (window) entries (Table 2: 64).
    pub ruu_size: usize,
    /// Unified load/store queue entries (Table 2: 32).
    pub lsq_size: usize,
    /// Front-end stages from Fetch1 through RF2 (Fig. 10: 12), i.e. the
    /// earliest EX cycle is `fetch + front_depth`.
    pub front_depth: u64,
    /// Stage at which the instruction enters the RUU (after DP2: 6).
    pub dispatch_depth: u64,

    /// Integer ALUs per slice datapath (Table 2: 4, 1-cycle).
    pub int_alus: u32,
    /// Integer multiply latency (Table 2: 3).
    pub mult_latency: u64,
    /// Integer divide latency (Table 2: 20).
    pub div_latency: u64,
    /// FP ALUs (Table 2: 4, 2-cycle).
    pub fp_alus: u32,
    /// FP add latency (Table 2: 2).
    pub fp_latency: u64,
    /// FP multiply / divide / sqrt latencies (Table 2: 4/12/24).
    pub fp_mul_latency: u64,
    /// FP divide latency.
    pub fp_div_latency: u64,
    /// FP square-root latency.
    pub fp_sqrt_latency: u64,
    /// Cache ports (simultaneous data accesses per cycle).
    pub mem_ports: u32,
    /// Model wrong-path fetch: after a misprediction, fetch keeps issuing
    /// phantom instructions that occupy fetch/dispatch bandwidth, window
    /// entries and ALU slots until the redirect, then squash (default:
    /// fetch simply stalls, the common trace-driven approximation).
    pub model_wrong_path: bool,
    /// Run the commit-time oracle (a second functional machine in
    /// lockstep with retirement, see [`crate::SimError::OracleDivergence`]).
    /// Off by default; when off, the per-retire cost is one branch.
    pub oracle: bool,
    /// Watchdog: cycles without a retirement before
    /// [`Simulator::try_run`](crate::Simulator::try_run) aborts with
    /// [`SimError::Deadlock`](crate::SimError). The default (100 000) is
    /// orders of magnitude beyond any legitimate stall in this model
    /// (the worst — a full window behind an L2 miss chain — is a few
    /// hundred cycles).
    pub watchdog: u64,

    /// Memory hierarchy (Table 2 geometries and latencies). The slice-by-4
    /// presets raise `l1_latency` to 2, per §7's note.
    pub memory: HierarchyConfig,
    /// Front-end predictor configuration (64K gshare, 4-way 512-entry BTB,
    /// 8-entry RAS).
    pub frontend: FrontEndConfig,
}

impl MachineConfig {
    fn table2_base(kind: PipelineKind, slicing: SliceWidth, opts: Optimizations) -> MachineConfig {
        MachineConfig {
            isa: IsaKind::default(),
            kind,
            slicing,
            opts,
            width: 4,
            ruu_size: 64,
            lsq_size: 32,
            front_depth: 12,
            dispatch_depth: 6,
            int_alus: 4,
            mult_latency: 3,
            div_latency: 20,
            fp_alus: 4,
            fp_latency: 2,
            fp_mul_latency: 4,
            fp_div_latency: 12,
            fp_sqrt_latency: 24,
            mem_ports: 2,
            model_wrong_path: false,
            oracle: false,
            watchdog: 100_000,
            memory: HierarchyConfig::default(),
            frontend: FrontEndConfig::default(),
        }
    }

    /// The ideal machine: unpipelined single-cycle EX at the same clock
    /// (the thin reference bars of Fig. 11).
    pub fn ideal() -> MachineConfig {
        Self::table2_base(PipelineKind::Ideal, SliceWidth::W32, Optimizations::none())
    }

    /// Naive 2-deep EX pipelining, atomic operands (Fig. 11 bottom bar,
    /// slice-by-2 column).
    pub fn simple2() -> MachineConfig {
        Self::table2_base(
            PipelineKind::SimplePipelined,
            SliceWidth::W16,
            Optimizations::none(),
        )
    }

    /// Naive 4-deep EX pipelining, atomic operands. L1D latency rises to 2
    /// cycles, as the paper does for its slice-by-4 experiments.
    pub fn simple4() -> MachineConfig {
        let mut c = Self::table2_base(
            PipelineKind::SimplePipelined,
            SliceWidth::W8,
            Optimizations::none(),
        );
        c.memory.l1_latency = 2;
        c
    }

    /// Bit-sliced, two 16-bit slices, with the given techniques.
    pub fn slice2(opts: Optimizations) -> MachineConfig {
        Self::table2_base(PipelineKind::BitSliced, SliceWidth::W16, opts)
    }

    /// Bit-sliced, four 8-bit slices, with the given techniques (L1D
    /// latency 2, per §7).
    pub fn slice4(opts: Optimizations) -> MachineConfig {
        let mut c = Self::table2_base(PipelineKind::BitSliced, SliceWidth::W8, opts);
        c.memory.l1_latency = 2;
        c
    }

    /// Slice-by-2 with every technique (the paper's headline
    /// configuration).
    pub fn slice2_full() -> MachineConfig {
        Self::slice2(Optimizations::all())
    }

    /// Slice-by-4 with every technique.
    pub fn slice4_full() -> MachineConfig {
        Self::slice4(Optimizations::all())
    }

    /// A stable 64-bit fingerprint of every configuration field.
    ///
    /// Hashes the canonical `Debug` rendering through
    /// [`crate::hash::fnv1a_64`], so two configs fingerprint equal iff
    /// they are field-for-field identical — nested cache/frontend
    /// settings included, and new fields are covered by construction.
    /// This is the single source of config identity for the bench
    /// layer: compare reports, sweep dedup, and the artifact cache all
    /// key on it (stable across runs and hosts, unlike `std::hash`).
    pub fn fingerprint(&self) -> u64 {
        crate::hash::fnv1a_64(format!("{self:?}").as_bytes())
    }

    /// Number of operand slices in this configuration.
    pub fn slice_count(&self) -> usize {
        match self.kind {
            PipelineKind::Ideal => 1,
            _ => self.slicing.count(),
        }
    }

    /// Bits per slice.
    pub fn slice_bits(&self) -> u32 {
        32 / self.slice_count() as u32
    }

    /// Reject degenerate configurations before simulation.
    ///
    /// Checks the structural invariants the pipeline assumes — nonzero
    /// fetch width and window/LSQ capacity, a slice width that divides
    /// 32, and power-of-two cache geometries. Resource *scarcity*
    /// (`mem_ports: 0`, `int_alus: 0`) is deliberately legal: such
    /// machines construct fine and simply never make progress, which is
    /// the watchdog's job to report (see
    /// [`SimError::Deadlock`](crate::SimError)).
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |field, message: String| Err(ConfigError { field, message });
        if self.width == 0 {
            return err(
                "width",
                "fetch/issue/commit width must be at least 1".into(),
            );
        }
        if self.ruu_size == 0 {
            return err(
                "ruu_size",
                "instruction window needs at least one entry".into(),
            );
        }
        if self.lsq_size == 0 {
            return err(
                "lsq_size",
                "load/store queue needs at least one entry".into(),
            );
        }
        let slices = self.slice_count();
        if slices == 0 || 32 % slices != 0 {
            return err(
                "slicing",
                format!("slice count {slices} must divide the 32-bit operand width"),
            );
        }
        for (field, c) in [
            ("memory.l1i", &self.memory.l1i),
            ("memory.l1d", &self.memory.l1d),
            ("memory.l2", &self.memory.l2),
        ] {
            Self::validate_cache(field, c)?;
        }
        Ok(())
    }

    fn validate_cache(field: &'static str, c: &CacheConfig) -> Result<(), ConfigError> {
        let err = |message: String| Err(ConfigError { field, message });
        if c.line_bytes == 0 || !c.line_bytes.is_power_of_two() {
            return err(format!("line size {} must be a power of two", c.line_bytes));
        }
        if c.ways == 0 || !c.ways.is_power_of_two() {
            return err(format!("associativity {} must be a power of two", c.ways));
        }
        if c.ways > MAX_WAYS {
            return err(format!(
                "associativity {} above the supported {MAX_WAYS}",
                c.ways
            ));
        }
        // u64 arithmetic so absurd geometries error instead of
        // overflowing the intermediate products.
        let set_bytes = c.line_bytes as u64 * c.ways as u64;
        if (c.size_bytes as u64) < set_bytes {
            return err(format!(
                "capacity {} below one set ({set_bytes} bytes)",
                c.size_bytes
            ));
        }
        let sets = c.sets();
        if !sets.is_power_of_two() || sets as u64 * set_bytes != c.size_bytes as u64 {
            return err(format!(
                "geometry {}B/{}B/{}-way yields {} sets (want a power of two)",
                c.size_bytes, c.line_bytes, c.ways, sets
            ));
        }
        Ok(())
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self.kind {
            PipelineKind::Ideal => "ideal".into(),
            PipelineKind::SimplePipelined => format!("simple-{}", self.slice_count()),
            PipelineKind::BitSliced => format!("slice-{}", self.slice_count()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_covers_every_field() {
        let base = MachineConfig::slice2_full();
        assert_eq!(
            base.fingerprint(),
            MachineConfig::slice2_full().fingerprint()
        );
        assert_ne!(base.fingerprint(), MachineConfig::ideal().fingerprint());
        // Perturbations of top-level and nested fields all register.
        let mut c = base;
        c.watchdog += 1;
        assert_ne!(c.fingerprint(), base.fingerprint());
        let mut c = base;
        c.isa = IsaKind::Rv32;
        assert_ne!(c.fingerprint(), base.fingerprint());
        assert_eq!(base.isa.name(), "pisa");
        assert_eq!(c.isa.name(), "rv32");
        let mut c = base;
        c.memory.l1_latency += 1;
        assert_ne!(c.fingerprint(), base.fingerprint());
        let mut c = base;
        c.opts.partial_tag = false;
        assert_ne!(c.fingerprint(), base.fingerprint());
    }

    #[test]
    fn presets_match_table2() {
        let c = MachineConfig::ideal();
        assert_eq!(c.width, 4);
        assert_eq!(c.ruu_size, 64);
        assert_eq!(c.lsq_size, 32);
        assert_eq!(c.front_depth, 12);
        assert_eq!(c.memory.l2_latency, 6);
        assert_eq!(c.memory.mem_latency, 100);
        assert_eq!(c.slice_count(), 1);

        assert_eq!(MachineConfig::slice2_full().slice_count(), 2);
        assert_eq!(MachineConfig::slice2_full().slice_bits(), 16);
        assert_eq!(MachineConfig::slice4_full().slice_count(), 4);
        assert_eq!(MachineConfig::slice4_full().memory.l1_latency, 2);
        assert_eq!(MachineConfig::simple4().memory.l1_latency, 2);
        assert_eq!(MachineConfig::simple2().memory.l1_latency, 1);
    }

    #[test]
    fn cumulative_levels() {
        let l0 = Optimizations::level(0);
        assert_eq!(l0, Optimizations::none());
        let l3 = Optimizations::level(3);
        assert!(l3.partial_bypass && l3.ooo_slices && l3.early_branch);
        assert!(!l3.early_disambig && !l3.partial_tag);
        assert_eq!(Optimizations::level(5), Optimizations::all());
    }

    #[test]
    fn validate_accepts_every_preset() {
        for cfg in [
            MachineConfig::ideal(),
            MachineConfig::simple2(),
            MachineConfig::simple4(),
            MachineConfig::slice2_full(),
            MachineConfig::slice4_full(),
        ] {
            cfg.validate().expect("presets are well-formed");
            assert!(!cfg.oracle, "oracle lockstep must default off");
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let mut c = MachineConfig::ideal();
        c.width = 0;
        assert_eq!(c.validate().unwrap_err().field, "width");

        let mut c = MachineConfig::ideal();
        c.ruu_size = 0;
        assert_eq!(c.validate().unwrap_err().field, "ruu_size");

        let mut c = MachineConfig::ideal();
        c.lsq_size = 0;
        assert_eq!(c.validate().unwrap_err().field, "lsq_size");

        // Non-power-of-two set count: 48 KiB direct-mapped with 32 B lines.
        let mut c = MachineConfig::ideal();
        c.memory.l1d.size_bytes = 48 * 1024;
        let e = c.validate().unwrap_err();
        assert_eq!(e.field, "memory.l1d");
        assert!(e.to_string().contains("sets"), "{e}");

        // Zero-byte lines.
        let mut c = MachineConfig::ideal();
        c.memory.l2.line_bytes = 0;
        assert_eq!(c.validate().unwrap_err().field, "memory.l2");

        // Absurd geometry must error, not overflow.
        let mut c = MachineConfig::ideal();
        c.memory.l1i.line_bytes = 1 << 31;
        c.memory.l1i.ways = 1 << 31;
        assert!(c.validate().is_err());

        // Recency ranks are u8: 256 ways is the limit.
        let mut c = MachineConfig::ideal();
        c.memory.l1d = CacheConfig::new(256 * 64, 64, 256);
        c.validate().expect("256 ways fit u8 recency ranks");
        c.memory.l1d = CacheConfig::new(512 * 64, 64, 512);
        let e = c.validate().unwrap_err();
        assert_eq!(e.field, "memory.l1d");
        assert!(e.to_string().contains("associativity 512"), "{e}");
    }

    #[test]
    fn validate_permits_starved_resources() {
        // Scarcity is the watchdog's domain, not validation's: a
        // zero-port machine is legal to build and deadlocks at runtime.
        let mut c = MachineConfig::ideal();
        c.mem_ports = 0;
        c.int_alus = 0;
        c.validate()
            .expect("resource starvation is not a config error");
    }

    #[test]
    fn labels() {
        assert_eq!(MachineConfig::ideal().label(), "ideal");
        assert_eq!(MachineConfig::simple2().label(), "simple-2");
        assert_eq!(MachineConfig::slice4_full().label(), "slice-4");
    }
}
