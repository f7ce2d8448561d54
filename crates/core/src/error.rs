//! Typed simulation errors: the `SimError` taxonomy.
//!
//! The timing model's failure modes fall into four classes, each with a
//! structured variant so callers (and the bench sweep executor) can react
//! without parsing panic strings:
//!
//! * [`SimError::InvalidConfig`] — the [`MachineConfig`](crate::MachineConfig)
//!   is degenerate ([`MachineConfig::validate`](crate::MachineConfig::validate)
//!   rejected it before any cycle was simulated).
//! * [`SimError::Emulation`] — the functional machine faulted while
//!   producing the dynamic trace (unmapped PC, misaligned access, …).
//! * [`SimError::Deadlock`] — the watchdog saw no retirement for
//!   `cfg.watchdog` consecutive cycles; carries a [`DeadlockSnapshot`]
//!   of the stuck pipeline.
//! * [`SimError::OracleDivergence`] — commit-time lockstep verification
//!   (see `core/src/oracle.rs`) caught the pipeline retiring an
//!   architectural value the reference machine disagrees with.

use crate::config::ConfigError;
use crate::json::Json;
use popk_emu::EmuError;
use std::fmt;

/// A typed simulation failure, returned by
/// [`try_simulate`](crate::try_simulate) and
/// [`Simulator::try_run`](crate::Simulator::try_run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed [`validate`](crate::MachineConfig::validate).
    InvalidConfig(ConfigError),
    /// The functional emulator faulted while generating the trace.
    Emulation(EmuError),
    /// No instruction retired for the configured watchdog interval.
    Deadlock(DeadlockSnapshot),
    /// Commit-time lockstep verification diverged from the reference
    /// machine: the pipeline retired a value the oracle disagrees with.
    OracleDivergence {
        /// Dynamic sequence number of the diverging instruction.
        seq: u64,
        /// Its program counter.
        pc: u32,
        /// Which architectural field diverged (`"pc"`, `"insn"`,
        /// `"dest0"`, `"dest1"`, `"ea"`, `"store_data"`, `"taken"`,
        /// `"next_pc"`, `"exited"`, or `"emulation"`).
        field: &'static str,
        /// The reference machine's value for that field.
        expected: u64,
        /// The value the pipeline retired.
        got: u64,
    },
    /// The run was canceled through the cooperative cancellation flag
    /// ([`Simulator::set_cancel`](crate::Simulator::set_cancel)) before
    /// reaching its instruction budget. Used by long-running hosts
    /// (the `popk serve` daemon) to abandon jobs whose clients are gone.
    Canceled,
}

impl SimError {
    /// A stable, lowercase machine-readable identifier for this error
    /// class. These are wire-protocol constants (see `popk-bench`'s
    /// serve module and EXPERIMENTS.md): renaming one is a protocol
    /// break, not a refactor.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::InvalidConfig(_) => "invalid_config",
            SimError::Emulation(_) => "emulation",
            SimError::Deadlock(_) => "deadlock",
            SimError::OracleDivergence { .. } => "oracle_divergence",
            SimError::Canceled => "canceled",
        }
    }

    /// The wire representation of this error: an object carrying the
    /// stable [`kind`](SimError::kind) plus the human-readable
    /// `Display` rendering.
    #[must_use]
    pub fn to_wire_json(&self) -> Json {
        let mut j = Json::object();
        j.set("kind", self.kind().into());
        j.set("message", self.to_string().into());
        j
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(e) => write!(f, "invalid machine configuration: {e}"),
            SimError::Emulation(e) => write!(f, "emulation error during timing run: {e}"),
            SimError::Deadlock(s) => write!(f, "pipeline deadlock: {s}"),
            SimError::OracleDivergence {
                seq,
                pc,
                field,
                expected,
                got,
            } => write!(
                f,
                "oracle divergence at seq {seq} pc {pc:#010x}: \
                 field `{field}` expected {expected:#x}, pipeline retired {got:#x}"
            ),
            SimError::Canceled => write!(f, "simulation canceled"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::InvalidConfig(e)
    }
}

impl From<EmuError> for SimError {
    fn from(e: EmuError) -> SimError {
        SimError::Emulation(e)
    }
}

/// The pipeline state captured when the watchdog fires: enough to see
/// *what* is stuck (the oldest window entries and the occupancy numbers)
/// without replaying the run under a trace sink.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockSnapshot {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Cycle of the last successful retirement (0 if none ever).
    pub last_commit_cycle: u64,
    /// Instructions committed before the stall.
    pub committed: u64,
    /// Window occupancy at the stall.
    pub window_len: usize,
    /// Load/store-queue occupancy at the stall.
    pub lsq_occupancy: usize,
    /// Fetched-but-undispatched instructions at the stall.
    pub feed_len: usize,
    /// Disassembly of the oldest window entries (up to four), oldest
    /// first — the head is the instruction refusing to retire.
    pub head: Vec<String>,
}

impl fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no retirement since cycle {} (now {}); {} committed, \
             window {} entries, lsq {}, feed {}",
            self.last_commit_cycle,
            self.cycle,
            self.committed,
            self.window_len,
            self.lsq_occupancy,
            self.feed_len,
        )?;
        if let Some(h) = self.head.first() {
            write!(f, "; head: {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_display_names_the_field() {
        let e = SimError::OracleDivergence {
            seq: 42,
            pc: 0x0040_0010,
            field: "dest0",
            expected: 7,
            got: 9,
        };
        let s = e.to_string();
        assert!(s.contains("seq 42"), "{s}");
        assert!(s.contains("dest0"), "{s}");
        assert!(s.contains("0x7") && s.contains("0x9"), "{s}");
    }

    #[test]
    fn deadlock_display_summarizes_the_stall() {
        let e = SimError::Deadlock(DeadlockSnapshot {
            cycle: 5000,
            last_commit_cycle: 100,
            committed: 12,
            window_len: 3,
            lsq_occupancy: 1,
            feed_len: 4,
            head: vec!["lw r9, 0(r16)".into()],
        });
        let s = e.to_string();
        assert!(s.contains("deadlock"), "{s}");
        assert!(s.contains("lw r9"), "{s}");
        assert!(s.contains("cycle 100"), "{s}");
    }

    #[test]
    fn kinds_are_stable_wire_identifiers() {
        let canceled = SimError::Canceled;
        assert_eq!(canceled.kind(), "canceled");
        assert_eq!(canceled.to_string(), "simulation canceled");
        let wire = canceled.to_wire_json().to_string();
        assert_eq!(
            wire,
            r#"{"kind":"canceled","message":"simulation canceled"}"#
        );
        let emu: SimError = popk_emu::EmuError::UnmappedPc { pc: 0x10 }.into();
        assert_eq!(emu.kind(), "emulation");
        assert!(emu
            .to_wire_json()
            .to_string()
            .contains("\"kind\":\"emulation\""));
    }

    #[test]
    fn emulation_errors_convert() {
        let e: SimError = popk_emu::EmuError::UnmappedPc { pc: 0x10 }.into();
        assert!(matches!(e, SimError::Emulation(_)));
        assert!(e.to_string().contains("emulation error"));
    }
}
