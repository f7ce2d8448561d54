//! # popk-core — the bit-sliced out-of-order timing model
//!
//! A cycle-level, trace-driven model of the paper's machine (Table 2,
//! Fig. 7, Fig. 10): a 4-wide, 15-stage out-of-order core with a 64-entry
//! RUU and 32-entry load/store queue, whose execute stage is either
//! unpipelined (the *ideal* baseline), naively pipelined (operands stay
//! atomic), or **bit-sliced**: operands decompose into 16- or 8-bit slices
//! tracked and scheduled independently.
//!
//! The five techniques of the paper are independent toggles
//! ([`Optimizations`]), applied cumulatively in Fig. 11's order:
//!
//! 1. *partial operand bypassing* — consumers wake slice-by-slice;
//! 2. *out-of-order slices* — logic-op slices may issue high-before-low;
//! 3. *early branch resolution* — `beq`/`bne` mispredicts redirect as soon
//!    as a differing slice is seen;
//! 4. *early load-store disambiguation* — loads pass older stores once
//!    low-order address slices prove a mismatch;
//! 5. *partial tag matching* — the L1D access starts after the first agen
//!    slice, with MRU way prediction verified a cycle later.
//!
//! ```no_run
//! use popk_core::{simulate, MachineConfig};
//! let w = popk_workloads::by_name("gzip").unwrap();
//! let program = w.program();
//! let ideal = simulate(&program, &MachineConfig::ideal(), 1_000_000);
//! let sliced = simulate(&program, &MachineConfig::slice2_full(), 1_000_000);
//! println!("IPC {:.3} vs {:.3}", ideal.ipc(), sliced.ipc());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod error;
pub mod events;
pub mod fault;
pub mod hash;
pub mod json;
mod oracle;
mod pipeline;
pub mod policies;
pub mod registry;
pub mod sim;
mod stats;
pub mod timeline;

pub use config::{ConfigError, IsaKind, MachineConfig, Optimizations, PipelineKind};
pub use error::{DeadlockSnapshot, SimError};
pub use events::{NullTrace, ReplayReason, StallReason, TraceEvent, TraceSink, VecTrace};
pub use fault::{FaultKinds, FaultLog, FaultPlan};
pub use json::{Json, JsonParseError};
pub use registry::{Counter, StatsRegistry};
pub use sim::{simulate, try_simulate, try_simulate_frontend, Scratch, Simulator};
pub use stats::SimStats;
pub use timeline::{render_chart, render_table, InsnTiming, TimelineBuilder};
