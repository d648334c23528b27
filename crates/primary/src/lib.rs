//! The Primary Processor of the DTSVLIW machine.
//!
//! "The Primary Processor is a simple pipelined processor that is capable
//! of executing all instructions defined in the SPARC ISA" (paper §3.1).
//! This crate provides:
//!
//! * [`interp`]: the architectural interpreter — one instruction per
//!   [`interp::step`] (or [`interp::execute`], the same semantics
//!   recording nothing), with full delayed-control-transfer semantics,
//!   register-window overflow/underflow spill and fill, and the trap
//!   interface used for program exit, self-check failure and console
//!   output;
//! * [`pipeline`]: the paper's Table 1 cost model — a four-stage
//!   (fetch, decode, execute, write-back) pipeline with no branch
//!   prediction, a 3-cycle bubble on not-taken branches and a 1-cycle
//!   load-use bubble;
//! * [`refmach`]: the *test machine* of the paper's §4 — a standalone
//!   sequential SPARC machine used both to co-simulate/verify the
//!   DTSVLIW and to count the sequential instructions that define the
//!   IPC numerator.

pub mod interp;
pub mod pipeline;
pub mod refmach;

pub use interp::{step, Halt, Step, StepError};
pub use pipeline::{PipelineModel, PrimaryTiming};
pub use refmach::{RefMachine, RunOutcome};

/// Trap codes understood by the simulated machine (`ta code`).
pub mod trap {
    /// Normal program exit; the exit value is in `%o0`.
    pub const EXIT: u8 = 0;
    /// Self-check failure; the failure site id is in `%o0`.
    pub const FAIL: u8 = 1;
    /// Write the low byte of `%o0` to the console buffer.
    pub const PUTC: u8 = 2;
    /// Print `%o0` as an unsigned decimal to the console buffer.
    pub const PUTU: u8 = 3;
}
