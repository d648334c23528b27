//! The Scheduler Unit of the DTSVLIW machine (paper §3.2–§3.3, §3.7–§3.9).
//!
//! The Scheduler Unit receives each instruction as it completes in the
//! Primary Processor and packs the dynamic trace into *blocks* of long
//! (VLIW) instructions using a pipelined hardware form of the
//! First-Come-First-Served list-scheduling algorithm:
//!
//! * an incoming instruction joins the **tail element** of the scheduling
//!   list if it has no true/output/anti/control/resource dependency on
//!   anything already there, otherwise it opens a new element;
//! * on every subsequent cycle the instruction — held as the element's
//!   **candidate** with a **companion** copy occupying a slot of the long
//!   instruction — tries to move one element up. A true or resource
//!   dependency on the element above **installs** it where it is; an
//!   output dependency on the element above, an anti dependency on its
//!   own element, or a conditional/indirect branch in its own element
//!   force a **split**: the conflicting outputs are renamed, the
//!   companion is left behind as a `COPY rename → original`, and the
//!   renamed instruction keeps climbing;
//! * conditional and indirect branches never move, establish **branch
//!   tags** that gate the commit of later instructions placed in the
//!   same long instruction, and record their observed direction;
//! * loads and stores carry an **order** field and a **cross** bit for
//!   the VLIW Engine's memory-aliasing detection (§3.10).
//!
//! This simulator resolves every candidate once per cycle, head-first,
//! which computes the same fixpoint as the paper's carry-lookahead
//! install/split signal equations (§3.7); the [`signals`] module
//! implements those equations directly and the test-suite checks the two
//! agree cycle by cycle. The paper's circular-list flush machinery
//! (scheduling-list head/tail and output-long-instruction-pointer
//! registers) overlaps block write-out with new insertions without ever
//! stalling, so the simulator seals blocks atomically — architecturally
//! indistinguishable, and stated here so the substitution is auditable.

pub mod block;
pub mod scheduler;
pub mod signals;
pub mod snapshot;

pub use block::{Block, CopyInstr, LongInstr, RenameCounts, RenamePairs, ScheduledInstr, SlotOp};
pub use scheduler::{InsertOutcome, Resolution, ResolveEvent, SchedConfig, SchedStats, Scheduler};
