//! The VLIW half of the DTSVLIW machine.
//!
//! * [`cache`]: the VLIW Cache (paper §3.4) — a set-associative cache
//!   whose line is one block of long instructions, tagged with the SPARC
//!   address of the block's first instruction and carrying a
//!   next-block-address (nba) store.
//! * [`decoded`]: the pre-decoded execution form — each cached block is
//!   lowered on its first entry into a flat [`decoded::DecodedLine`] (contiguous slot
//!   array with pre-resolved operand sources) that the engine's hot loop
//!   dispatches over without re-walking the scheduling metadata.
//! * [`engine`]: the VLIW Engine (paper §3.5, §3.8, §3.10, §3.11) — a
//!   lock-stepped bank of fetch/execute/write-back pipelines that
//!   executes one long instruction per cycle, validates branch tags
//!   against recorded directions, detects memory aliasing with
//!   order/cross-bit fields plus associative load/store lists, and
//!   recovers from exceptions by checkpoint rollback.

pub mod cache;
pub mod decoded;
pub mod engine;

pub use cache::{EvictedBlock, VliwCache, VliwCacheConfig, VliwCacheStats};
pub use decoded::{
    decode_block, decode_block_into, CcSrc, DecodeArena, DecodedKind, DecodedLine, DecodedOp,
    DecodedRow, FpSrc, IntSrc, Src2D, StoreData,
};
pub use engine::{EngineError, EngineFaults, EngineStats, LiExec, LiResult, VliwEngine};
