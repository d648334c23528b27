//! Per-layer replays for the traced run.
//!
//! The layers that run inside `Machine::run` cannot be timed from
//! outside it, so each is replayed alone on the same program's trace,
//! captured through `RefMachine::step`:
//!
//! * `primary` — `RefMachine::step` over the whole trace (the lockstep
//!   oracle's cost, which the Primary interpreter shares);
//! * `sched` — `Scheduler::{tick,insert,seal}` fed the captured trace
//!   with the machine's rules: rejects seal the list, every other
//!   instruction ticks the list once per Primary cycle then inserts,
//!   and reaching a cached block's tag seals the list and hands the
//!   block's trace to the VLIW Engine instead;
//! * `vliw` — `decode_block` on every sealed block, and
//!   `VliwEngine::exec_li_decoded` over a cached block whenever the
//!   trace reaches its tag (begin, every long instruction, rollback);
//! * `mem` — `Cache::access` over the trace's data addresses.
//!
//! The callers scale each per-operation cost by the operation counts
//! of the real run's `RunStats`, and label the result an estimate.

use crate::spans::{SpanId, Spans};
use dtsvliw_asm::Image;
use dtsvliw_core::MachineConfig;
use dtsvliw_isa::DynInstr;
use dtsvliw_mem::Cache;
use dtsvliw_primary::{Halt, PipelineModel, RefMachine};
use dtsvliw_sched::{InsertOutcome, Scheduler};
use dtsvliw_vliw::{decode_block, LiResult, VliwCache, VliwEngine};
use std::hint::black_box;
use std::time::Instant;

/// Trace entries replayed per batch (bounds the capture buffer).
const CHUNK: usize = 16_384;

/// Host time and operation counts of each replayed layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    pub primary_ns: f64,
    pub primary_instrs: u64,
    pub sched_ns: f64,
    pub sched_instrs: u64,
    pub decode_ns: f64,
    pub decode_blocks: u64,
    pub vliw_ns: f64,
    pub vliw_lis: u64,
    pub dcache_ns: f64,
    pub dcache_accesses: u64,
}

impl LayerCosts {
    pub fn add(&mut self, o: &LayerCosts) {
        self.primary_ns += o.primary_ns;
        self.primary_instrs += o.primary_instrs;
        self.sched_ns += o.sched_ns;
        self.sched_instrs += o.sched_instrs;
        self.decode_ns += o.decode_ns;
        self.decode_blocks += o.decode_blocks;
        self.vliw_ns += o.vliw_ns;
        self.vliw_lis += o.vliw_lis;
        self.dcache_ns += o.dcache_ns;
        self.dcache_accesses += o.dcache_accesses;
    }
}

/// One captured trace entry, in the form the Scheduler Unit sees it.
enum Fed {
    /// Tick the list `ticks` times, then insert.
    Insert {
        d: DynInstr,
        resident: u8,
        ticks: u32,
    },
    /// A non-schedulable event: seal the list.
    Reject { pc: u32, seq: u64 },
    /// The trace reached a cached block: seal the list before the VLIW
    /// Engine takes over.
    Enter { pc: u32, seq: u64 },
}

/// Mean cost of one `Instant::now()` pair, subtracted from each
/// individually timed block execution.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..N {
        black_box(Instant::now().elapsed());
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Time `RefMachine::step` over the trace, up to `budget` instructions.
/// Returns the exit code when the program halted.
fn replay_primary(
    image: &Image,
    budget: u64,
    spans: &mut Spans,
    parent: SpanId,
    costs: &mut LayerCosts,
) -> Result<Option<u32>, String> {
    let mut rm = RefMachine::new(image);
    loop {
        let span = spans.begin("primary.step", Some(parent));
        let t = Instant::now();
        let mut halted = None;
        for _ in 0..CHUNK {
            if rm.retired >= budget {
                break;
            }
            let s = rm.step().map_err(|e| format!("oracle: {e}"))?;
            if let Some(Halt::Exit(code)) = s.halt {
                halted = Some(code);
                break;
            }
        }
        costs.primary_ns += elapsed_ns(t);
        spans.end(span);
        if halted.is_some() || rm.retired >= budget {
            costs.primary_instrs = rm.retired;
            return Ok(halted);
        }
    }
}

/// Replay every layer of one program's run under `cfg`, up to `budget`
/// instructions. Returns the costs and the trace's exit code (`None`
/// when the budget ran out first); the exit code proves the VLIW
/// replays' rollbacks left the trace undisturbed.
pub fn replay(
    image: &Image,
    cfg: &MachineConfig,
    budget: u64,
    timer_ns: f64,
    spans: &mut Spans,
    parent: SpanId,
) -> Result<(LayerCosts, Option<u32>), String> {
    let mut costs = LayerCosts::default();
    let oracle_exit = replay_primary(image, budget, spans, parent, &mut costs)?;

    let mut rm = RefMachine::new(image);
    let mut sched = Scheduler::new(cfg.sched.clone());
    let mut vcache = VliwCache::new(cfg.vliw_cache);
    let mut engine = VliwEngine::with_scheme(cfg.store_scheme);
    let mut pipeline = PipelineModel::new(cfg.primary);
    // Cycle model for the tick counts, and the cache timed alone.
    let (mut icache, mut dcache) = (Cache::new(cfg.icache), Cache::new(cfg.dcache));
    let mut dcache_timed = Cache::new(cfg.dcache);
    let mut fed: Vec<Fed> = Vec::with_capacity(CHUNK);
    let mut addrs: Vec<u32> = Vec::with_capacity(CHUNK);
    let mut scratch: Vec<u32> = Vec::new();
    let mut reject_delay_slot = false;
    // Trace instructions still covered by the block the engine ran.
    let mut covered = 0u64;
    let mut exit = None;
    while exit.is_none() && rm.retired < budget {
        let span = spans.begin("replay.capture", Some(parent));
        while fed.len() < CHUNK && exit.is_none() && rm.retired < budget {
            let (pc, cwp, resident) = (rm.state.pc, rm.state.cwp, rm.state.resident);
            if covered == 0 && vcache.peek(pc, cwp, resident) {
                let (block, dec) = vcache
                    .lookup_decoded(pc, cwp, resident)
                    .ok_or("VLIW Cache peek and lookup disagree")?;
                fed.push(Fed::Enter {
                    pc,
                    seq: rm.retired,
                });
                let t = Instant::now();
                engine.begin_block(&block, &rm.state);
                let mut li = 0;
                let mut result = LiResult::Next;
                while li < dec.rows.len() && result == LiResult::Next {
                    result = engine
                        .exec_li_decoded(&dec, li, &mut rm.state, &mut rm.mem, &mut scratch)
                        .map_err(|e| format!("engine: {e}"))?
                        .result;
                    li += 1;
                }
                if engine.in_block() {
                    engine
                        .rollback(&mut rm.state, &mut rm.mem)
                        .map_err(|e| format!("engine: {e}"))?;
                }
                costs.vliw_ns += (elapsed_ns(t) - timer_ns).max(0.0);
                covered = match result {
                    LiResult::BlockEnd => block.trace_len as u64,
                    LiResult::Redirect { branch_seq, .. } => branch_seq - block.first_seq + 2,
                    _ => 0,
                };
                if rm.state.pc != pc {
                    return Err(format!("rollback left pc {:#x}, not {pc:#x}", rm.state.pc));
                }
            }
            let s = rm.step().map_err(|e| format!("trace: {e}"))?;
            let d = s.dyn_instr;
            if let Some(Halt::Exit(code)) = s.halt {
                exit = Some(code);
            }
            if let Some(a) = d.eff_addr {
                addrs.push(a);
            }
            if covered > 0 {
                covered -= 1;
                pipeline.reset();
                reject_delay_slot = false;
                continue;
            }
            let mut ticks =
                pipeline.cycles_for(&d, s.window_trap) + icache.access_cost(d.pc) as u64;
            if let Some(a) = d.eff_addr {
                ticks += dcache.access_cost(a) as u64;
            }
            let live_delay_cti = d.instr.is_cti() && !d.delay_is_nop;
            if d.instr.is_non_schedulable() || s.window_trap || live_delay_cti || reject_delay_slot
            {
                fed.push(Fed::Reject {
                    pc: d.pc,
                    seq: d.seq,
                });
            } else {
                fed.push(Fed::Insert {
                    d,
                    resident,
                    ticks: ticks as u32,
                });
            }
            reject_delay_slot = live_delay_cti;
        }
        spans.end(span);

        let span = spans.begin("sched.replay", Some(parent));
        let mut sealed = Vec::new();
        let t = Instant::now();
        for f in &fed {
            match f {
                Fed::Insert { d, resident, ticks } => {
                    for _ in 0..*ticks {
                        sched.tick();
                    }
                    if let InsertOutcome::Inserted(Some(b)) = sched.insert(d, *resident) {
                        sealed.push(b);
                    }
                }
                Fed::Reject { pc, seq } | Fed::Enter { pc, seq } => {
                    if let Some(b) = sched.seal(*pc, *seq) {
                        sealed.push(b);
                    }
                }
            }
        }
        costs.sched_ns += elapsed_ns(t);
        spans.end(span);

        let span = spans.begin("vliw.decode", Some(parent));
        let t = Instant::now();
        for b in &sealed {
            black_box(decode_block(black_box(b)));
        }
        costs.decode_ns += elapsed_ns(t);
        costs.decode_blocks += sealed.len() as u64;
        spans.end(span);
        for b in sealed {
            vcache.insert(b).map_err(|e| format!("VLIW Cache: {e}"))?;
        }

        let span = spans.begin("mem.dcache", Some(parent));
        let t = Instant::now();
        for &a in &addrs {
            black_box(dcache_timed.access(black_box(a)));
        }
        costs.dcache_ns += elapsed_ns(t);
        costs.dcache_accesses += addrs.len() as u64;
        spans.end(span);
        fed.clear();
        addrs.clear();
    }
    costs.sched_instrs = sched.stats().instrs;
    costs.vliw_lis = engine.stats().lis;
    if exit != oracle_exit {
        return Err(format!(
            "replayed trace exited {exit:?}, the oracle alone {oracle_exit:?}"
        ));
    }
    Ok((costs, exit))
}
