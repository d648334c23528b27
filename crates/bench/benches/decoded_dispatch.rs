//! Raw-dispatch microbenchmark for the pre-decoded execution form: how
//! fast the VLIW Engine issues long instructions through
//! `exec_li_decoded`, independent of the Primary Processor, the
//! lockstep oracle and the workloads. This is the VLIW loop's own trend
//! line — a dispatch regression shows up here even when workload-level
//! throughput hides it behind the oracle's floor.
//!
//! Dependency-free manual harness (`harness = false`), same timing
//! scheme as `benches/simulator.rs`: warm-up call, best of 5 samples,
//! determinism assert on the returned check value.

use dtsvliw_asm::Image;
use dtsvliw_isa::insn::{Instr, Src2};
use dtsvliw_isa::{phys_reg, AluOp, ArchState, DynInstr, ResList, Resource};
use dtsvliw_mem::Memory;
use dtsvliw_primary::RefMachine;
use dtsvliw_sched::block::RenameCounts;
use dtsvliw_sched::scheduler::{SchedConfig, Scheduler};
use dtsvliw_sched::{Block, InsertOutcome, LongInstr, ScheduledInstr, SlotOp};
use dtsvliw_vliw::{decode_block, LiResult, VliwEngine};
use dtsvliw_workloads::{by_name, Scale};
use std::time::Instant;

const SAMPLES: usize = 5;

fn bench(name: &str, elements: u64, mut f: impl FnMut() -> u64) {
    let check = f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let got = f();
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(got, check, "nondeterministic benchmark body");
        best = best.min(dt);
    }
    let rate = elements as f64 / best / 1e6;
    println!("{name:<34}{:>10.3} ms{:>10.2} M elem/s", best * 1e3, rate);
}

/// A fully-occupied synthetic block: `height` rows of `width`
/// independent integer adds (`%oN = %g1 + k`), every operand already a
/// physical index after decode — the pure table-dispatch ceiling.
fn synthetic_block(width: usize, height: usize) -> Block {
    let slot = |rd: u8, k: i32, seq: u64| {
        let mut writes = ResList::default();
        writes.push(Resource::Int(phys_reg(0, rd)));
        SlotOp::Instr(ScheduledInstr {
            d: DynInstr {
                seq,
                pc: 0x1000 + 4 * seq as u32,
                instr: Instr::Alu {
                    op: AluOp::Add,
                    cc: false,
                    rd,
                    rs1: 1,
                    src2: Src2::Imm(k),
                },
                cwp_before: 0,
                cwp_after: 0,
                eff_addr: None,
                taken: None,
                target: None,
                delay_is_nop: true,
            },
            reads: ResList::default(),
            writes,
            tag: 1,
            ls_order: None,
            cross: false,
            src_renames: Vec::new(),
        })
    };
    let mut lis = Vec::new();
    let mut seq = 0u64;
    for _ in 0..height {
        let mut li = LongInstr::empty(width);
        for w in 0..width {
            // Distinct destinations within a row (%o0..): no conflicts.
            li.set(w, slot(8 + (w % 8) as u8, w as i32, seq));
            seq += 1;
        }
        lis.push(li);
    }
    Block {
        tag_addr: 0x1000,
        entry_cwp: 0,
        entry_resident: 1,
        window_sensitive: false,
        lis,
        nba_addr: 0x2000,
        renames: RenameCounts::default(),
        first_seq: 0,
        trace_len: seq as u32,
    }
}

/// The first real block the Scheduler seals out of a workload's trace
/// (mixed ALU / memory / branch rows, renames, ls_order tags).
fn captured_block(workload: &str) -> (Block, Image) {
    let w = by_name(workload, Scale::Test).expect("known workload");
    let img = w.image();
    let mut m = RefMachine::new(&img);
    let mut s = Scheduler::new(SchedConfig::homogeneous(8, 8));
    loop {
        let step = m.step().expect("trace prefix runs");
        if step.halt.is_some() {
            panic!("{workload} halted before sealing a block");
        }
        if step.dyn_instr.instr.is_non_schedulable() {
            continue;
        }
        s.tick();
        if let InsertOutcome::Inserted(Some(b)) = s.insert(&step.dyn_instr, 1) {
            if b.lis.len() >= 4 {
                return (b, img);
            }
        }
    }
}

/// The mutable half of a dispatch benchmark: engine, architectural
/// state, memory and the dcache scratch, reused across iterations.
struct Rig {
    engine: VliwEngine,
    state: ArchState,
    mem: Memory,
    dcache: Vec<u32>,
}

impl Rig {
    /// Execute every row of `dec` once from `entry`, returning
    /// committed ops; `rollback` undoes all effects so each iteration
    /// is identical.
    fn run_block_once(
        &mut self,
        block: &Block,
        dec: &dtsvliw_vliw::DecodedLine,
        entry: &ArchState,
        rollback: bool,
    ) -> u64 {
        self.state.clone_from(entry);
        self.engine.begin_block(block, &self.state);
        let mut committed = 0u64;
        let mut li = 0usize;
        loop {
            let out = self
                .engine
                .exec_li_decoded(dec, li, &mut self.state, &mut self.mem, &mut self.dcache)
                .expect("well-formed block");
            committed += out.committed as u64;
            match out.result {
                LiResult::Next => li += 1,
                LiResult::Exception { .. } => return committed, // already rolled back
                _ => break,
            }
        }
        if rollback {
            self.engine
                .rollback(&mut self.state, &mut self.mem)
                .expect("checkpoint rollback succeeds");
        } else {
            self.engine.commit_block(&mut self.mem);
        }
        committed
    }
}

fn main() {
    println!("{:<34}{:>13}{:>18}", "benchmark", "best", "throughput");
    const ITERS: u64 = 20_000;

    // Pure dispatch ceiling: synthetic all-ALU decoded lines.
    for (w, h) in [(4usize, 8usize), (8, 8), (16, 8)] {
        let block = synthetic_block(w, h);
        let dec = decode_block(&block);
        let ops = dec.ops.len() as u64;
        let entry = ArchState::new(0x1000);
        let mut rig = Rig {
            engine: VliwEngine::new(),
            state: entry.clone(),
            mem: Memory::new(),
            dcache: Vec::new(),
        };
        bench(
            &format!("decoded/synthetic_alu_{w}x{h}"),
            ITERS * ops,
            || {
                let mut total = 0u64;
                for _ in 0..ITERS {
                    total += rig.run_block_once(&block, &dec, &entry, false);
                }
                total
            },
        );
    }

    // Realistic mix: the first sealed block of a workload trace,
    // rolled back every iteration so loads and branch directions see
    // identical state each time.
    for w in ["compress", "go"] {
        let (block, img) = captured_block(w);
        let dec = decode_block(&block);
        let ops = dec.ops.len() as u64;
        let mut mem = Memory::new();
        img.load_into(&mut mem);
        let mut entry = ArchState::new(block.tag_addr);
        entry.cwp = block.entry_cwp;
        entry.resident = block.entry_resident;
        let mut rig = Rig {
            engine: VliwEngine::new(),
            state: entry.clone(),
            mem,
            dcache: Vec::new(),
        };
        bench(&format!("decoded/captured_{w}"), ITERS * ops, || {
            let mut total = 0u64;
            for _ in 0..ITERS {
                total += rig.run_block_once(&block, &dec, &entry, true);
            }
            total
        });
    }
}
