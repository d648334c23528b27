//! Property tests: (a) the §3.7 signal-equation oracle predicts exactly
//! what the executable scheduler does, cycle by cycle; (b) every sealed
//! block is a valid parallel schedule of its trace — no long instruction
//! violates flow/output/anti ordering and branch tags are monotone.

use dtsvliw_isa::insn::{AluOp, Instr, MemOp, Src2};
use dtsvliw_isa::{Cond, DynInstr, Resource};
use dtsvliw_rng::check::{check, Gen};
use dtsvliw_sched::scheduler::{SchedConfig, Scheduler};
use dtsvliw_sched::signals::predict;
use dtsvliw_sched::{Block, InsertOutcome, SlotOp};
use std::ops::Range;

/// One trace instruction in table form `(op, rd, rs1, x)`: an ALU op
/// (`add`, `sub`, `xor`, `and`, each also with `cc`) with immediate
/// `x`, an `ld`/`st` of word `x` of a six-word array, or a taken
/// (`be+`) or not-taken (`be-`) branch.
type Row = (&'static str, u8, u8, i32);

/// A Scheduler Unit geometry `(w, h)` and a trace.
type Case = (usize, usize, Vec<Row>);

const ALU: [&str; 8] = [
    "add", "sub", "xor", "and", "addcc", "subcc", "xorcc", "andcc",
];

/// A trace of `size` instructions over a small register and address
/// universe, so dependencies are frequent.
fn arb_trace(g: &mut Gen) -> Vec<Row> {
    let row = |g: &mut Gen| {
        let (op, x) = match g.range(0..7) {
            0..=3 => (g.pick(&ALU), g.range(-8..8)),
            4 | 5 => (g.pick(&["ld", "st"]), g.range(0..6)),
            _ => return (g.pick(&["be+", "be-"]), 0, 0, 0),
        };
        (op, g.range(8..14), g.range(8..14), x)
    };
    (0..g.size()).map(|_| row(g)).collect()
}

fn arb_case(g: &mut Gen, w: Range<usize>, h: Range<usize>) -> Case {
    (g.range(w), g.range(h), arb_trace(g))
}

fn trace(rows: &[Row]) -> Vec<DynInstr> {
    (0..).zip(rows).map(dyn_of).collect()
}

fn dyn_of((seq, &(op, rd, rs1, x)): (u64, &Row)) -> DynInstr {
    let (instr, eff_addr, taken) = match op {
        "ld" | "st" => {
            let op = if op == "st" { MemOp::St } else { MemOp::Ld };
            let src2 = Src2::Imm(0);
            let mem = Instr::Mem { op, rd, rs1, src2 };
            (mem, Some(0x2000 + 4 * x as u32), None)
        }
        "be+" | "be-" => {
            let (cond, disp22) = (Cond::E, 4);
            (Instr::Bicc { cond, disp22 }, None, Some(op == "be+"))
        }
        _ => {
            let i = ALU.iter().position(|&a| a == op).expect("an ALU op");
            let op = [AluOp::Add, AluOp::Sub, AluOp::Xor, AluOp::And][i % 4];
            let (cc, src2) = (i >= 4, Src2::Imm(x));
            let alu = Instr::Alu {
                op,
                cc,
                rd,
                rs1,
                src2,
            };
            (alu, None, None)
        }
    };
    DynInstr {
        seq,
        pc: 0x1000 + 4 * seq as u32,
        instr,
        cwp_before: 0,
        cwp_after: 0,
        eff_addr,
        taken,
        target: taken.map(|t| if t { 0x1000 } else { 0x1008 }),
        delay_is_nop: true,
    }
}

/// Schedule `trace` on a `w`-wide, `h`-deep Scheduler Unit and seal
/// whatever is left at the end.
fn schedule(w: usize, h: usize, trace: &[DynInstr]) -> Vec<Block> {
    let mut s = Scheduler::new(SchedConfig::homogeneous(w, h));
    let mut blocks = Vec::new();
    for d in trace {
        s.tick();
        if let InsertOutcome::Inserted(Some(b)) = s.insert(d, 1) {
            blocks.push(b);
        }
    }
    blocks.extend(s.seal(0, u64::MAX / 2));
    blocks
}

/// One op of a sealed block flattened for invariant checking: its long
/// instruction, the trace position it stands for, and whether it is a
/// branch.
#[derive(Debug)]
struct FlatOp {
    li: usize,
    seq: u64,
    reads: Vec<Resource>,
    writes: Vec<Resource>,
    tag: u8,
    branch: bool,
}

fn flatten(b: &Block) -> Vec<FlatOp> {
    let mut out = Vec::new();
    for (li, row) in b.lis.iter().enumerate() {
        for op in row.ops() {
            let (seq, branch) = match op {
                SlotOp::Instr(i) => (i.d.seq, i.d.instr.is_conditional_or_indirect()),
                SlotOp::Copy(c) => (c.orig_seq, false),
            };
            out.push(FlatOp {
                li,
                seq,
                reads: op.reads().iter().copied().collect(),
                writes: op.writes().iter().copied().collect(),
                tag: op.tag(),
                branch,
            });
        }
    }
    out
}

/// Does any resource in `a` conflict with one in `b`?
fn overlap(a: &[Resource], b: &[Resource]) -> bool {
    a.iter().any(|x| b.iter().any(|y| y.conflicts(x)))
}

/// Assert the block is a valid parallel schedule.
fn check_block(b: &Block) {
    let ops = flatten(b);
    for r in &ops {
        for x in &r.reads {
            // Flow: the latest earlier writer of x commits strictly above.
            let earlier = ops.iter().filter(|w| w.seq < r.seq);
            let writer = earlier.filter(|w| overlap(&w.writes, std::slice::from_ref(x)));
            if let Some(w) = writer.max_by_key(|w| w.seq) {
                assert!(
                    w.li < r.li,
                    "flow violation: writer {w:?} not above reader {r:?}"
                );
            }
        }
    }
    for a in &ops {
        for b in ops.iter().filter(|b| a.seq < b.seq) {
            // Output: no two writers of one location in one LI.
            let output = overlap(&a.writes, &b.writes) && a.li == b.li;
            assert!(!output, "output violation: {a:?} and {b:?}");
            // Anti: a younger writer never commits above an older reader.
            let anti = overlap(&a.reads, &b.writes) && b.li < a.li;
            assert!(
                !anti,
                "anti violation: younger writer {b:?} above older reader {a:?}"
            );
            // Branch tags: within one LI, ops after a branch carry a larger tag.
            let tag = a.branch && a.li == b.li && b.tag <= a.tag;
            assert!(!tag, "tag violation: {b:?} after branch {a:?}");
        }
    }
}

/// A case that once broke the oracle, kept as a fixed input (w = 4, h = 5).
#[rustfmt::skip]
const REGRESSION: [Row; 120] = [
    ("add", 8, 8, 0), ("add", 8, 8, 0), ("add", 8, 8, 0), ("add", 8, 8, 0), ("add", 9, 9, 0),
    ("be-", 0, 0, 0), ("add", 9, 9, 0), ("add", 10, 10, 0), ("add", 9, 8, 0), ("add", 10, 10, 0),
    ("add", 11, 8, 0), ("add", 10, 8, 0), ("add", 10, 8, 0), ("add", 8, 11, 0), ("add", 8, 8, 0),
    ("add", 9, 8, 0), ("add", 8, 10, 0), ("add", 9, 8, 0), ("add", 9, 8, 0), ("add", 8, 8, 0),
    ("add", 8, 8, 0), ("add", 8, 8, 0), ("add", 8, 8, 0), ("add", 8, 8, 0), ("add", 11, 8, 0),
    ("add", 9, 9, 2), ("st", 9, 9, 5), ("xor", 8, 10, -3), ("ld", 13, 8, 0), ("ld", 12, 12, 5),
    ("addcc", 8, 12, 2), ("add", 13, 10, 4), ("andcc", 11, 13, 7), ("st", 13, 8, 1),
    ("ld", 13, 9, 3), ("and", 11, 13, 7), ("and", 10, 8, -5), ("subcc", 9, 10, -3),
    ("add", 11, 12, 6), ("add", 13, 12, -1), ("be+", 0, 0, 0), ("ld", 11, 11, 1), ("ld", 12, 8, 1),
    ("xorcc", 11, 10, 1), ("ld", 12, 9, 4), ("andcc", 8, 12, 3), ("be+", 0, 0, 0),
    ("subcc", 8, 8, 6), ("subcc", 13, 8, -7), ("xor", 8, 13, -8), ("addcc", 9, 11, 4),
    ("ld", 9, 12, 2), ("addcc", 9, 8, 3), ("ld", 13, 8, 3), ("add", 10, 9, -4), ("st", 11, 8, 2),
    ("ld", 8, 8, 5), ("andcc", 10, 11, -3), ("ld", 13, 8, 4), ("st", 8, 10, 4),
    ("andcc", 11, 11, -7), ("addcc", 8, 9, -2), ("subcc", 10, 11, 1), ("be+", 0, 0, 0),
    ("subcc", 9, 10, -5), ("and", 13, 9, -6), ("be-", 0, 0, 0), ("xorcc", 13, 11, -4),
    ("st", 13, 12, 4), ("xorcc", 9, 9, 7), ("xor", 9, 8, -3), ("xor", 11, 9, 2), ("ld", 11, 9, 3),
    ("st", 12, 11, 2), ("ld", 13, 13, 5), ("st", 12, 8, 5), ("ld", 13, 12, 4), ("be+", 0, 0, 0),
    ("be-", 0, 0, 0), ("sub", 12, 13, -6), ("addcc", 11, 11, 6), ("be+", 0, 0, 0),
    ("xor", 11, 9, -6), ("addcc", 10, 10, 3), ("xorcc", 9, 10, 1), ("xorcc", 9, 9, 0),
    ("addcc", 10, 12, -8), ("subcc", 8, 9, 0), ("addcc", 13, 9, 7), ("ld", 11, 12, 1),
    ("andcc", 9, 11, -7), ("be+", 0, 0, 0), ("and", 12, 13, -3), ("add", 9, 9, -1),
    ("addcc", 12, 12, -8), ("addcc", 12, 10, -4), ("sub", 12, 8, 2), ("andcc", 9, 13, 5),
    ("ld", 12, 12, 4), ("st", 11, 10, 0), ("xor", 8, 11, -3), ("subcc", 12, 9, -3),
    ("ld", 12, 10, 2), ("be-", 0, 0, 0), ("and", 13, 11, 5), ("sub", 10, 13, 5), ("be-", 0, 0, 0),
    ("sub", 12, 11, 5), ("be+", 0, 0, 0), ("sub", 11, 11, -1), ("st", 12, 11, 3), ("be+", 0, 0, 0),
    ("st", 10, 8, 4), ("add", 9, 10, 6), ("addcc", 12, 13, -6), ("xor", 10, 13, -5),
    ("add", 11, 10, 5), ("and", 8, 8, 2), ("sub", 8, 9, 4), ("subcc", 12, 13, 5),
];

fn oracle_agrees(&(w, h, ref rows): &Case) {
    let mut s = Scheduler::new(SchedConfig::homogeneous(w, h));
    s.trace_events = Some(Vec::new());
    for d in &trace(rows) {
        let predicted = predict(&s);
        s.trace_events.as_mut().unwrap().clear();
        s.tick();
        let actual = s.trace_events.as_ref().unwrap();
        assert_eq!(
            &predicted, actual,
            "signal equations disagree with the scheduler"
        );
        s.insert(d, 1);
    }
}

#[test]
fn oracle_matches_scheduler() {
    oracle_agrees(&(4, 5, REGRESSION.to_vec()));
    check(64, 120, |g| arb_case(g, 2..6, 2..6), oracle_agrees);
}

fn blocks_are_valid((w, h, rows): &Case) {
    let blocks = schedule(*w, *h, &trace(rows));
    assert!(!blocks.is_empty());
    blocks.iter().for_each(check_block);
}

#[test]
fn sealed_blocks_are_valid_schedules() {
    check(64, 200, |g| arb_case(g, 2..6, 2..8), blocks_are_valid);
}

#[test]
fn every_trace_instruction_lands_exactly_once() {
    // Each scheduled (non-ignored) instruction appears exactly once
    // across blocks, as an Instr op; splits add COPYs but never
    // duplicate or drop trace instructions.
    check(64, 150, arb_trace, |rows| {
        let trace = trace(rows);
        let mut seen = std::collections::HashMap::new();
        for li in schedule(4, 4, &trace).iter().flat_map(|b| &b.lis) {
            for op in li.ops() {
                if let SlotOp::Instr(i) = op {
                    *seen.entry(i.d.seq).or_insert(0) += 1;
                }
            }
        }
        for d in &trace {
            let ignored = d.instr.is_nop() || d.instr.is_unconditional_branch();
            let landed = seen.get(&d.seq).copied().unwrap_or(0);
            assert_eq!(
                landed, !ignored as i32,
                "instruction seq {} ({})",
                d.seq, d.instr
            );
        }
    });
}
