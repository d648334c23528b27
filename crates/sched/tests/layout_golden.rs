//! Golden values for the storage form of a block: `Block::content_hash`
//! and the `block_to_json` bytes of hand-built blocks are pinned here, so
//! any change to how long instructions are stored must leave both the
//! VLIW Cache integrity checksums and the snapshot documents
//! byte-identical. The blocks cover an empty middle row, a COPY, a
//! 64-wide row (the highest slot a `u64` occupancy mask can name) and an
//! instruction whose sources were redirected through `src_renames`.

use dtsvliw_isa::insn::{AluOp, Instr, MemOp, Src2};
use dtsvliw_isa::{Cond, DynInstr, Resource};
use dtsvliw_json::Json;
use dtsvliw_sched::block::RenameCounts;
use dtsvliw_sched::snapshot::{block_from_json, block_to_json};
use dtsvliw_sched::{Block, CopyInstr, LongInstr, ScheduledInstr, SlotOp};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn dyn_of(seq: u64, instr: Instr) -> DynInstr {
    DynInstr {
        seq,
        pc: 0x1000 + 4 * seq as u32,
        instr,
        cwp_before: 1,
        cwp_after: 1,
        eff_addr: instr.is_mem().then_some(0x4000 + 8 * seq as u32),
        taken: instr.is_conditional_or_indirect().then_some(true),
        target: instr.is_conditional_or_indirect().then_some(0x1000),
        delay_is_nop: true,
    }
}

fn sched(seq: u64, instr: Instr, tag: u8) -> SlotOp {
    let d = dyn_of(seq, instr);
    SlotOp::Instr(ScheduledInstr {
        reads: d.reads(),
        writes: d.writes(),
        d,
        tag,
        ls_order: None,
        cross: false,
        src_renames: Vec::new(),
    })
}

fn add(seq: u64, rd: u8, rs1: u8) -> Instr {
    Instr::Alu {
        op: AluOp::Add,
        cc: false,
        rd,
        rs1,
        src2: Src2::Imm(seq as i32),
    }
}

fn block(tag_addr: u32, lis: Vec<LongInstr>) -> Block {
    Block {
        tag_addr,
        entry_cwp: 1,
        entry_resident: 2,
        window_sensitive: false,
        lis,
        nba_addr: tag_addr + 0x40,
        renames: RenameCounts {
            int: 1,
            fp: 0,
            flag: 0,
            mem: 1,
        },
        first_seq: 1,
        trace_len: 9,
    }
}

/// Four slots, three rows: a split add with its COPY, an empty middle
/// row, then a redirected consumer beside an ordered, crossed store.
fn mixed_block() -> Block {
    let mut top = LongInstr::empty(4);
    let mut split = sched(1, add(1, 9, 8), 0);
    if let SlotOp::Instr(s) = &mut split {
        s.writes = [Resource::IntRen(0)].into_iter().collect();
    }
    top.set(1, split);
    top.set(
        3,
        SlotOp::Copy(CopyInstr {
            pairs: [(Resource::IntRen(0), Resource::Int(25))]
                .into_iter()
                .collect(),
            tag: 1,
            ls_order: None,
            cross: false,
            orig_seq: 1,
        }),
    );
    let mut bottom = LongInstr::empty(4);
    let mut consumer = sched(3, add(3, 10, 9), 1);
    if let SlotOp::Instr(s) = &mut consumer {
        s.src_renames = vec![(Resource::Int(25), Resource::IntRen(0))];
    }
    bottom.set(2, consumer);
    let mut store = sched(
        4,
        Instr::Mem {
            op: MemOp::St,
            rd: 10,
            rs1: 14,
            src2: Src2::Imm(8),
        },
        2,
    );
    if let SlotOp::Instr(s) = &mut store {
        s.ls_order = Some(0);
        s.cross = true;
    }
    bottom.set(0, store);
    block(0x1000, vec![top, LongInstr::empty(4), bottom])
}

/// Sixty-four slots: ops in the lowest, a middle and the highest slot,
/// a branch among them, and a memory COPY carrying an order field.
fn wide_block() -> Block {
    let mut row = LongInstr::empty(64);
    row.set(63, sched(5, add(5, 11, 0), 0));
    row.set(
        0,
        sched(
            6,
            Instr::Bicc {
                cond: Cond::Ne,
                disp22: -4,
            },
            0,
        ),
    );
    row.set(
        31,
        SlotOp::Copy(CopyInstr {
            pairs: [
                (
                    Resource::MemRen(0),
                    Resource::Mem {
                        addr: 0x4010,
                        size: 4,
                    },
                ),
                (Resource::IntRen(1), Resource::Int(12)),
            ]
            .into_iter()
            .collect(),
            tag: 1,
            ls_order: Some(3),
            cross: true,
            orig_seq: 7,
        }),
    );
    let mut last = LongInstr::empty(64);
    last.set(62, sched(8, add(8, 13, 11), 1));
    block(0x2000, vec![row, last])
}

/// One slot per row and no ops at all: the degenerate shapes.
fn empty_rows_block() -> Block {
    block(0x3000, vec![LongInstr::empty(1), LongInstr::empty(1)])
}

/// `(name, block, content_hash, fnv1a of the block_to_json text, its length)`.
fn golden() -> [(&'static str, Block, u64, u64, usize); 3] {
    [
        (
            "mixed",
            mixed_block(),
            0x525aca274bf9dc4c,
            0x66238848b6798a67,
            1049,
        ),
        (
            "wide",
            wide_block(),
            0x3b40c4708d71be9d,
            0x6e3411449901b374,
            1606,
        ),
        (
            "empty_rows",
            empty_rows_block(),
            0x708eb2a9ec9bf81a,
            0xfcc720c90d06ca6f,
            187,
        ),
    ]
}

#[test]
fn content_hash_and_json_bytes_match_golden() {
    let (mut want, mut got, mut report) = (Vec::new(), Vec::new(), String::new());
    for (name, b, hash, json_fnv, json_len) in golden() {
        let text = block_to_json(&b).to_string();
        let now = (b.content_hash(), fnv1a(text.as_bytes()), text.len());
        report.push_str(&format!(
            "(\"{name}\", {name}_block(), {:#018x}, {:#018x}, {}),\n",
            now.0, now.1, now.2
        ));
        want.push((hash, json_fnv, json_len));
        got.push(now);
    }
    assert_eq!(got, want, "golden mismatch; current values:\n{report}");
}

#[test]
fn json_round_trip_is_exact() {
    for (name, b, ..) in golden() {
        let text = block_to_json(&b).to_string();
        let back = block_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, b, "{name}");
        assert_eq!(block_to_json(&back).to_string(), text, "{name}");
        assert_eq!(back.content_hash(), b.content_hash(), "{name}");
    }
}

#[test]
fn json_keeps_one_null_per_empty_slot() {
    let j = block_to_json(&wide_block());
    let rows = j.get("lis").unwrap().as_arr().unwrap();
    let widths: Vec<usize> = rows.iter().map(|r| r.as_arr().unwrap().len()).collect();
    assert_eq!(widths, [64, 64]);
    let nulls = |r: &Json| {
        r.as_arr()
            .unwrap()
            .iter()
            .filter(|s| matches!(s, Json::Null))
            .count()
    };
    assert_eq!(nulls(&rows[0]), 61);
    assert_eq!(nulls(&rows[1]), 63);
}
