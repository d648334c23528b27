//! Focused unit tests of individual Scheduler Unit mechanisms: typed
//! functional-unit slots, branch tags with several branches per long
//! instruction, rename accounting, seal bookkeeping and greedy settling.

use dtsvliw_isa::insn::{AluOp, FuClass, Instr, MemOp, Src2};
use dtsvliw_isa::{Cond, DynInstr};
use dtsvliw_sched::scheduler::{SchedConfig, Scheduler};
use dtsvliw_sched::{InsertOutcome, SlotOp};

fn dyn_of(seq: u64, instr: Instr) -> DynInstr {
    DynInstr {
        seq,
        pc: 0x1000 + 4 * seq as u32,
        instr,
        cwp_before: 0,
        cwp_after: 0,
        eff_addr: if instr.is_mem() {
            Some(0x4000 + 16 * seq as u32)
        } else {
            None
        },
        taken: if instr.is_conditional_or_indirect() {
            Some(true)
        } else {
            None
        },
        target: if instr.is_conditional_or_indirect() {
            Some(0x1000)
        } else {
            None
        },
        delay_is_nop: true,
    }
}

fn alu(seq: u64, rd: u8, rs1: u8) -> DynInstr {
    dyn_of(
        seq,
        Instr::Alu {
            op: AluOp::Add,
            cc: false,
            rd,
            rs1,
            src2: Src2::Imm(1),
        },
    )
}

fn feed(s: &mut Scheduler, d: &DynInstr) -> Option<dtsvliw_sched::Block> {
    s.tick();
    match s.insert(d, 1) {
        InsertOutcome::Inserted(b) => b,
        InsertOutcome::Ignored => None,
    }
}

#[test]
fn typed_slots_constrain_placement() {
    // One load/store slot: two independent loads cannot share a long
    // instruction.
    let cfg = SchedConfig {
        width: 3,
        height: 8,
        slot_classes: vec![FuClass::Integer, FuClass::LoadStore, FuClass::Branch],
        enable_splitting: true,
        enable_redirect: true,
        latencies: Default::default(),
    };
    let mut s = Scheduler::new(cfg);
    let ld1 = dyn_of(
        0,
        Instr::Mem {
            op: MemOp::Ld,
            rd: 9,
            rs1: 8,
            src2: Src2::Imm(0),
        },
    );
    let ld2 = dyn_of(
        1,
        Instr::Mem {
            op: MemOp::Ld,
            rd: 10,
            rs1: 8,
            src2: Src2::Imm(4),
        },
    );
    feed(&mut s, &ld1);
    feed(&mut s, &ld2);
    for _ in 0..8 {
        s.tick();
    }
    let b = s.seal(0, 100).unwrap();
    // Independent loads, but only one LS slot per long instruction:
    // they must land in different LIs.
    let positions: Vec<usize> = b
        .lis
        .iter()
        .enumerate()
        .filter(|(_, li)| {
            li.ops()
                .iter()
                .any(|o| matches!(o, SlotOp::Instr(i) if i.d.instr.is_load()))
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(positions.len(), 2);
    assert_ne!(positions[0], positions[1], "{b:?}");
}

#[test]
fn universal_slots_allow_parallel_loads() {
    let mut s = Scheduler::new(SchedConfig::homogeneous(3, 8));
    let ld1 = dyn_of(
        0,
        Instr::Mem {
            op: MemOp::Ld,
            rd: 9,
            rs1: 8,
            src2: Src2::Imm(0),
        },
    );
    let ld2 = dyn_of(
        1,
        Instr::Mem {
            op: MemOp::Ld,
            rd: 10,
            rs1: 8,
            src2: Src2::Imm(4),
        },
    );
    feed(&mut s, &ld1);
    feed(&mut s, &ld2);
    for _ in 0..8 {
        s.tick();
    }
    let b = s.seal(0, 100).unwrap();
    assert_eq!(
        b.lis.iter().filter(|li| li.len() == 2).count(),
        1,
        "loads share one LI"
    );
}

#[test]
fn multiple_branches_in_one_li_get_increasing_tags() {
    let mut s = Scheduler::new(SchedConfig::homogeneous(4, 4));
    // Two independent flag-less branches cannot exist (branches read
    // icc), so build: cmp ; branch ; branch — the second branch reads
    // the same flags and may share the first branch's long instruction.
    let cmp = dyn_of(
        0,
        Instr::Alu {
            op: AluOp::Sub,
            cc: true,
            rd: 0,
            rs1: 8,
            src2: Src2::Imm(0),
        },
    );
    let b1 = dyn_of(
        1,
        Instr::Bicc {
            cond: Cond::E,
            disp22: 8,
        },
    );
    let b2 = dyn_of(
        2,
        Instr::Bicc {
            cond: Cond::L,
            disp22: 16,
        },
    );
    feed(&mut s, &cmp);
    feed(&mut s, &b1);
    feed(&mut s, &b2);
    let block = s.seal(0, 100).unwrap();
    let branches: Vec<(usize, u8)> = block
        .lis
        .iter()
        .enumerate()
        .flat_map(|(i, li)| {
            li.ops()
                .iter()
                .filter(|o| o.is_branch())
                .map(move |o| (i, o.tag()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(branches.len(), 2);
    assert_eq!(branches[0].0, branches[1].0, "both branches in one LI");
    assert_eq!(branches[0].1, 0);
    assert_eq!(branches[1].1, 1, "second branch receives the next tag");
}

#[test]
fn op_after_branch_in_same_li_is_tagged() {
    let mut s = Scheduler::new(SchedConfig::homogeneous(4, 4));
    feed(
        &mut s,
        &dyn_of(
            0,
            Instr::Alu {
                op: AluOp::Sub,
                cc: true,
                rd: 0,
                rs1: 8,
                src2: Src2::Imm(0),
            },
        ),
    );
    feed(
        &mut s,
        &dyn_of(
            1,
            Instr::Bicc {
                cond: Cond::E,
                disp22: 8,
            },
        ),
    );
    // Independent add: joins the branch's long instruction, tagged 1.
    feed(&mut s, &alu(2, 10, 10));
    let b = s.seal(0, 100).unwrap();
    let tagged = b
        .lis
        .iter()
        .flat_map(|li| li.ops())
        .find(|o| matches!(o, SlotOp::Instr(i) if i.d.seq == 2))
        .unwrap();
    assert_eq!(tagged.tag(), 1, "tag established by the branch");
}

#[test]
fn rename_highwater_counts_per_block() {
    let mut s = Scheduler::new(SchedConfig::homogeneous(4, 8));
    // Repeated writers of the same register force output-dependency
    // splits as they climb.
    for k in 0..6 {
        feed(&mut s, &alu(k, 9, 8));
    }
    for _ in 0..10 {
        s.tick();
    }
    let b = s.seal(0, 100).unwrap();
    assert!(
        b.renames.int > 0,
        "output-dep chain forces integer renames: {:?}",
        b.renames
    );
    assert_eq!(s.stats().rename_hw.int, b.renames.int);
}

#[test]
fn seal_records_trace_bookkeeping() {
    let mut s = Scheduler::new(SchedConfig::homogeneous(2, 2));
    let mut sealed = Vec::new();
    // 10 dependent adds over a 2x2 block: forced overflow seals.
    for k in 0..10 {
        if let Some(b) = feed(&mut s, &alu(k, 9, 9)) {
            sealed.push(b);
        }
    }
    sealed.extend(s.seal(0xdead, 10));
    let total: u32 = sealed.iter().map(|b| b.trace_len).sum();
    assert_eq!(total, 10, "trace lengths tile the trace exactly");
    for w in sealed.windows(2) {
        assert_eq!(w[0].first_seq + w[0].trace_len as u64, w[1].first_seq);
    }
    assert_eq!(sealed.last().unwrap().nba_addr, 0xdead);
}

#[test]
fn settle_resolves_all_candidates() {
    let mut s = Scheduler::new(SchedConfig::homogeneous(4, 8));
    for k in 0..5 {
        s.insert(&alu(k, (9 + k as u8) % 14 + 8, 8), 1);
        s.settle();
    }
    // After settle, a tick must be a no-op (no unresolved candidates).
    let before = s.dump();
    s.tick();
    assert_eq!(before, s.dump());
}

#[test]
fn nop_and_ba_are_ignored_but_counted_in_trace_len() {
    let mut s = Scheduler::new(SchedConfig::homogeneous(2, 4));
    feed(&mut s, &alu(0, 9, 8));
    assert!(matches!(
        s.insert(&dyn_of(1, Instr::NOP), 1),
        InsertOutcome::Ignored
    ));
    assert!(matches!(
        s.insert(
            &dyn_of(
                2,
                Instr::Bicc {
                    cond: Cond::A,
                    disp22: 4
                }
            ),
            1
        ),
        InsertOutcome::Ignored
    ));
    feed(&mut s, &alu(3, 10, 8));
    let b = s.seal(0, 4).unwrap();
    assert_eq!(b.trace_instrs(), 2, "two real instructions");
    assert_eq!(
        b.trace_len, 4,
        "but the trace segment includes the nop and ba"
    );
}

#[test]
fn multicycle_load_spacing() {
    use dtsvliw_sched::scheduler::Latencies;
    // Load latency 2: the consumer must sit at least two long
    // instructions below the load.
    let mut cfg = SchedConfig::homogeneous(4, 8);
    cfg.latencies = Latencies { load: 2, fp: 1 };
    let mut s = Scheduler::new(cfg);
    let ld = dyn_of(
        0,
        Instr::Mem {
            op: MemOp::Ld,
            rd: 9,
            rs1: 8,
            src2: Src2::Imm(0),
        },
    );
    let consumer = alu(1, 10, 9); // reads %o1, the load's destination
    feed(&mut s, &ld);
    feed(&mut s, &consumer);
    for _ in 0..8 {
        s.tick();
    }
    let b = s.seal(0, 2).unwrap();
    let pos = |seq: u64| {
        b.lis
            .iter()
            .position(|li| {
                li.ops()
                    .iter()
                    .any(|o| matches!(o, SlotOp::Instr(i) if i.d.seq == seq))
            })
            .unwrap()
    };
    assert!(
        pos(1) - pos(0) >= 2,
        "consumer {} vs load {}: latency-2 spacing",
        pos(1),
        pos(0)
    );

    // Control: latency 1 allows adjacency.
    let mut s1 = Scheduler::new(SchedConfig::homogeneous(4, 8));
    feed(&mut s1, &ld);
    feed(&mut s1, &consumer);
    for _ in 0..8 {
        s1.tick();
    }
    let b1 = s1.seal(0, 2).unwrap();
    assert_eq!(b1.lis.iter().filter(|li| !li.is_empty()).count(), 2);
}

#[test]
fn multicycle_independent_work_fills_bubbles() {
    use dtsvliw_sched::scheduler::Latencies;
    // An independent add can occupy the latency bubble between a load
    // and its consumer.
    let mut cfg = SchedConfig::homogeneous(4, 8);
    cfg.latencies = Latencies { load: 3, fp: 1 };
    let mut s = Scheduler::new(cfg);
    feed(
        &mut s,
        &dyn_of(
            0,
            Instr::Mem {
                op: MemOp::Ld,
                rd: 9,
                rs1: 8,
                src2: Src2::Imm(0),
            },
        ),
    );
    feed(&mut s, &alu(1, 10, 9)); // dependent: >= 3 below
    feed(&mut s, &alu(2, 11, 11)); // independent: climbs into the bubble
    for _ in 0..10 {
        s.tick();
    }
    let b = s.seal(0, 3).unwrap();
    let pos = |seq: u64| {
        b.lis
            .iter()
            .position(|li| {
                li.ops()
                    .iter()
                    .any(|o| matches!(o, SlotOp::Instr(i) if i.d.seq == seq))
            })
            .unwrap()
    };
    assert!(pos(1) - pos(0) >= 3);
    assert!(pos(2) < pos(1), "independent work moved above the consumer");
}

#[test]
#[should_panic(expected = "MAX_WIDTH")]
fn width_beyond_the_slot_mask_is_refused() {
    Scheduler::new(SchedConfig::homogeneous(65, 2));
}

#[test]
#[should_panic(expected = "MAX_BLOCK_SLOTS")]
fn block_beyond_the_op_index_is_refused() {
    Scheduler::new(SchedConfig::homogeneous(64, 1024));
}

#[test]
fn widest_supported_geometry_schedules() {
    let mut s = Scheduler::new(SchedConfig::homogeneous(64, 16));
    for seq in 0..200 {
        s.tick();
        s.insert(&alu(seq, 8 + (seq % 20) as u8, 8 + (seq % 7) as u8), 1);
    }
    let b = s.seal(0, 200).expect("a block");
    assert!(b.lis.iter().all(|li| li.width() == 64));
}
