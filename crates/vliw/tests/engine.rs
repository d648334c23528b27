//! VLIW Engine execution tests: blocks built by the Scheduler Unit from
//! real traces must reproduce the reference machine's state, branch-tag
//! annulment must squash wrong-path operations, and memory aliasing must
//! raise an exception that rolls the block back exactly.

use dtsvliw_asm::assemble;
use dtsvliw_isa::ArchState;
use dtsvliw_mem::Memory;
use dtsvliw_primary::RefMachine;
use dtsvliw_sched::scheduler::{SchedConfig, Scheduler};
use dtsvliw_sched::{Block, InsertOutcome};
use dtsvliw_vliw::{decode_block, LiResult, VliwEngine};

/// Run `src` on the reference machine, scheduling the whole retired
/// trace into blocks (sealing the remainder at halt). Returns the blocks
/// plus the entry state/memory and the final reference machine.
fn schedule_program(src: &str, w: usize, h: usize) -> (Vec<Block>, ArchState, Memory, RefMachine) {
    let img = assemble(src).unwrap();
    let mut m = RefMachine::new(&img);
    let entry_state = m.state.clone();
    let entry_mem = m.mem.clone();
    let mut s = Scheduler::new(SchedConfig::homogeneous(w, h));
    let mut blocks = Vec::new();
    loop {
        let st = m.step().expect("program runs");
        if st.dyn_instr.instr.is_non_schedulable() {
            blocks.extend(s.seal(st.dyn_instr.pc, st.dyn_instr.seq));
            if st.halt.is_some() {
                break;
            }
            continue;
        }
        s.tick();
        if let InsertOutcome::Inserted(Some(b)) = s.insert(&st.dyn_instr, m.state.resident) {
            blocks.push(b);
        }
    }
    (blocks, entry_state, entry_mem, m)
}

/// Execute a chain of blocks on the engine, following fall-through nba
/// chaining only (callers arrange traces without redirects).
fn run_chain(
    blocks: &[Block],
    state: &mut ArchState,
    mem: &mut Memory,
) -> (VliwEngine, Vec<LiResult>) {
    let mut engine = VliwEngine::new();
    let mut results = Vec::new();
    for b in blocks {
        engine.begin_block(b, state);
        let dec = decode_block(b);
        'block: for li in 0..b.lis.len() {
            let out = engine
                .exec_li_decoded(&dec, li, state, mem, &mut Vec::new())
                .unwrap();
            results.push(out.result);
            match out.result {
                LiResult::Next => {}
                LiResult::BlockEnd | LiResult::Redirect { .. } => {
                    engine.commit_block(mem);
                    break 'block;
                }
                LiResult::Exception { .. } => break 'block,
            }
        }
    }
    (engine, results)
}

#[test]
fn straight_line_block_matches_reference() {
    let src = "
_start:
    set 0x2000, %o0
    mov 5, %o1
    mov 7, %o2
    add %o1, %o2, %o3
    sub %o3, 2, %o4
    st %o4, [%o0]
    ld [%o0], %o5
    xor %o5, %o1, %g1
    sll %g1, 2, %g2
    ta 0
";
    let (blocks, mut state, mut mem, reference) = schedule_program(src, 4, 8);
    assert_eq!(blocks.len(), 1, "short straight-line trace fits one block");
    let (_, _) = run_chain(&blocks, &mut state, &mut mem);
    assert!(
        state.diff_visible(&reference.state).is_none(),
        "VLIW execution diverged: {:?}",
        state.diff_visible(&reference.state)
    );
    assert_eq!(mem.read_u32(0x2000), 10);
}

#[test]
fn taken_branch_trace_replays() {
    // A loop summing 1..=5: the trace records every back-branch taken;
    // re-executing from the same entry state follows the recorded path.
    let src = "
_start:
    mov 0, %o0      ! sum
    mov 5, %o1      ! i
loop:
    add %o0, %o1, %o0
    subcc %o1, 1, %o1
    bne loop
    nop
    ta 0
";
    let (blocks, mut state, mut mem, reference) = schedule_program(src, 4, 4);
    assert!(!blocks.is_empty());
    let (engine, results) = run_chain(&blocks, &mut state, &mut mem);
    // The final bne is not taken; everything earlier was taken. The
    // recorded directions hold on replay so no redirect fires.
    assert!(
        !results
            .iter()
            .any(|r| matches!(r, LiResult::Redirect { .. })),
        "{results:?}"
    );
    assert_eq!(engine.stats().mispredicts, 0);
    assert!(state.diff_visible(&reference.state).is_none());
    assert_eq!(state.get(dtsvliw_isa::regs::r::O0), 15);
}

#[test]
fn mispredicted_branch_annuls_tagged_ops() {
    // Schedule a trace where the branch was NOT taken; then replay with
    // flags that make it taken: ops tagged after the branch must be
    // annulled and fetch must redirect to the recorded-other target.
    let src = "
_start:
    cmp %o0, 0       ! %o0 = 0 at schedule time -> be taken? no: cmp 0,0 sets Z
    bne skip         ! not taken when %o0 == 0
    nop
    mov 11, %o2      ! executed on the traced path
    mov 12, %o3
skip:
    mov 13, %o4
    ta 0
";
    let (blocks, mut state, mut mem, _) = schedule_program(src, 4, 8);
    assert_eq!(blocks.len(), 1);

    // Replay with %o0 = 1: bne is now taken; the trace diverges.
    state.set(dtsvliw_isa::regs::r::O0, 1);
    let mut engine = VliwEngine::new();
    let b = &blocks[0];
    engine.begin_block(b, &state);
    let dec = decode_block(b);
    let mut redirect = None;
    for li in 0..b.lis.len() {
        let out = engine
            .exec_li_decoded(&dec, li, &mut state, &mut mem, &mut Vec::new())
            .unwrap();
        match out.result {
            LiResult::Redirect { target: t, .. } => {
                redirect = Some(t);
                engine.commit_block(&mut mem);
                break;
            }
            LiResult::Exception { .. } => panic!("unexpected exception"),
            _ => {}
        }
    }
    let img = assemble(src).unwrap();
    assert_eq!(
        redirect,
        Some(img.symbol("skip").unwrap()),
        "redirects to the actual target"
    );
    assert_eq!(engine.stats().mispredicts, 1);
    // The wrong-path moves (11/12/13) must not commit... unless they
    // were scheduled above the branch via splitting, in which case their
    // COPYs were annulled and the architectural registers are untouched.
    assert_eq!(state.get(dtsvliw_isa::regs::r::O2), 0);
    assert_eq!(state.get(dtsvliw_isa::regs::r::O3), 0);
}

#[test]
fn aliasing_exception_rolls_back_exactly() {
    // At schedule time the load and store touch different addresses, so
    // the load (younger) climbs past the store. Replaying with %o1
    // changed so both touch the same address must raise an aliasing
    // exception and restore the pre-block state bit for bit.
    let src = "
_start:
    set 0x2000, %o0
    set 0x2100, %o1
    mov 42, %o2
    st %o2, [%o0]      ! store to 0x2000
    ld [%o1], %o3      ! load from 0x2100 (schedule time)
    add %o3, 1, %o4
    ta 0
";
    let (blocks, _state, _mem, _) = schedule_program(src, 2, 8);
    assert_eq!(blocks.len(), 1);
    let b = &blocks[0];
    // The narrow (2-wide) geometry forces the ld into a separate long
    // instruction from the st; verify it actually crossed.
    let st_li = b
        .lis
        .iter()
        .position(|li| li.ops().iter().any(|o| o.is_memory_writer()))
        .expect("store placed");
    let ld_li = b
        .lis
        .iter()
        .position(|li| {
            li.ops()
                .iter()
                .any(|o| matches!(o, dtsvliw_sched::SlotOp::Instr(i) if i.d.instr.is_load()))
        })
        .expect("load placed");
    assert!(
        ld_li <= st_li,
        "load must not stay below the store for this test"
    );

    // Poison %o1 after the set executes... simpler: replay with memory
    // pre-seeded and %o1 redirected to alias %o0 by editing entry state
    // won't work (the set recomputes it). Instead re-schedule a variant
    // where the base registers are block inputs.
    let src2 = "
_start:
    set 0x2000, %o0
    set 0x2100, %o1
    call work
    nop
    ta 0
work:
    mov 42, %o2
    st %o2, [%o0]
    ld [%o1], %o3
    add %o3, 1, %o4
    retl
    nop
";
    let img = assemble(src2).unwrap();
    let mut m = RefMachine::new(&img);
    // Execute up to (not including) the first instruction of `work`,
    // then trace only `work`'s body into a block.
    let work = img.symbol("work").unwrap();
    while m.state.pc != work {
        m.step().unwrap();
    }
    let entry_state = m.state.clone();
    let entry_mem = m.mem.clone();
    let mut s = Scheduler::new(SchedConfig::homogeneous(2, 8));
    let mut blocks = Vec::new();
    for _ in 0..4 {
        let st = m.step().unwrap();
        s.tick();
        if let InsertOutcome::Inserted(Some(bk)) = s.insert(&st.dyn_instr, m.state.resident) {
            blocks.push(bk);
        }
    }
    blocks.extend(s.seal(0, u64::MAX / 2));
    assert_eq!(blocks.len(), 1);
    let b = &blocks[0];

    // Replay with %o1 == %o0: runtime aliasing.
    let mut state = entry_state.clone();
    let mut mem = entry_mem.clone();
    state.set(dtsvliw_isa::regs::r::O1, 0x2000);
    let poisoned = state.clone();
    let mut engine = VliwEngine::new();
    engine.begin_block(b, &state);
    let dec = decode_block(b);
    let mut excepted = false;
    for li in 0..b.lis.len() {
        match engine
            .exec_li_decoded(&dec, li, &mut state, &mut mem, &mut Vec::new())
            .unwrap()
            .result
        {
            LiResult::Exception { aliasing } => {
                assert!(aliasing, "must be an aliasing exception");
                excepted = true;
                break;
            }
            LiResult::BlockEnd => break,
            _ => {}
        }
    }
    if excepted {
        assert!(
            state.diff_visible(&poisoned).is_none(),
            "rollback must restore registers: {:?}",
            state.diff_visible(&poisoned)
        );
        assert_eq!(
            mem.read_u32(0x2000),
            entry_mem.read_u32(0x2000),
            "store unwound"
        );
        assert_eq!(engine.stats().alias_exceptions, 1);
    } else {
        // If the load did not cross the store in this geometry the test
        // is vacuous — fail loudly so the geometry gets fixed.
        panic!("load did not cross the store; widen/narrow the geometry");
    }
}

#[test]
fn split_with_copy_commits_through_rename() {
    // The Figure 2 loop: splitting renames `add %o2, 4, %o2` and the
    // COPY commits it. One full pass must still match the reference.
    let src = "
_start:
    or %g0, 0, %o1
    sethi 56, %o0
    or %o0, 8, %o3
    or %g0, 0, %o2
loop:
    ld [%o2 + %o3], %o0
    add %o1, %o0, %o1
    add %o2, 4, %o2
    subcc %o2, 39, %g0
    ble loop
    nop
    ta 0
    .org 0xe008
    .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
";
    let (blocks, mut state, mut mem, reference) = schedule_program(src, 3, 4);
    assert!(
        blocks.iter().any(|b| {
            b.lis.iter().any(|li| {
                li.ops()
                    .iter()
                    .any(|o| matches!(o, dtsvliw_sched::SlotOp::Copy(_)))
            })
        }),
        "the loop must produce at least one COPY"
    );
    let (engine, _) = run_chain(&blocks, &mut state, &mut mem);
    assert_eq!(engine.stats().mispredicts, 0);
    assert!(
        state.diff_visible(&reference.state).is_none(),
        "{:?}",
        state.diff_visible(&reference.state)
    );
    assert_eq!(state.get(dtsvliw_isa::regs::r::O1), 55);
}

// -----------------------------------------------------------------
// Checkpoint rollback details and the engine-side fault knobs
// (DESIGN.md §9): reverse unwind order, recovery-list high-water
// accounting, forced list truncation, and alias-check suppression.
// -----------------------------------------------------------------

/// Two stores to the same word inside one block: the recovery list must
/// be unwound newest-first, or the mid-block value survives rollback.
#[test]
fn rollback_unwinds_overlapping_stores_newest_first() {
    let src = "
_start:
    set 0x3000, %o0
    mov 1, %o1
    mov 2, %o2
    st %o1, [%o0]       ! A = 1  (logs old A = 0)
    st %o2, [%o0]       ! A = 2  (logs old A = 1)
    st %o1, [%o0 + 4]   ! B = 1  (logs old B = 0)
    ta 0
";
    let (blocks, entry_state, entry_mem, _) = schedule_program(src, 2, 16);
    assert_eq!(blocks.len(), 1);
    let b = &blocks[0];

    let mut state = entry_state.clone();
    let mut mem = entry_mem.clone();
    let mut engine = VliwEngine::new();
    engine.begin_block(b, &state);
    let dec = decode_block(b);
    for li in 0..b.lis.len() {
        if let LiResult::BlockEnd | LiResult::Redirect { .. } = engine
            .exec_li_decoded(&dec, li, &mut state, &mut mem, &mut Vec::new())
            .unwrap()
            .result
        {
            break;
        }
    }
    assert_eq!(mem.read_u32(0x3000), 2, "both stores executed");
    assert_eq!(
        engine.stats().max_recovery_list,
        3,
        "three old values logged"
    );

    // Abandon the block instead of committing: every store must unwind.
    engine.rollback(&mut state, &mut mem).unwrap();
    assert_eq!(engine.last_rollback_unwound(), 3);
    assert_eq!(
        mem.read_u32(0x3000),
        entry_mem.read_u32(0x3000),
        "reverse unwind must surface the oldest logged value"
    );
    assert_eq!(mem.read_u32(0x3004), entry_mem.read_u32(0x3004));
    assert!(
        state.diff_visible(&entry_state).is_none(),
        "registers restored from the shadow checkpoint"
    );
}

/// The armed §3.11 truncation fault must abort the block through the
/// exception path and leave visibly corrupt memory behind (mid-block
/// values where pre-block data belonged).
#[test]
fn truncate_recovery_fault_corrupts_rollback() {
    let src = "
_start:
    set 0x3000, %o0
    mov 1, %o1
    st %o1, [%o0]
    st %o1, [%o0 + 4]
    st %o1, [%o0]
    st %o1, [%o0 + 4]
    st %o1, [%o0]
    st %o1, [%o0 + 4]
    st %o1, [%o0]
    ta 0
";
    let (blocks, entry_state, entry_mem, _) = schedule_program(src, 2, 16);
    assert_eq!(blocks.len(), 1);
    let b = &blocks[0];

    let mut state = entry_state.clone();
    let mut mem = entry_mem.clone();
    let mut engine = VliwEngine::new();
    engine.arm_faults(dtsvliw_vliw::EngineFaults {
        truncate_recovery: true,
        ..Default::default()
    });
    engine.begin_block(b, &state);
    let dec = decode_block(b);
    let mut excepted = false;
    for li in 0..b.lis.len() {
        match engine
            .exec_li_decoded(&dec, li, &mut state, &mut mem, &mut Vec::new())
            .unwrap()
            .result
        {
            LiResult::Exception { aliasing } => {
                assert!(aliasing, "truncation aborts through the alias path");
                excepted = true;
                break;
            }
            LiResult::BlockEnd => break,
            _ => {}
        }
    }
    assert!(excepted, "a 7-store block must reach the >= 6 entry gate");
    assert_eq!(engine.stats().recovery_truncated, 1);
    assert!(!engine.faults().truncate_recovery, "knob is one-shot");
    // The dropped oldest entries logged A = 0 / B = 0; the survivors
    // all logged the mid-block value 1, so rollback restores 1 where 0
    // belonged.
    assert_eq!(mem.read_u32(0x3000), 1, "truncated rollback leaves damage");
    assert!(
        state.diff_visible(&entry_state).is_none(),
        "registers still restore from the (undamaged) shadow checkpoint"
    );
}

/// The armed alias false-negative knob must swallow exactly one aliasing
/// exception: the block commits with the stale hoisted load.
#[test]
fn suppress_alias_swallows_one_aliasing_exception() {
    let src = "
_start:
    set 0x2000, %o0
    set 0x2100, %o1
    call work
    nop
    ta 0
work:
    mov 42, %o2
    st %o2, [%o0]
    ld [%o1], %o3
    add %o3, 1, %o4
    retl
    nop
";
    let img = assemble(src).unwrap();
    let mut m = RefMachine::new(&img);
    let work = img.symbol("work").unwrap();
    while m.state.pc != work {
        m.step().unwrap();
    }
    let entry_state = m.state.clone();
    let entry_mem = m.mem.clone();
    let mut s = Scheduler::new(SchedConfig::homogeneous(2, 8));
    let mut blocks = Vec::new();
    for _ in 0..4 {
        let st = m.step().unwrap();
        s.tick();
        if let InsertOutcome::Inserted(Some(bk)) = s.insert(&st.dyn_instr, m.state.resident) {
            blocks.push(bk);
        }
    }
    blocks.extend(s.seal(0, u64::MAX / 2));
    assert_eq!(blocks.len(), 1);
    let b = &blocks[0];

    // Replay with %o1 == %o0 so the hoisted load aliases the store.
    let mut state = entry_state.clone();
    let mut mem = entry_mem.clone();
    state.set(dtsvliw_isa::regs::r::O1, 0x2000);
    let stale = mem.read_u32(0x2000);
    assert_ne!(stale, 42, "the stale value must differ from the stored one");

    let mut engine = VliwEngine::new();
    engine.arm_faults(dtsvliw_vliw::EngineFaults {
        suppress_alias: true,
        ..Default::default()
    });
    engine.begin_block(b, &state);
    let dec = decode_block(b);
    for li in 0..b.lis.len() {
        match engine
            .exec_li_decoded(&dec, li, &mut state, &mut mem, &mut Vec::new())
            .unwrap()
            .result
        {
            LiResult::Exception { .. } => panic!("the aliasing exception must be swallowed"),
            LiResult::BlockEnd | LiResult::Redirect { .. } => {
                engine.commit_block(&mut mem);
                break;
            }
            LiResult::Next => {}
        }
    }
    assert_eq!(engine.stats().alias_suppressed, 1);
    assert!(!engine.faults().suppress_alias, "knob is one-shot");
    assert_eq!(
        state.get(dtsvliw_isa::regs::r::O3),
        stale,
        "the hoisted load must have committed its stale value"
    );
    assert_eq!(mem.read_u32(0x2000), 42, "the store still committed");
}
