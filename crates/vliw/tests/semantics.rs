//! Semantic coverage of the VLIW Engine beyond the core paths: FP
//! operations, `%y`/`mulscc` chains, save/restore inside blocks, icc
//! renaming through splits, and byte/halfword memory traffic — each
//! compared against the sequential reference machine.

use dtsvliw_asm::assemble;
use dtsvliw_isa::ArchState;
use dtsvliw_primary::RefMachine;
use dtsvliw_sched::scheduler::{SchedConfig, Scheduler};
use dtsvliw_sched::{Block, InsertOutcome};
use dtsvliw_vliw::{decode_block, LiResult, VliwEngine};

/// Schedule the whole trace of `src` and replay it block by block,
/// asserting the final state matches the reference machine's.
fn round_trip(src: &str, w: usize, h: usize) -> (ArchState, RefMachine, VliwEngine) {
    let img = assemble(src).unwrap();
    let mut m = RefMachine::new(&img);
    let entry_state = m.state.clone();
    let entry_mem = m.mem.clone();
    let mut s = Scheduler::new(SchedConfig::homogeneous(w, h));
    let mut blocks: Vec<Block> = Vec::new();
    loop {
        let st = m.step().expect("program runs");
        if st.dyn_instr.instr.is_non_schedulable() {
            blocks.extend(s.seal(st.dyn_instr.pc, st.dyn_instr.seq));
            if st.halt.is_some() {
                break;
            }
            continue;
        }
        if st.window_trap {
            blocks.extend(s.seal(st.dyn_instr.pc, st.dyn_instr.seq));
            continue;
        }
        s.tick();
        if let InsertOutcome::Inserted(Some(b)) = s.insert(&st.dyn_instr, m.state.resident) {
            blocks.push(b);
        }
    }

    let mut state = entry_state;
    let mut mem = entry_mem;
    let mut engine = VliwEngine::new();
    for b in &blocks {
        engine.begin_block(b, &state);
        let dec = decode_block(b);
        for li in 0..b.lis.len() {
            match engine
                .exec_li_decoded(&dec, li, &mut state, &mut mem, &mut Vec::new())
                .unwrap()
                .result
            {
                LiResult::Next => {}
                LiResult::BlockEnd | LiResult::Redirect { .. } => {
                    engine.commit_block(&mut mem);
                    break;
                }
                LiResult::Exception { aliasing } => panic!("unexpected exception ({aliasing})"),
            }
        }
    }
    assert!(
        state.diff_visible(&m.state).is_none(),
        "replay diverged: {:?}",
        state.diff_visible(&m.state)
    );
    (state, m, engine)
}

#[test]
fn fp_arithmetic_replays() {
    // 3.0 * 4.0 + 1.5 = 13.5, through FP registers and fcc.
    let src = "
_start:
    set 0x2000, %o0
    set 0x40400000, %o1   ! 3.0f
    st %o1, [%o0]
    ldf [%o0], %f1
    set 0x40800000, %o1   ! 4.0f
    st %o1, [%o0 + 4]
    ldf [%o0 + 4], %f2
    fmuls %f1, %f2, %f3
    set 0x3fc00000, %o1   ! 1.5f
    st %o1, [%o0 + 8]
    ldf [%o0 + 8], %f4
    fadds %f3, %f4, %f5
    stf %f5, [%o0 + 12]
    fcmps %f5, %f3
    fbg bigger
    nop
    mov 0, %o2
    ta 0
bigger:
    mov 1, %o2
    ta 0
";
    let (state, _, _) = round_trip(src, 4, 8);
    assert_eq!(f32::from_bits(state.fp[5]), 13.5);
    assert_eq!(state.get(dtsvliw_isa::regs::r::O2), 1);
}

#[test]
fn mulscc_chain_replays_through_y() {
    // A short multiply-step chain: %y and icc thread through the block.
    let src = "
_start:
    mov 13, %o0
    wr %o0, 0, %y
    andcc %g0, %g0, %o4
    mulscc %o4, %o2, %o4
    mulscc %o4, %o2, %o4
    mulscc %o4, %o2, %o4
    rd %y, %o3
    ta 0
";
    let (_, _, engine) = round_trip(src, 4, 8);
    assert!(engine.stats().committed > 0);
}

#[test]
fn save_restore_inside_blocks() {
    let src = "
_start:
    set 0x20000, %sp
    mov 7, %o0
    save %sp, -96, %sp
    add %i0, 1, %l0
    mov %l0, %i0
    restore %i0, 0, %o1
    ! note: the callee's %i0 IS the caller's %o0 (window overlap), so
    ! %o0 reads 8 here, not 7.
    add %o1, %o0, %o2     ! 8 + 8 = 16
    ta 0
";
    let (state, _, _) = round_trip(src, 4, 16);
    assert_eq!(state.get(dtsvliw_isa::regs::r::O2), 16);
    assert_eq!(state.cwp, 0);
}

#[test]
fn icc_renaming_through_splits() {
    // Two cc-writers in close succession force an icc rename when the
    // second climbs; the branch must still read the right flags.
    let src = "
_start:
    mov 5, %o0
    mov 9, %o1
    subcc %o0, %o1, %g0  ! sets N (5 < 9)
    subcc %o1, %o0, %o2  ! overwrites flags (positive)
    bg greater
    nop
    mov 0, %o3
    ta 0
greater:
    mov 1, %o3
    ta 0
";
    let (state, _, _) = round_trip(src, 2, 8);
    assert_eq!(state.get(dtsvliw_isa::regs::r::O3), 1);
}

#[test]
fn byte_and_half_traffic_replays() {
    let src = "
_start:
    set 0x3000, %o0
    set 0xbeef, %o1
    sth %o1, [%o0]
    lduh [%o0], %o2
    stb %o1, [%o0 + 2]
    ldsb [%o0 + 2], %o3   ! 0xef sign-extends to -17
    ldub [%o0 + 2], %o4
    ta 0
";
    let (state, _, _) = round_trip(src, 4, 8);
    assert_eq!(state.get(dtsvliw_isa::regs::r::O2), 0xbeef);
    assert_eq!(state.get(dtsvliw_isa::regs::r::O3) as i32, -17);
    assert_eq!(state.get(dtsvliw_isa::regs::r::O4), 0xef);
}

#[test]
fn renamed_store_forwards_through_membuf() {
    // A store hoisted via memory renaming commits through its COPY; a
    // later load must see the committed value.
    let src = "
_start:
    set 0x2000, %o0
    set 0x2100, %o1
    mov 5, %o2
    ld [%o1], %o3        ! older load, different address
    st %o2, [%o0]        ! may be renamed past the load
    ld [%o0], %o4        ! must read 5
    add %o4, %o3, %o5
    ta 0
";
    let (state, _, _) = round_trip(src, 2, 8);
    assert_eq!(state.get(dtsvliw_isa::regs::r::O4), 5);
}
