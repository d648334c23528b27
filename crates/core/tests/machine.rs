//! End-to-end machine tests: whole programs run in test mode, so every
//! assertion here is backed by cycle-by-cycle co-simulation against the
//! sequential reference machine.

use dtsvliw_asm::assemble;
use dtsvliw_core::{Machine, MachineConfig};

fn run(src: &str, cfg: MachineConfig, fuel: u64) -> (Machine, u32) {
    let img = assemble(src).unwrap();
    let mut m = Machine::new(cfg, &img);
    let out = m.run(fuel).unwrap_or_else(|e| panic!("machine error: {e}"));
    let code = out.exit_code.expect("program halts");
    (m, code)
}

const SUM_LOOP: &str = "
_start:
    mov 0, %o0
    mov 200, %o1
loop:
    add %o0, %o1, %o0
    subcc %o1, 1, %o1
    bne loop
    nop
    ta 0
";

#[test]
fn loop_program_executes_mostly_in_vliw_mode() {
    let (m, code) = run(SUM_LOOP, MachineConfig::ideal(8, 8), 100_000);
    assert_eq!(code, 20100);
    let st = m.stats();
    assert!(
        st.vliw_cycle_share() > 0.5,
        "tight loop must run in VLIW mode: {st:?}"
    );
    assert!(
        st.ipc() > 1.0,
        "the loop has exploitable ILP: ipc = {}",
        st.ipc()
    );
    assert!(st.vliw_cache.hits > 0);
    assert!(st.sched.blocks > 0);
}

#[test]
fn narrow_machine_is_slower_than_wide() {
    let (m1, _) = run(SUM_LOOP, MachineConfig::ideal(1, 4), 100_000);
    let (m8, _) = run(SUM_LOOP, MachineConfig::ideal(8, 8), 100_000);
    assert!(
        m8.stats().ipc() > m1.stats().ipc(),
        "8x8 ({}) must beat 1x4 ({})",
        m8.stats().ipc(),
        m1.stats().ipc()
    );
}

#[test]
fn recursion_with_window_traps_verifies() {
    let src = "
_start:
    set 0x40000, %sp
    mov 12, %o0
    call fib
    nop
    ta 0                ! fib(12) = 144
fib:
    save %sp, -96, %sp
    cmp %i0, 2
    bl base
    nop
    sub %i0, 1, %o0
    call fib
    nop
    mov %o0, %l0
    sub %i0, 2, %o0
    call fib
    nop
    add %o0, %l0, %i0
    ret
    restore %i0, 0, %o0
base:
    mov %i0, %i0
    ret
    restore %i0, 0, %o0
";
    let (m, code) = run(src, MachineConfig::ideal(8, 8), 2_000_000);
    assert_eq!(code, 144);
    let st = m.stats();
    assert!(st.instructions > 1000);
    // Recursion re-enters the same code at different windows: the VLIW
    // Cache must still be useful (blocks per window).
    assert!(st.vliw_cycles > 0, "recursive code still reaches VLIW mode");
}

#[test]
fn runtime_aliasing_is_detected_and_recovered() {
    // The load's address is loop-invariant while the store walks the
    // same array; in the iteration where they collide the cached block
    // (which hoisted the load) must raise an aliasing exception, roll
    // back, and re-execute correctly.
    let src = "
_start:
    set 0x8000, %o0     ! base
    mov 0, %o1          ! i = 0
    mov 0, %o5          ! sum
    mov 99, %g1
    st %g1, [%o0 + 48]  ! a[12] = 99
loop:
    sll %o1, 2, %o2
    add %o0, %o2, %o3
    st %o1, [%o3]       ! a[i] = i
    ld [%o0 + 48], %o4  ! x = a[12]
    add %o5, %o4, %o5   ! sum += x
    add %o1, 1, %o1
    cmp %o1, 16
    bl loop
    nop
    mov %o5, %o0
    ta 0
";
    // Expected: i=0..11 read 99; i=12 writes 12 then reads 12;
    // i=13..15 read 12. The collision at i=12 happens well after the
    // loop entered VLIW mode, so the cached block (load hoisted above
    // the store) must take the exception.
    let expect = 99 * 12 + 12 * 4;
    let (m, code) = run(src, MachineConfig::ideal(4, 8), 100_000);
    assert_eq!(code, expect, "aliasing recovery must preserve semantics");
    let st = m.stats();
    // The exception fires only if the load was actually hoisted above
    // the store in the cached block — with 4x8 geometry it is.
    assert!(
        st.engine.alias_exceptions > 0,
        "expected at least one aliasing exception: {st:?}"
    );
    assert!(st.vliw_cache.invalidations >= st.engine.alias_exceptions);
}

#[test]
fn feasible_machine_runs_and_is_slower_than_ideal() {
    let (ideal, c1) = run(SUM_LOOP, MachineConfig::ideal(10, 8), 100_000);
    let (feasible, c2) = run(SUM_LOOP, MachineConfig::feasible_paper(), 100_000);
    assert_eq!(c1, c2);
    assert!(
        feasible.stats().cycles >= ideal.stats().cycles,
        "real caches and typed slots cannot be faster than ideal"
    );
    assert!(
        feasible.stats().icache.misses > 0,
        "cold instruction cache misses"
    );
}

#[test]
fn console_output_matches_reference() {
    let src = "
_start:
    mov 5, %l0
loop:
    mov 'x', %o0
    ta 2
    subcc %l0, 1, %l0
    bne loop
    nop
    mov 0, %o0
    ta 0
";
    let (m, _) = run(src, MachineConfig::ideal(4, 4), 10_000);
    assert_eq!(m.output_string(), "xxxxx");
}

#[test]
fn small_vliw_cache_thrashes_but_stays_correct() {
    // Fill far more blocks than a tiny cache holds: correctness must be
    // unaffected; the eviction counter must move.
    let src = "
_start:
    mov 0, %o0
    mov 0, %o1          ! outer counter
outer:
    mov 0, %o2
inner:
    add %o0, 1, %o0
    add %o0, %o2, %o0
    xor %o0, %o1, %o0
    sub %o0, %o2, %o0
    add %o2, 1, %o2
    cmp %o2, 40
    bl inner
    nop
    add %o1, 1, %o1
    cmp %o1, 8
    bl outer
    nop
    ta 0
";
    let big = run(
        src,
        MachineConfig::ideal_with_vliw_cache(4, 4, 3072, 4),
        1_000_000,
    );
    let tiny = run(
        src,
        MachineConfig::ideal_with_vliw_cache(4, 4, 3, 1),
        1_000_000,
    );
    assert_eq!(big.1, tiny.1, "cache size must never change results");
    assert!(
        tiny.0.stats().cycles >= big.0.stats().cycles,
        "thrashing cache cannot be faster"
    );
}

#[test]
fn every_geometry_produces_identical_results() {
    // Architectural correctness is independent of geometry; test mode
    // verifies every one of these runs internally.
    let mut codes = Vec::new();
    for (w, h) in [(1, 2), (2, 4), (3, 4), (4, 8), (8, 8), (16, 16)] {
        let (_, code) = run(SUM_LOOP, MachineConfig::ideal(w, h), 100_000);
        codes.push(code);
    }
    assert!(codes.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn blocks_taller_than_256_long_instructions_run_to_completion() {
    // The nba line index of a block this tall does not fit a byte: a
    // narrowed comparison ended such blocks at the wrong row and test
    // mode caught the divergence.
    let w = dtsvliw_workloads::by_name("compress", dtsvliw_workloads::Scale::Test).unwrap();
    let img = w.image();
    let mut reference = dtsvliw_primary::RefMachine::new(&img);
    let want = match reference.run(50_000_000).unwrap() {
        dtsvliw_primary::RunOutcome::Halted { code, .. } => code,
        other => panic!("reference did not halt: {other:?}"),
    };
    for (width, height) in [(1, 300), (2, 400)] {
        let cfg = MachineConfig::ideal(width, height);
        assert!(cfg.verify, "test mode co-simulates every commit");
        let mut m = Machine::new(cfg, &img);
        let out = m
            .run(50_000_000)
            .unwrap_or_else(|e| panic!("{width}x{height}: {e}"));
        assert_eq!(out.exit_code, Some(want), "{width}x{height} exit");
        assert_eq!(m.output_string(), reference.output_string());
        let st = m.stats();
        assert!(
            st.sched.lis > 256 * st.sched.blocks / 2,
            "{width}x{height}: blocks must be tall ({} LIs over {} blocks)",
            st.sched.lis,
            st.sched.blocks
        );
    }
}
