//! Property tests over the ISA layer: encode/decode stability, ALU
//! semantics against wide-integer references, window-mapping algebra.

use dtsvliw_isa::alu::{exec_alu, umul_via_mulscc};
use dtsvliw_isa::cond::{Cond, Icc};
use dtsvliw_isa::encode::{decode, encode};
use dtsvliw_isa::insn::AluOp::{self, And, Andn, Or, Orn, Xnor, Xor};
use dtsvliw_isa::insn::Instr;
use dtsvliw_isa::regs::{phys_reg, restore_cwp, save_cwp, NWINDOWS};
use dtsvliw_rng::check::{check, Gen};

const CASES: u32 = 256;

fn two_words(g: &mut Gen) -> (u32, u32) {
    (g.bits(), g.bits())
}

/// A window pointer and two register numbers.
fn window_regs(g: &mut Gen) -> (u8, u8, u8) {
    (g.range(0..NWINDOWS as u8), g.range(0..32), g.range(0..32))
}

/// decode∘encode is the identity on everything decode accepts —
/// including `Illegal` words, which must re-encode bit-exactly.
#[test]
fn decode_encode_round_trips_any_word() {
    check(CASES, 1, Gen::bits::<u32>, |&word| {
        let i = decode(word);
        let again = decode(encode(&i));
        assert_eq!(i, again);
        if let Instr::Illegal(w) = i {
            assert_eq!(w, word);
        }
    });
}

/// add/sub condition codes agree with 64-bit arithmetic.
#[test]
fn addcc_flags_match_wide_arithmetic() {
    check(CASES, 1, two_words, |&(a, b)| {
        let r = exec_alu(AluOp::Add, a, b, Icc::default(), 0);
        let wide = a as u64 + b as u64;
        assert_eq!(r.value, wide as u32);
        assert_eq!(r.icc.c, wide > u32::MAX as u64, "carry");
        let swide = a as i32 as i64 + b as i32 as i64;
        assert_eq!(r.icc.v, swide != r.value as i32 as i64, "overflow");
        assert_eq!(r.icc.z, r.value == 0);
        assert_eq!(r.icc.n, (r.value as i32) < 0);
    });
}

#[test]
fn subcc_flags_match_wide_arithmetic() {
    check(CASES, 1, two_words, |&(a, b)| {
        let r = exec_alu(AluOp::Sub, a, b, Icc::default(), 0);
        assert_eq!(r.value, a.wrapping_sub(b));
        assert_eq!(r.icc.c, a < b, "borrow");
        let swide = a as i32 as i64 - b as i32 as i64;
        assert_eq!(r.icc.v, swide != r.value as i32 as i64);
    });
}

/// After subcc, the signed/unsigned branch predicates agree with the
/// Rust comparison operators.
#[test]
fn branch_predicates_match_comparisons() {
    check(CASES, 1, two_words, |&(a, b)| {
        let cc = exec_alu(AluOp::Sub, a, b, Icc::default(), 0).icc;
        assert_eq!(Cond::E.eval(cc), a == b);
        assert_eq!(Cond::Ne.eval(cc), a != b);
        assert_eq!(Cond::L.eval(cc), (a as i32) < (b as i32));
        assert_eq!(Cond::Ge.eval(cc), (a as i32) >= (b as i32));
        assert_eq!(Cond::G.eval(cc), (a as i32) > (b as i32));
        assert_eq!(Cond::Le.eval(cc), (a as i32) <= (b as i32));
        assert_eq!(Cond::Cs.eval(cc), a < b);
        assert_eq!(Cond::Gu.eval(cc), a > b);
        assert_eq!(Cond::Leu.eval(cc), a <= b);
        assert_eq!(Cond::Cc.eval(cc), a >= b);
    });
}

/// The 33-step mulscc chain is a correct 32x32→64 unsigned multiply.
#[test]
fn mulscc_chain_multiplies() {
    check(CASES, 1, two_words, |&(a, b)| {
        let (lo, hi) = umul_via_mulscc(a, b);
        let wide = a as u64 * b as u64;
        assert_eq!(lo, wide as u32);
        assert_eq!(hi, (wide >> 32) as u32);
    });
}

/// Window mapping: save/restore are inverses; the callee's ins are
/// the caller's outs; distinct registers stay distinct.
#[test]
fn window_mapping_algebra() {
    check(CASES, 1, window_regs, |&(cwp, r1, r2)| {
        assert_eq!(restore_cwp(save_cwp(cwp)), cwp);
        if (8..16).contains(&r1) {
            assert_eq!(phys_reg(save_cwp(cwp), r1 + 16), phys_reg(cwp, r1));
        }
        if r1 != r2 {
            assert_ne!(phys_reg(cwp, r1), phys_reg(cwp, r2));
        }
    });
}

/// Logic ops clear V and C and set N/Z from the result.
#[test]
fn logic_flags() {
    check(CASES, 1, two_words, |&(a, b)| {
        for op in [And, Or, Xor, Xnor, Andn, Orn] {
            let r = exec_alu(op, a, b, Icc::default(), 0);
            assert!(!r.icc.v && !r.icc.c);
            assert_eq!(r.icc.z, r.value == 0);
            assert_eq!(r.icc.n, r.value >> 31 != 0);
        }
    });
}
