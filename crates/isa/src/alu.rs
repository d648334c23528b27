//! Pure integer/FP operation semantics shared by the Primary Processor
//! and the VLIW Engine, so both engines compute bit-identical results.

use crate::cond::{Fcc, Icc};
use crate::insn::{AluOp, FpOp};

/// Result of an integer ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AluResult {
    /// The value written to `rd`.
    pub value: u32,
    /// Condition codes, valid only when the `cc` form executes.
    pub icc: Icc,
    /// New `%y` (only `mulscc` changes it).
    pub y: u32,
}

fn add_icc(a: u32, b: u32, r: u32) -> Icc {
    Icc {
        n: r >> 31 != 0,
        z: r == 0,
        v: ((a & b & !r) | (!a & !b & r)) >> 31 != 0,
        c: ((a & b) | ((a | b) & !r)) >> 31 != 0,
    }
}

fn sub_icc(a: u32, b: u32, r: u32) -> Icc {
    Icc {
        n: r >> 31 != 0,
        z: r == 0,
        v: ((a & !b & !r) | (!a & b & r)) >> 31 != 0,
        c: ((!a & b) | (r & (!a | b))) >> 31 != 0,
    }
}

fn logic_icc(r: u32) -> Icc {
    Icc {
        n: r >> 31 != 0,
        z: r == 0,
        v: false,
        c: false,
    }
}

/// Execute an integer ALU operation.
///
/// `icc` and `y` are the values *before* the operation; they matter only
/// for `mulscc`, which implements the SPARC V7 multiply step:
/// the first operand is shifted right one with `N ^ V` shifted in at the
/// top, the second operand is added if the low bit of `%y` is set, and
/// `%y` shifts right one with the old low bit of `rs1` entering at the
/// top.
#[inline]
pub fn exec_alu(op: AluOp, a: u32, b: u32, icc: Icc, y: u32) -> AluResult {
    match op {
        AluOp::Add => {
            let r = a.wrapping_add(b);
            AluResult {
                value: r,
                icc: add_icc(a, b, r),
                y,
            }
        }
        AluOp::Sub => {
            let r = a.wrapping_sub(b);
            AluResult {
                value: r,
                icc: sub_icc(a, b, r),
                y,
            }
        }
        AluOp::And => {
            let r = a & b;
            AluResult {
                value: r,
                icc: logic_icc(r),
                y,
            }
        }
        AluOp::Andn => {
            let r = a & !b;
            AluResult {
                value: r,
                icc: logic_icc(r),
                y,
            }
        }
        AluOp::Or => {
            let r = a | b;
            AluResult {
                value: r,
                icc: logic_icc(r),
                y,
            }
        }
        AluOp::Orn => {
            let r = a | !b;
            AluResult {
                value: r,
                icc: logic_icc(r),
                y,
            }
        }
        AluOp::Xor => {
            let r = a ^ b;
            AluResult {
                value: r,
                icc: logic_icc(r),
                y,
            }
        }
        AluOp::Xnor => {
            let r = !(a ^ b);
            AluResult {
                value: r,
                icc: logic_icc(r),
                y,
            }
        }
        AluOp::Sll => {
            let r = a << (b & 31);
            AluResult {
                value: r,
                icc: logic_icc(r),
                y,
            }
        }
        AluOp::Srl => {
            let r = a >> (b & 31);
            AluResult {
                value: r,
                icc: logic_icc(r),
                y,
            }
        }
        AluOp::Sra => {
            let r = ((a as i32) >> (b & 31)) as u32;
            AluResult {
                value: r,
                icc: logic_icc(r),
                y,
            }
        }
        AluOp::MulScc => {
            let shifted = (a >> 1) | (((icc.n ^ icc.v) as u32) << 31);
            let addend = if y & 1 != 0 { b } else { 0 };
            let r = shifted.wrapping_add(addend);
            AluResult {
                value: r,
                icc: add_icc(shifted, addend, r),
                y: (y >> 1) | ((a & 1) << 31),
            }
        }
    }
}

/// Result of a floating-point operate instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpResult {
    /// Bit pattern written to `fd` (ignored for `fcmps`).
    pub value: u32,
    /// `fcc` (only `fcmps` changes it).
    pub fcc: Fcc,
}

/// Execute a single-precision FP operation on raw bit patterns.
pub fn exec_fp(op: FpOp, s1: u32, s2: u32, fcc: Fcc) -> FpResult {
    let a = f32::from_bits(s1);
    let b = f32::from_bits(s2);
    match op {
        FpOp::FAdds => FpResult {
            value: (a + b).to_bits(),
            fcc,
        },
        FpOp::FSubs => FpResult {
            value: (a - b).to_bits(),
            fcc,
        },
        FpOp::FMuls => FpResult {
            value: (a * b).to_bits(),
            fcc,
        },
        FpOp::FDivs => FpResult {
            value: (a / b).to_bits(),
            fcc,
        },
        FpOp::FMovs => FpResult { value: s2, fcc },
        FpOp::FNegs => FpResult {
            value: s2 ^ 0x8000_0000,
            fcc,
        },
        FpOp::FAbss => FpResult {
            value: s2 & 0x7fff_ffff,
            fcc,
        },
        FpOp::FItos => FpResult {
            value: (s2 as i32 as f32).to_bits(),
            fcc,
        },
        FpOp::FStoi => {
            let v = f32::from_bits(s2);
            let i = if v.is_nan() { 0 } else { v as i32 };
            FpResult {
                value: i as u32,
                fcc,
            }
        }
        FpOp::FCmps => {
            let fcc = if a.is_nan() || b.is_nan() {
                Fcc::Uo
            } else if a == b {
                Fcc::Eq
            } else if a < b {
                Fcc::Lt
            } else {
                Fcc::Gt
            };
            FpResult { value: 0, fcc }
        }
    }
}

/// Reference software unsigned multiply built from 32 `mulscc` steps,
/// mirroring the SPARC `.umul` library routine. Returns (low, high=%y).
///
/// This is used by tests to validate `mulscc` and by the minicc runtime
/// design; the simulated runtime executes the same loop in SPARC code.
pub fn umul_via_mulscc(multiplicand: u32, multiplier: u32) -> (u32, u32) {
    // wr multiplier, %y ; clear partial product and condition codes
    let mut y = multiplier;
    let mut icc = Icc::default();
    let mut acc = 0u32; // rs1 of each step: the running partial product
    for _ in 0..32 {
        let r = exec_alu(AluOp::MulScc, acc, multiplicand, icc, y);
        icc = r.icc;
        y = r.y;
        acc = r.value;
    }
    // Final step with %g0 as addend shifts the product right once more.
    let r = exec_alu(AluOp::MulScc, acc, 0, icc, y);
    // The mulscc chain forms a signed(multiplicand) * unsigned(multiplier)
    // product. The library .umul routine corrects the high word by adding
    // the multiplier back when the multiplicand's sign bit was set; the
    // low word needs no correction.
    let high = if multiplicand >> 31 != 0 {
        r.value.wrapping_add(multiplier)
    } else {
        r.value
    };
    (r.y, high)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addcc_flags() {
        let r = exec_alu(AluOp::Add, 0x7fff_ffff, 1, Icc::default(), 0);
        assert_eq!(r.value, 0x8000_0000);
        assert!(r.icc.n && r.icc.v && !r.icc.c && !r.icc.z);

        let r = exec_alu(AluOp::Add, 0xffff_ffff, 1, Icc::default(), 0);
        assert_eq!(r.value, 0);
        assert!(r.icc.z && r.icc.c && !r.icc.v);
    }

    #[test]
    fn subcc_flags() {
        let r = exec_alu(AluOp::Sub, 3, 5, Icc::default(), 0);
        assert_eq!(r.value as i32, -2);
        assert!(r.icc.n && r.icc.c && !r.icc.v && !r.icc.z);

        let r = exec_alu(AluOp::Sub, 5, 5, Icc::default(), 0);
        assert!(r.icc.z && !r.icc.c);

        // signed overflow: INT_MIN - 1
        let r = exec_alu(AluOp::Sub, 0x8000_0000, 1, Icc::default(), 0);
        assert!(r.icc.v);
    }

    #[test]
    fn shifts_mask_count() {
        assert_eq!(exec_alu(AluOp::Sll, 1, 33, Icc::default(), 0).value, 2);
        assert_eq!(
            exec_alu(AluOp::Sra, 0x8000_0000, 31, Icc::default(), 0).value,
            0xffff_ffff
        );
        assert_eq!(
            exec_alu(AluOp::Srl, 0x8000_0000, 31, Icc::default(), 0).value,
            1
        );
    }

    #[test]
    fn mulscc_multiplies() {
        for (a, b) in [
            (0u32, 0u32),
            (3, 5),
            (1000, 1000),
            (0xffff_ffff, 2),
            (0x1234_5678, 0x9abc_def0),
            (65537, 65537),
        ] {
            let (lo, hi) = umul_via_mulscc(a, b);
            let wide = a as u64 * b as u64;
            assert_eq!(lo, wide as u32, "{a} * {b} low");
            assert_eq!(hi, (wide >> 32) as u32, "{a} * {b} high");
        }
    }

    #[test]
    fn fp_ops() {
        let one = 1.0f32.to_bits();
        let two = 2.0f32.to_bits();
        assert_eq!(
            f32::from_bits(exec_fp(FpOp::FAdds, one, two, Fcc::Eq).value),
            3.0
        );
        assert_eq!(
            f32::from_bits(exec_fp(FpOp::FMuls, two, two, Fcc::Eq).value),
            4.0
        );
        assert_eq!(exec_fp(FpOp::FCmps, one, two, Fcc::Eq).fcc, Fcc::Lt);
        assert_eq!(exec_fp(FpOp::FCmps, two, two, Fcc::Uo).fcc, Fcc::Eq);
        assert_eq!(
            exec_fp(FpOp::FItos, 0, 7i32 as u32, Fcc::Eq).value,
            7.0f32.to_bits()
        );
        assert_eq!(
            exec_fp(FpOp::FStoi, 0, (-3.7f32).to_bits(), Fcc::Eq).value,
            -3i32 as u32
        );
        let nan = f32::NAN.to_bits();
        assert_eq!(exec_fp(FpOp::FCmps, nan, one, Fcc::Eq).fcc, Fcc::Uo);
    }
}
