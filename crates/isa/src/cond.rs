//! Integer condition codes (`icc`), floating-point condition code (`fcc`)
//! and the branch condition predicates that read them.

/// The four SPARC integer condition code bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Icc {
    /// Negative: bit 31 of the result.
    pub n: bool,
    /// Zero: result was 0.
    pub z: bool,
    /// Overflow (two's complement).
    pub v: bool,
    /// Carry (add) / borrow (subtract).
    pub c: bool,
}

impl Icc {
    /// Pack into the low four bits `n|z|v|c` (bit 3 = n).
    pub fn to_bits(self) -> u8 {
        (self.n as u8) << 3 | (self.z as u8) << 2 | (self.v as u8) << 1 | self.c as u8
    }

    /// Inverse of [`Icc::to_bits`].
    pub fn from_bits(bits: u8) -> Self {
        Icc {
            n: bits & 8 != 0,
            z: bits & 4 != 0,
            v: bits & 2 != 0,
            c: bits & 1 != 0,
        }
    }
}

/// Bicc branch conditions, with their SPARC `cond` field encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Branch never.
    N = 0,
    /// Branch on equal (`Z`).
    E = 1,
    /// Branch on less or equal (`Z | (N ^ V)`).
    Le = 2,
    /// Branch on less (`N ^ V`).
    L = 3,
    /// Branch on less or equal unsigned (`C | Z`).
    Leu = 4,
    /// Branch on carry set (unsigned less).
    Cs = 5,
    /// Branch on negative.
    Neg = 6,
    /// Branch on overflow set.
    Vs = 7,
    /// Branch always.
    A = 8,
    /// Branch on not equal.
    Ne = 9,
    /// Branch on greater.
    G = 10,
    /// Branch on greater or equal.
    Ge = 11,
    /// Branch on greater unsigned.
    Gu = 12,
    /// Branch on carry clear (unsigned greater or equal).
    Cc = 13,
    /// Branch on positive.
    Pos = 14,
    /// Branch on overflow clear.
    Vc = 15,
}

impl Cond {
    /// Decode a 4-bit `cond` field.
    pub fn from_bits(bits: u8) -> Cond {
        use Cond::*;
        match bits & 15 {
            0 => N,
            1 => E,
            2 => Le,
            3 => L,
            4 => Leu,
            5 => Cs,
            6 => Neg,
            7 => Vs,
            8 => A,
            9 => Ne,
            10 => G,
            11 => Ge,
            12 => Gu,
            13 => Cc,
            14 => Pos,
            _ => Vc,
        }
    }

    /// Evaluate the predicate against the integer condition codes.
    #[inline]
    pub fn eval(self, icc: Icc) -> bool {
        use Cond::*;
        let Icc { n, z, v, c } = icc;
        match self {
            N => false,
            E => z,
            Le => z | (n ^ v),
            L => n ^ v,
            Leu => c | z,
            Cs => c,
            Neg => n,
            Vs => v,
            A => true,
            Ne => !z,
            G => !(z | (n ^ v)),
            Ge => !(n ^ v),
            Gu => !(c | z),
            Cc => !c,
            Pos => !n,
            Vc => !v,
        }
    }

    /// The SPARC assembler mnemonic suffix (`be`, `bne`, ...).
    pub fn mnemonic(self) -> &'static str {
        use Cond::*;
        match self {
            N => "bn",
            E => "be",
            Le => "ble",
            L => "bl",
            Leu => "bleu",
            Cs => "bcs",
            Neg => "bneg",
            Vs => "bvs",
            A => "ba",
            Ne => "bne",
            G => "bg",
            Ge => "bge",
            Gu => "bgu",
            Cc => "bcc",
            Pos => "bpos",
            Vc => "bvc",
        }
    }
}

/// Floating-point condition code values produced by `fcmps`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Fcc {
    /// Operands compared equal.
    #[default]
    Eq = 0,
    /// First operand less.
    Lt = 1,
    /// First operand greater.
    Gt = 2,
    /// Unordered (a NaN was involved).
    Uo = 3,
}

impl Fcc {
    /// Decode from the 2-bit field.
    pub fn from_bits(bits: u8) -> Fcc {
        match bits & 3 {
            0 => Fcc::Eq,
            1 => Fcc::Lt,
            2 => Fcc::Gt,
            _ => Fcc::Uo,
        }
    }
}

/// FBfcc branch conditions (the subset this reproduction emits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FCond {
    /// Never.
    N = 0,
    /// Not equal (L, G or U).
    Ne = 1,
    /// Less.
    L = 4,
    /// Greater.
    G = 6,
    /// Always.
    A = 8,
    /// Equal.
    E = 9,
    /// Greater or equal (E or G).
    Ge = 11,
    /// Less or equal (E or L).
    Le = 13,
}

impl FCond {
    /// Decode a 4-bit `cond` field; unsupported encodings fold to `N`.
    pub fn from_bits(bits: u8) -> FCond {
        use FCond::*;
        match bits & 15 {
            1 => Ne,
            4 => L,
            6 => G,
            8 => A,
            9 => E,
            11 => Ge,
            13 => Le,
            _ => N,
        }
    }

    /// Evaluate against an `fcc` value.
    #[inline]
    pub fn eval(self, fcc: Fcc) -> bool {
        use FCond::*;
        match self {
            N => false,
            A => true,
            E => fcc == Fcc::Eq,
            Ne => fcc != Fcc::Eq,
            L => fcc == Fcc::Lt,
            G => fcc == Fcc::Gt,
            Ge => matches!(fcc, Fcc::Eq | Fcc::Gt),
            Le => matches!(fcc, Fcc::Eq | Fcc::Lt),
        }
    }

    /// Assembler mnemonic (`fbe`, `fbl`, ...).
    pub fn mnemonic(self) -> &'static str {
        use FCond::*;
        match self {
            N => "fbn",
            Ne => "fbne",
            L => "fbl",
            G => "fbg",
            A => "fba",
            E => "fbe",
            Ge => "fbge",
            Le => "fble",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn icc(n: u8, z: u8, v: u8, c: u8) -> Icc {
        Icc {
            n: n != 0,
            z: z != 0,
            v: v != 0,
            c: c != 0,
        }
    }

    #[test]
    fn icc_bits_round_trip() {
        for bits in 0..16u8 {
            assert_eq!(Icc::from_bits(bits).to_bits(), bits);
        }
    }

    #[test]
    fn cond_bits_round_trip() {
        for bits in 0..16u8 {
            assert_eq!(Cond::from_bits(bits) as u8, bits);
        }
    }

    #[test]
    fn signed_predicates() {
        // 3 - 5: negative result, no overflow -> l taken, ge not.
        let cc = icc(1, 0, 0, 1);
        assert!(Cond::L.eval(cc));
        assert!(!Cond::Ge.eval(cc));
        assert!(Cond::Le.eval(cc));
        assert!(!Cond::G.eval(cc));
        // equal
        let cc = icc(0, 1, 0, 0);
        assert!(Cond::E.eval(cc));
        assert!(Cond::Le.eval(cc));
        assert!(Cond::Ge.eval(cc));
        assert!(!Cond::L.eval(cc));
        // overflow flips signed comparisons
        let cc = icc(1, 0, 1, 0);
        assert!(Cond::Ge.eval(cc), "n^v == 0 means ge");
        assert!(!Cond::L.eval(cc));
    }

    #[test]
    fn unsigned_predicates() {
        // borrow set => unsigned less
        let cc = icc(0, 0, 0, 1);
        assert!(Cond::Cs.eval(cc));
        assert!(Cond::Leu.eval(cc));
        assert!(!Cond::Gu.eval(cc));
        assert!(!Cond::Cc.eval(cc));
    }

    #[test]
    fn always_never_complementary() {
        for bits in 0..16u8 {
            let cc = Icc::from_bits(bits);
            assert!(Cond::A.eval(cc));
            assert!(!Cond::N.eval(cc));
            // cond(i) and cond(i ^ 8) are complements in SPARC.
            for c in 0..16u8 {
                let a = Cond::from_bits(c).eval(cc);
                let b = Cond::from_bits(c ^ 8).eval(cc);
                assert_ne!(a, b, "cond {c} vs {} under {bits:04b}", c ^ 8);
            }
        }
    }

    #[test]
    fn fcond_eval() {
        assert!(FCond::E.eval(Fcc::Eq));
        assert!(FCond::Ne.eval(Fcc::Uo));
        assert!(FCond::L.eval(Fcc::Lt));
        assert!(!FCond::Ge.eval(Fcc::Lt));
        assert!(FCond::Le.eval(Fcc::Eq));
        assert!(FCond::A.eval(Fcc::Gt));
    }
}
