//! Property tests over the assembler: disassemble → reassemble fixed
//! points and image-loading invariants.

use dtsvliw_asm::assemble;
use dtsvliw_isa::encode::decode;
use dtsvliw_isa::insn::AluOp::{Add, And, Or, Sub, Xnor, Xor};
use dtsvliw_isa::insn::MemOp::{Ld, Ldsb, Ldsh, Ldub, Lduh, St, Stb, Sth};
use dtsvliw_isa::insn::{Instr, Src2};
use dtsvliw_rng::check::{check, Gen};

const CASES: u32 = 256;

fn arb_src2(g: &mut Gen) -> Src2 {
    if g.bool() {
        Src2::Reg(g.range(0..32))
    } else {
        Src2::Imm(g.range(-4096..4096))
    }
}

/// A random ALU or memory instruction over the whole register file.
fn arb_instr(g: &mut Gen) -> Instr {
    let (rs1, src2) = (g.range(0..32), arb_src2(g));
    if g.bool() {
        let op = g.pick(&[Add, Sub, And, Or, Xor, Xnor]);
        let (cc, rd) = (g.bool(), g.range(1..32));
        Instr::Alu {
            op,
            cc,
            rd,
            rs1,
            src2,
        }
    } else {
        let op = g.pick(&[Ld, Ldub, Ldsb, Lduh, Ldsh, St, Stb, Sth]);
        Instr::Mem {
            op,
            rd: g.range(0..32),
            rs1,
            src2,
        }
    }
}

/// Disassembling an instruction and assembling the text reproduces
/// the instruction (fixed point of the round trip).
#[test]
fn disassembly_reassembles() {
    check(CASES, 1, arb_instr, |&i| {
        if i.is_nop() {
            return; // `nop` prints as a synthetic
        }
        let text = format!("_start: {i}\n");
        let img = assemble(&text).unwrap_or_else(|e| panic!("`{i}` rejected: {e}"));
        let (_, word) = img.words().next().expect("one instruction");
        assert_eq!(decode(word), i, "text was `{i}`");
    });
}

/// Labels resolve to their instruction's address regardless of
/// preceding padding.
#[test]
fn label_addresses_track_layout() {
    let pads = |g: &mut Gen| g.range(0u32..64);
    check(CASES, 1, pads, |&pad| {
        let src = format!(
            ".org 0x1000\n_start: nop\n .space {}\n .align 4\nhere: nop\n",
            pad * 3
        );
        let img = assemble(&src).unwrap();
        let here = img.symbol("here").unwrap();
        assert_eq!(here % 4, 0);
        assert!(here >= 0x1004 + pad * 3);
        // The word at `here` is the nop.
        let mut mem = dtsvliw_mem::Memory::new();
        img.load_into(&mut mem);
        assert!(decode(mem.read_u32(here)).is_nop());
    });
}

/// Branch displacement encoding survives for any target in range.
#[test]
fn branch_targets_resolve() {
    let gaps = |g: &mut Gen| g.range(1u32..1000);
    check(CASES, 1, gaps, |&gap| {
        let nops = "    nop\n".repeat(gap as usize);
        let src = format!("_start: ba target\n nop\n{nops}target: nop\n");
        let img = assemble(&src).unwrap();
        let (pc0, w) = img.words().next().unwrap();
        match decode(w) {
            Instr::Bicc { disp22, .. } => {
                let target = pc0.wrapping_add((disp22 as u32).wrapping_mul(4));
                assert_eq!(target, img.symbol("target").unwrap());
            }
            other => panic!("expected ba, got {other:?}"),
        }
    });
}

#[test]
fn set_synthesises_any_u32() {
    for v in [
        0u32,
        1,
        4095,
        4096,
        0xffff_ffff,
        0x8000_0000,
        0x0010_0000,
        0x1234_5678,
    ] {
        let src = format!("_start: set {v:#x}, %o0\n ta 0\n");
        let img = assemble(&src).unwrap();
        let mut m = dtsvliw_primary::RefMachine::new(&img);
        m.run(10).unwrap();
        assert_eq!(m.state.get(dtsvliw_isa::regs::r::O0), v, "set {v:#x}");
    }
}
