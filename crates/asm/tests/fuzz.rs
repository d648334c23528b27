//! Fuzz-style robustness tests for the assembler front end: arbitrary
//! input must produce `Ok` or a typed `Err` — never a panic. The parser
//! sits on the fault-campaign input path (`dtsvliw_faultsim` assembles
//! workload sources at startup), so a crash here takes the whole
//! campaign down.
//!
//! The sweeps draw from the workspace's seeded SplitMix64 (the fault
//! injector's generator); the two properties at the bottom run on the
//! seeded property driver.

use dtsvliw_asm::assemble;
use dtsvliw_rng::check::{check, Gen};
use dtsvliw_rng::Rng64;

/// Bytes drawn from the characters the tokeniser actually dispatches
/// on, so the sweep spends its budget past the first character.
const ALPHABET: &[u8] = b"abcxyz%!,.+-_:[]()0189 \t\n\"\\#@gosl";

fn assemble_must_not_panic(src: &str) {
    // `assemble` returning Err is fine; unwinding is the bug.
    let _ = assemble(src);
}

/// Raw byte soup (valid UTF-8 only, as `assemble` takes `&str`).
#[test]
fn random_ascii_never_panics() {
    let mut rng = Rng64::new(0x5eed_0001);
    for _ in 0..2000 {
        let len = rng.below(80) as usize;
        let src: String = (0..len)
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char)
            .collect();
        assemble_must_not_panic(&src);
    }
}

/// Structured soup: well-formed lines with one field replaced by junk,
/// which reaches much deeper into operand parsing than raw bytes do.
#[test]
fn mutated_instructions_never_panic() {
    let templates = [
        "_start: add %o0, {}, %o1\n",
        "_start: ld [{}], %o2\n",
        "_start: st %o1, [%o0 + {}]\n",
        "_start: set {}, %g1\n",
        "_start: ba {}\n nop\n",
        "{}: nop\n",
        ".org {}\n_start: nop\n",
        ".space {}\n",
        "_start: {} %o0, %o1, %o2\n",
    ];
    // One junk field per `|`-separated entry, the empty one first.
    let junk = "|%|%o8|%o-1|0x|0x10000000000|-|+4096|-4097|%hi|%hi(|%hi(_start|lo(x)|[|]|[[%o0]]|\
        1 2|_|9lbl|..|\u{7f}|ta|4294967296|-2147483649";
    for t in templates {
        for j in junk.split('|') {
            assemble_must_not_panic(&t.replace("{}", j));
        }
    }
}

/// Line-splice soup: shuffle fragments of a valid program so labels
/// dangle, delay slots vanish, and directives land mid-instruction.
#[test]
fn spliced_program_fragments_never_panic() {
    let fragments = [
        "_start:",
        " set 0x8000, %o0",
        " ld [%o0 + 64], %g2",
        "loop:",
        " cmp %o1, 4",
        " bl loop",
        " nop",
        ".align 4",
        ".org 0x1000",
        " ta 0",
        "! comment",
    ];
    let mut rng = Rng64::new(0x5eed_0002);
    for _ in 0..500 {
        let n = 1 + rng.below(12) as usize;
        let src: String = (0..n)
            .map(|_| fragments[rng.below(fragments.len() as u64) as usize])
            .collect::<Vec<_>>()
            .join("\n");
        assemble_must_not_panic(&src);
    }
}

/// Any Unicode scalar value but a newline, half of them ASCII.
fn any_char(g: &mut Gen) -> char {
    let top = g.pick(&[0x80, 0x11_0000]);
    match char::from_u32(g.range(0..top)) {
        Some(c) if c != '\n' => c,
        _ => any_char(g),
    }
}

/// Printable ASCII, space to tilde.
fn printable(g: &mut Gen) -> char {
    g.range(b' '..b'~' + 1) as char
}

/// Fully arbitrary strings — the strongest form of the never-panic
/// claim.
#[test]
fn arbitrary_strings_never_panic() {
    let text = |g: &mut Gen| String::from_iter(g.vec(0..201, any_char));
    check(256, 200, text, |src| assemble_must_not_panic(src));
}

/// Arbitrary printable-ish lines joined with newlines, biased toward
/// the assembler's own vocabulary.
#[test]
fn assembler_flavoured_soup_never_panics() {
    let line = |g: &mut Gen| String::from_iter(g.vec(0..41, printable));
    let soup = |g: &mut Gen| g.vec(0..10, line);
    check(256, 40, soup, |lines| {
        assemble_must_not_panic(&lines.join("\n"))
    });
}
