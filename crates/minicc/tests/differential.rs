//! Differential fuzzing of the compiler: random expression trees are
//! compiled and executed on the simulated machine, and the result is
//! compared against a Rust-side evaluator with C semantics.

use dtsvliw_minicc::compile_to_image;
use dtsvliw_primary::{RefMachine, RunOutcome};
use dtsvliw_rng::check::{check, Gen};

/// A random expression over the variables a, b, c with guarded
/// divisions (non-zero constant divisors).
#[derive(Debug, Clone)]
enum E {
    Num(i32),
    Var(u8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    DivC(Box<E>, i32),
    RemC(Box<E>, i32),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    ShlC(Box<E>, u8),
    ShrC(Box<E>, u8),
    Lt(Box<E>, Box<E>),
    Eq(Box<E>, Box<E>),
    Neg(Box<E>),
    Not(Box<E>),
}

/// A random expression at most `depth` operators deep; a quarter of
/// the inner nodes stop early at a leaf.
fn arb_expr(g: &mut Gen, depth: usize) -> E {
    if depth == 0 || g.range(0..4) == 0 {
        return if g.bool() {
            E::Num(g.range(-1000..1000))
        } else {
            E::Var(g.range(0..3))
        };
    }
    let sub = |g: &mut Gen| Box::new(arb_expr(g, depth - 1));
    match g.range(0..14) {
        0 => E::Add(sub(g), sub(g)),
        1 => E::Sub(sub(g), sub(g)),
        2 => E::Mul(sub(g), sub(g)),
        3 => E::DivC(sub(g), g.range(1..100)),
        4 => E::RemC(sub(g), g.range(1..100)),
        5 => E::And(sub(g), sub(g)),
        6 => E::Or(sub(g), sub(g)),
        7 => E::Xor(sub(g), sub(g)),
        8 => E::ShlC(sub(g), g.range(0..31)),
        9 => E::ShrC(sub(g), g.range(0..31)),
        10 => E::Lt(sub(g), sub(g)),
        11 => E::Eq(sub(g), sub(g)),
        12 => E::Neg(sub(g)),
        _ => E::Not(sub(g)),
    }
}

fn to_src(e: &E) -> String {
    match e {
        E::Num(n) => format!("({n})"),
        E::Var(v) => ["a", "b", "c"][*v as usize].to_string(),
        E::Add(a, b) => format!("({} + {})", to_src(a), to_src(b)),
        E::Sub(a, b) => format!("({} - {})", to_src(a), to_src(b)),
        E::Mul(a, b) => format!("({} * {})", to_src(a), to_src(b)),
        E::DivC(a, d) => format!("({} / {d})", to_src(a)),
        E::RemC(a, d) => format!("({} % {d})", to_src(a)),
        E::And(a, b) => format!("({} & {})", to_src(a), to_src(b)),
        E::Or(a, b) => format!("({} | {})", to_src(a), to_src(b)),
        E::Xor(a, b) => format!("({} ^ {})", to_src(a), to_src(b)),
        E::ShlC(a, s) => format!("({} << {s})", to_src(a)),
        E::ShrC(a, s) => format!("({} >> {s})", to_src(a)),
        E::Lt(a, b) => format!("({} < {})", to_src(a), to_src(b)),
        E::Eq(a, b) => format!("({} == {})", to_src(a), to_src(b)),
        E::Neg(a) => format!("(-{})", to_src(a)),
        E::Not(a) => format!("(~{})", to_src(a)),
    }
}

/// The language reference semantics: 32-bit wrapping, C truncating
/// division, logical right shift, 0/1 comparisons.
fn eval(e: &E, vars: [i32; 3]) -> i32 {
    match e {
        E::Num(n) => *n,
        E::Var(v) => vars[*v as usize],
        E::Add(a, b) => eval(a, vars).wrapping_add(eval(b, vars)),
        E::Sub(a, b) => eval(a, vars).wrapping_sub(eval(b, vars)),
        E::Mul(a, b) => eval(a, vars).wrapping_mul(eval(b, vars)),
        E::DivC(a, d) => eval(a, vars).wrapping_div(*d),
        E::RemC(a, d) => eval(a, vars).wrapping_rem(*d),
        E::And(a, b) => eval(a, vars) & eval(b, vars),
        E::Or(a, b) => eval(a, vars) | eval(b, vars),
        E::Xor(a, b) => eval(a, vars) ^ eval(b, vars),
        E::ShlC(a, s) => ((eval(a, vars) as u32) << s) as i32,
        E::ShrC(a, s) => ((eval(a, vars) as u32) >> s) as i32,
        E::Lt(a, b) => (eval(a, vars) < eval(b, vars)) as i32,
        E::Eq(a, b) => (eval(a, vars) == eval(b, vars)) as i32,
        E::Neg(a) => eval(a, vars).wrapping_neg(),
        E::Not(a) => !eval(a, vars),
    }
}

#[test]
fn compiled_expressions_match_reference_semantics() {
    let case = |g: &mut Gen| {
        let vars = [(); 3].map(|_| g.range(-10_000..10_000));
        (arb_expr(g, g.size()), vars)
    };
    check(48, 4, case, |(e, [a, b, c])| {
        let src = format!(
            "fn work(a, b, c) {{ return {}; }}\n\
             fn main() {{ return work({a}, {b}, {c}); }}",
            to_src(e)
        );
        let img = match compile_to_image(&src) {
            Ok(img) => img,
            // Deep trees can exceed the expression stack: a *rejection*
            // is fine, miscompilation is not.
            Err(err) if err.msg.contains("too deep") => return,
            Err(err) => panic!("compile error: {err}\n{src}"),
        };
        let mut m = RefMachine::new(&img);
        match m.run(5_000_000).unwrap() {
            RunOutcome::Halted { code, .. } => {
                assert_eq!(code as i32, eval(e, [*a, *b, *c]), "program:\n{src}");
            }
            RunOutcome::OutOfFuel => panic!("did not halt"),
        }
    });
}
