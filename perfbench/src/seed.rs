//! Seeded inputs: the Table 2 programs with their shared LCG reseeded.
//!
//! Every program's source opens with the same LCG line. The benchmark
//! rewrites that line from the workload seed before compiling, so the
//! programs' generated inputs differ from the seed they were tuned on
//! (held-back inputs). The tuned seed reproduces the sources verbatim.

use dtsvliw_asm::Image;
use dtsvliw_workloads::Scale;

/// The LCG seed the workload sources ship with (and were tuned on);
/// it appears in [`LCG_LINE`].
#[cfg(test)]
pub const TUNED_SEED: u64 = 20260706;
/// The benchmark's default seed: deliberately not the tuned one.
pub const DEFAULT_SEED: u64 = 7;

const LCG_LINE: &str = "int seed = 20260706;";

/// The LCG seed a workload seed maps to: minicc integers are 32-bit
/// signed, so the value is folded into the positive range.
pub fn lcg_seed(seed: u64) -> u64 {
    seed % (1 << 31)
}

/// `src` with its LCG line rewritten for `seed`. Errors when the line
/// is missing or appears more than once.
pub fn reseed(src: &str, seed: u64) -> Result<String, String> {
    match src.matches(LCG_LINE).count() {
        1 => Ok(src.replacen(LCG_LINE, &format!("int seed = {};", lcg_seed(seed)), 1)),
        n => Err(format!("expected one LCG line, found {n}")),
    }
}

/// One seeded program: `(name, minicc source, expected exit code)`.
pub type Source = (&'static str, String, Option<u32>);

/// The reseeded sources of the eight Table 2 programs, in table order.
pub fn sources(scale: Scale, seed: u64) -> Result<Vec<Source>, String> {
    dtsvliw_workloads::all(scale)
        .into_iter()
        .map(|w| {
            let src = reseed(&w.source, seed).map_err(|e| format!("{}: {e}", w.name))?;
            Ok((w.name, src, w.expected_exit))
        })
        .collect()
}

/// Compile one source (the call the `minicc` layer is timed on).
pub fn compile(name: &str, src: &str) -> Result<Image, String> {
    dtsvliw_minicc::compile_to_image(src).map_err(|e| format!("{name}: compile error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_seed_reproduces_the_sources_verbatim() {
        let ours = sources(Scale::Test, TUNED_SEED).unwrap();
        for (w, (name, src, exit)) in dtsvliw_workloads::all(Scale::Test).iter().zip(&ours) {
            assert_eq!(w.name, *name);
            assert_eq!(&w.source, src);
            assert_eq!(w.expected_exit, *exit);
        }
    }

    #[test]
    fn rewrite_changes_exactly_the_lcg_line() {
        for (w, (_, src, _)) in dtsvliw_workloads::all(Scale::Test)
            .iter()
            .zip(sources(Scale::Test, 11).unwrap())
        {
            assert!(!src.contains(LCG_LINE), "{}", w.name);
            assert!(src.contains("int seed = 11;"), "{}", w.name);
            let changed: Vec<_> = w
                .source
                .lines()
                .zip(src.lines())
                .filter(|(a, b)| a != b)
                .collect();
            assert_eq!(changed, vec![(LCG_LINE, "int seed = 11;")], "{}", w.name);
        }
    }

    #[test]
    fn default_seed_is_held_back_and_seeds_fold_into_int_range() {
        assert_ne!(DEFAULT_SEED, TUNED_SEED);
        assert_eq!(lcg_seed(TUNED_SEED), TUNED_SEED);
        assert!(lcg_seed(u64::MAX) < 1 << 31);
    }

    #[test]
    fn rewrite_rejects_sources_without_exactly_one_lcg_line() {
        assert!(reseed("fn main() { halt(0); }", 1).is_err());
        assert!(reseed(&format!("{LCG_LINE}\n{LCG_LINE}"), 1).is_err());
    }

    /// The suite workloads run at `Scale::Test` on any seed, so a spread
    /// of seeds must self-check there.
    #[test]
    fn reseeded_programs_compile_and_self_check() {
        use dtsvliw_primary::{RefMachine, RunOutcome};
        for seed in (0..24).chain([DEFAULT_SEED, 1 << 40, u64::MAX]) {
            for (name, src, exit) in sources(Scale::Test, seed).unwrap() {
                let image = compile(name, &src).unwrap();
                match RefMachine::new(&image).run(50_000_000).unwrap() {
                    RunOutcome::Halted { code, .. } => {
                        assert_eq!(Some(code), exit, "{name} seed {seed}")
                    }
                    RunOutcome::OutOfFuel => panic!("{name} seed {seed} did not halt"),
                }
            }
        }
    }
}
