//! Seeded property checks on [`Rng64`].
//!
//! [`check`] runs a property on `cases` inputs. Case `i` draws its
//! input from its own seed (the `i`-th draw of a fixed seed stream)
//! through a [`Gen`], whose size bound caps trace lengths, collection
//! lengths and expression depths. When a case fails, the driver
//! regenerates the same seed with the size bound halved, again and
//! again, until the case passes or the bound reaches 1, and then panics
//! with the seed, the smallest failing size and that size's input.
//! Generators that draw their lengths first and their elements after
//! make each smaller input a prefix of the larger one.
//!
//! ```
//! use dtsvliw_rng::check::check;
//!
//! check(
//!     64,
//!     32,
//!     |g| g.vec(0..100, |g| g.bits::<u8>()),
//!     |v| assert!(v.len() <= 32),
//! );
//! ```

use crate::Rng64;
use std::any::Any;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seed of the stream the per-case seeds are drawn from.
const SEED: u64 = 0x0d75_c0de_5eed;

/// Input generation for one case: the case's generator and size bound.
pub struct Gen {
    rng: Rng64,
    size: usize,
}

/// Integer types [`Gen`] draws.
pub trait Int: Copy {
    /// The value, widened losslessly.
    fn wide(self) -> i128;
    /// The low bits of `v` as this type.
    fn narrow(v: i128) -> Self;
}

macro_rules! int {
    ($($t:ty)*) => {$(
        impl Int for $t {
            fn wide(self) -> i128 {
                self as i128
            }
            fn narrow(v: i128) -> Self {
                v as $t
            }
        }
    )*};
}
int!(u8 u16 u32 i32 usize);

impl Gen {
    /// The size bound: the longest trace or collection, or the deepest
    /// expression, this case may generate.
    pub fn size(&self) -> usize {
        self.size
    }

    /// A uniformly random value of `T` (every bit pattern).
    pub fn bits<T: Int>(&mut self) -> T {
        T::narrow(self.rng.next_u64() as i128)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() >> 63 == 1
    }

    /// A uniform value in the half-open range `r`, which must not be empty.
    pub fn range<T: Int>(&mut self, r: Range<T>) -> T {
        let (lo, hi) = (r.start.wide(), r.end.wide());
        assert!(lo < hi, "empty range");
        T::narrow(lo + self.rng.below((hi - lo) as u64) as i128)
    }

    /// One of `items`, uniformly.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.rng.below(items.len() as u64) as usize]
    }

    /// A vector of items, each drawn by `item`, whose length lies in
    /// `len` and is capped at the size bound (but never below `len.start`).
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let hi = len.end.min(self.size + 1).max(len.start + 1);
        let n = self.range(len.start..hi);
        (0..n).map(|_| item(self)).collect()
    }
}

/// Run `prop` on `cases` inputs made by `gen` with size bound `size`;
/// on the first failure, shrink by halving the size and panic with the
/// smallest failing case.
pub fn check<T: Debug>(cases: u32, size: usize, gen: impl Fn(&mut Gen) -> T, prop: impl Fn(&T)) {
    let run = |seed: u64, size: usize| {
        let input = gen(&mut Gen {
            rng: Rng64::new(seed),
            size,
        });
        let outcome = catch_unwind(AssertUnwindSafe(|| prop(&input)));
        (input, outcome.map_err(|p| message(p.as_ref())))
    };
    let mut seeds = Rng64::new(SEED);
    for _ in 0..cases {
        let seed = seeds.next_u64();
        let (mut input, Err(mut cause)) = run(seed, size) else {
            continue;
        };
        let (mut at, mut s) = (size, size);
        while s > 1 {
            s /= 2;
            match run(seed, s) {
                (smaller, Err(why)) => (input, cause, at) = (smaller, why, s),
                (_, Ok(())) => break,
            }
        }
        panic!(
            "property failed on seed {seed:#018x}; smallest failing size {at} \
             (first failed at {size})\ninput: {input:?}\ncause: {cause}"
        );
    }
}

/// The text of a panic payload.
fn message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<String>() {
        Some(s) => s.clone(),
        None => payload
            .downcast_ref::<&str>()
            .map_or_else(|| "non-text panic".to_string(), |s| s.to_string()),
    }
}
