//! The property driver itself: passing properties run every case, and a
//! failing one is reported at the smallest size that still fails.

use dtsvliw_rng::check::check;
use std::cell::Cell;
use std::panic::catch_unwind;

#[test]
fn passing_property_runs_every_case() {
    let runs = Cell::new(0);
    check(
        37,
        16,
        |g| g.vec(0..100, |g| g.bool()).len(),
        |&n| {
            assert!(n <= 16, "length {n} exceeds the size bound");
            runs.set(runs.get() + 1);
        },
    );
    assert_eq!(runs.get(), 37);
}

#[test]
fn failure_reports_seed_smallest_size_and_input() {
    // Fails whenever the vector holds 3 or more elements: halving from
    // 64 must stop at the smallest size that still fails, a prefix of
    // the original input.
    let report = catch_unwind(|| {
        check(
            64,
            64,
            |g| {
                let n = g.size();
                (0..n).map(|_| g.range(0u8..10)).collect::<Vec<_>>()
            },
            |v| assert!(v.len() < 3, "too long"),
        )
    })
    .expect_err("the property fails");
    let text = report.downcast_ref::<String>().expect("a formatted report");
    assert!(text.contains("property failed on seed 0x"), "{text}");
    assert!(text.contains("smallest failing size 4"), "{text}");
    assert!(text.contains("first failed at 64"), "{text}");
    assert!(text.contains("cause: too long"), "{text}");
}

#[test]
fn draws_stay_in_range() {
    check(
        256,
        8,
        |g| {
            (
                g.range(-8i32..8),
                g.range(3usize..4),
                g.vec(2..5, |g| g.bool()).len(),
                g.pick(&[7u16, 9]),
            )
        },
        |&(a, b, n, p)| {
            assert!((-8..8).contains(&a));
            assert_eq!(b, 3);
            assert!((2..5).contains(&n));
            assert!(p == 7 || p == 9);
        },
    );
}
