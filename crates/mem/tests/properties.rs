//! Property tests over the memory substrate.

use dtsvliw_mem::{Cache, CacheConfig, Memory};
use dtsvliw_rng::check::{check, Gen};
use std::collections::{HashMap, HashSet};

const CASES: u32 = 256;

/// Writes then reads of arbitrary sizes round-trip, byte-exactly.
#[test]
fn memory_round_trips() {
    let write = |g: &mut Gen| (g.bits::<u32>(), g.range(0u8..3), g.bits::<u32>());
    check(
        CASES,
        64,
        |g| g.vec(1..64, write),
        |ops| {
            let mut mem = Memory::new();
            let mut model: HashMap<u32, u8> = HashMap::new();
            for &(addr, size_sel, value) in ops {
                let size = [1u8, 2, 4][size_sel as usize];
                let addr = addr & !(size as u32 - 1);
                mem.write(addr, size, value);
                let bytes = value.to_be_bytes();
                for k in 0..size {
                    model.insert(addr.wrapping_add(k as u32), bytes[(4 - size + k) as usize]);
                }
            }
            for (&a, &b) in &model {
                assert_eq!(mem.read_u8(a), b, "byte at {a:#x}");
            }
        },
    );
}

/// A cache with as many ways as blocks-in-use never misses twice on
/// the same line (full associativity ⇒ no conflict misses).
#[test]
fn fully_associative_has_only_cold_misses() {
    let lines = |g: &mut Gen| g.vec(1..128, |g| g.range(0u32..16));
    check(CASES, 128, lines, |lines| {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 16 * 64,
            line_bytes: 64,
            ways: 16,
            miss_penalty: 1,
        });
        let distinct: HashSet<u32> = lines.iter().copied().collect();
        for l in lines {
            c.access(l * 64);
        }
        assert_eq!(c.stats().misses, distinct.len() as u64);
    });
}

/// Miss count is monotone in working-set pressure: a bigger cache
/// never misses more on the same trace.
#[test]
fn bigger_cache_never_misses_more() {
    let trace = |g: &mut Gen| g.vec(1..256, Gen::bits::<u16>);
    check(CASES, 256, trace, |trace| {
        let run = |kb: u32| {
            let mut c = Cache::new(CacheConfig {
                size_bytes: kb * 1024,
                line_bytes: 32,
                ways: kb, // keep sets constant: only ways grow
                miss_penalty: 1,
            });
            for &a in trace {
                c.access(a as u32 * 8);
            }
            c.stats().misses
        };
        assert!(run(8) >= run(16), "8KB misses >= 16KB misses");
    });
}

#[test]
fn load_helper_matches_manual_writes() {
    let mut m = Memory::new();
    m.load(0xfffffffe, &[1, 2, 3, 4]); // wraps around the address space
    assert_eq!(m.read_u8(0xfffffffe), 1);
    assert_eq!(m.read_u8(0xffffffff), 2);
    assert_eq!(m.read_u8(0), 3);
    assert_eq!(m.read_u8(1), 4);
}
