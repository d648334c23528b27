//! Network strikes for the chaos harness.
//!
//! When `--chaos` is armed and remote workers are attached, every
//! remote slot runs its own seeded strike generator (keyed by the
//! campaign chaos seed, the endpoint, and the slot index, so the storm
//! is reproducible and independent of thread interleaving) and attacks
//! its *own* connection:
//!
//! * **reset** — drop the connection mid-lease, the shape of a peer
//!   crash or an RST from a middlebox; the in-flight attempt is lost
//!   and forgiven, the slot reconnects with backoff;
//! * **half-open** — stop *processing* incoming frames for a while
//!   (they are received and discarded), the shape of a peer that still
//!   has the socket but stopped answering; the keepalive-silence
//!   detector must declare the connection dead;
//! * **truncate** — write half of an outgoing frame and slam the
//!   connection shut, exercising the worker-side torn-frame handling;
//! * **duplicate result** — deliver the next result frame twice; the
//!   second copy must be rejected by the lease table (at-most-once
//!   proven in vivo, not just in unit tests).
//!
//! Every applied strike is recorded as a `chaos_strike` span; the
//! wall-clock ledger counts them from the span log, so CI can assert
//! the storm actually attacked the wire.

use dtsvliw_faults::Rng64;

/// One network strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetStrike {
    /// Drop the connection now.
    Reset,
    /// Discard incoming frames for this many milliseconds.
    HalfOpen(u64),
    /// Truncate the next outgoing frame and close.
    Truncate,
    /// Process the next result frame twice.
    DupResult,
}

/// Seeded strike generator, one per remote slot.
pub struct NetChaos {
    rng: Rng64,
}

impl NetChaos {
    /// One generator per (chaos seed, endpoint, slot): deterministic for
    /// the slot no matter how the other slots interleave.
    pub fn new(chaos_seed: u64, endpoint: &str, slot: usize) -> Self {
        let key = crate::supervise::fnv1a(endpoint.as_bytes()) ^ (slot as u64).wrapping_mul(0x9e37);
        NetChaos {
            rng: Rng64::new(chaos_seed ^ key ^ 0x0e7c_4a05_0e7c_4a05),
        }
    }

    /// Roll for a strike on this tick: on average one per
    /// `period_ticks` calls.
    pub fn draw(&mut self, period_ticks: u64) -> Option<NetStrike> {
        if self.rng.below(period_ticks.max(1)) != 0 {
            return None;
        }
        Some(match self.rng.below(4) {
            0 => NetStrike::Reset,
            1 => NetStrike::HalfOpen(500 + self.rng.below(4000)),
            2 => NetStrike::Truncate,
            _ => NetStrike::DupResult,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_per_slot_key() {
        let seq = |seed, ep: &str, slot| {
            let mut c = NetChaos::new(seed, ep, slot);
            (0..256).map(|_| c.draw(3)).collect::<Vec<_>>()
        };
        assert_eq!(seq(1, "a:1", 0), seq(1, "a:1", 0));
        assert_ne!(seq(1, "a:1", 0), seq(1, "a:1", 1), "slots decorrelate");
        assert_ne!(seq(1, "a:1", 0), seq(1, "b:1", 0), "endpoints decorrelate");
        assert_ne!(seq(1, "a:1", 0), seq(2, "a:1", 0), "seeds decorrelate");
    }

    #[test]
    fn every_strike_kind_eventually_fires() {
        let mut c = NetChaos::new(11, "w:9", 0);
        let mut kinds = [false; 4];
        for _ in 0..4096 {
            match c.draw(2) {
                Some(NetStrike::Reset) => kinds[0] = true,
                Some(NetStrike::HalfOpen(ms)) => {
                    assert!((500..4500).contains(&ms));
                    kinds[1] = true;
                }
                Some(NetStrike::Truncate) => kinds[2] = true,
                Some(NetStrike::DupResult) => kinds[3] = true,
                None => {}
            }
        }
        assert_eq!(kinds, [true; 4]);
    }
}
