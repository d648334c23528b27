//! Always-on, burst-compatible telemetry: the host-side counter
//! registry the VLIW burst loop folds into at burst exit, and the heartbeat
//! progress stream.
//!
//! Three observation tiers coexist in the simulator (DESIGN.md §12):
//!
//! 1. **`RunStats` / [`crate::Metrics`]** — *simulated* counters.
//!    Deterministic, serialised into snapshots, part of every report
//!    digest. Updating them is part of executing the machine.
//! 2. **[`Telemetry`]** (this module) — *host-side* counters about how
//!    the simulation was executed (bursts taken, chains crossed,
//!    work retired inside bursts). Never serialised, never part of
//!    `RunStats`, reset on resume; two runs of the same program may
//!    legitimately disagree here (e.g. a resumed vs an uninterrupted
//!    run).
//! 3. **[`Heartbeat`]** (this module) — a cycle-budgeted JSONL progress
//!    stream. Every record is derived purely from *simulated* state at
//!    a *simulated* cycle stamp, except the host-side `bursts`/`chained`
//!    counters — only its existence is a host-side concern.
//!
//! Unlike the `Option<Box<Tracer>>` hooks, [`Telemetry`] is owned
//! unconditionally by the machine: the burst loop accumulates per-burst
//! deltas in plain locals and folds them here once per burst, so the
//! hot loop carries no extra branch at all.

use crate::metrics::Histogram;
use dtsvliw_json::{Json, ToJson};
use std::io::{self, BufWriter, Write};

/// Per-burst delta accounting, accumulated in plain `u64`s inside
/// `run_vliw_burst` and folded into [`Telemetry`] exactly once at burst
/// exit (any exit: mode swap, halt, budget, watchdog, engine error).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BurstDelta {
    /// Machine cycles charged during the burst (VLIW + transition
    /// overhead + any recovery the burst's exits performed).
    pub cycles: u64,
    /// Sequential instructions retired during the burst.
    pub instructions: u64,
    /// Block-chain transitions taken without leaving the burst.
    pub chained: u64,
    /// VLIW-cache hits observed during the burst (chain probes).
    pub vcache_hits: u64,
    /// VLIW-cache evictions observed during the burst.
    pub vcache_evictions: u64,
}

/// Host-side telemetry registry (tier 2 of the taxonomy above).
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Bursts entered by the VLIW burst loop.
    pub bursts: u64,
    /// Block-chain transitions taken inside bursts.
    pub burst_chained: u64,
    /// Cycles charged inside bursts.
    pub burst_cycles: u64,
    /// Sequential instructions retired inside bursts.
    pub burst_instructions: u64,
    /// VLIW-cache hits observed inside bursts.
    pub burst_vcache_hits: u64,
    /// VLIW-cache evictions observed inside bursts.
    pub burst_vcache_evictions: u64,
    /// Cycles per burst (log2 buckets: burst lengths are heavy-tailed).
    pub burst_len_cycles: Histogram,
    /// Chain transitions per burst.
    pub burst_chain_len: Histogram,
    /// Heartbeat records emitted.
    pub heartbeats: u64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            bursts: 0,
            burst_chained: 0,
            burst_cycles: 0,
            burst_instructions: 0,
            burst_vcache_hits: 0,
            burst_vcache_evictions: 0,
            burst_len_cycles: Histogram::log2(),
            burst_chain_len: Histogram::log2(),
            heartbeats: 0,
        }
    }
}

impl Telemetry {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one finished burst's deltas in. Called once per burst, at
    /// burst exit — never from the hot loop.
    pub fn fold_burst(&mut self, d: BurstDelta) {
        self.bursts += 1;
        self.burst_chained += d.chained;
        self.burst_cycles += d.cycles;
        self.burst_instructions += d.instructions;
        self.burst_vcache_hits += d.vcache_hits;
        self.burst_vcache_evictions += d.vcache_evictions;
        self.burst_len_cycles.record(d.cycles);
        self.burst_chain_len.record(d.chained);
    }
}

impl ToJson for Telemetry {
    fn to_json(&self) -> Json {
        Json::obj([
            ("bursts", Json::U64(self.bursts)),
            ("burst_chained", Json::U64(self.burst_chained)),
            ("burst_cycles", Json::U64(self.burst_cycles)),
            ("burst_instructions", Json::U64(self.burst_instructions)),
            ("burst_vcache_hits", Json::U64(self.burst_vcache_hits)),
            (
                "burst_vcache_evictions",
                Json::U64(self.burst_vcache_evictions),
            ),
            ("burst_len_cycles", self.burst_len_cycles.to_json()),
            ("burst_chain_len", self.burst_chain_len.to_json()),
            ("heartbeats", Json::U64(self.heartbeats)),
        ])
    }
}

/// One heartbeat progress record. Every field is *simulated* state — a
/// cycle-domain stamp and counters the machine would hold at that cycle
/// regardless of host execution strategy — so the stream is
/// byte-identical fast-path-on vs off. Wall-clock time is deliberately
/// absent; consumers (e.g. `dtsvliw_supervise`) derive rates from their
/// own clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatRecord {
    /// Monotonic record ordinal within the run, from 0.
    pub seq: u64,
    /// Machine cycle of emission.
    pub cycle: u64,
    /// Sequential instructions retired.
    pub instructions: u64,
    /// Cycle-attribution pools (they partition `cycle` exactly).
    pub vliw_cycles: u64,
    pub primary_cycles: u64,
    pub overhead_cycles: u64,
    pub degraded_cycles: u64,
    /// Engine-mode swaps so far.
    pub mode_swaps: u64,
    /// VLIW bursts entered so far (host-side; see module docs — reset
    /// on resume, so a resumed run disagrees with an uninterrupted one).
    pub bursts: u64,
    /// Chain transitions inside bursts so far.
    pub chained: u64,
    /// Is the circuit breaker currently open (degraded execution)?
    pub breaker_open: bool,
    /// VLIW-cache hits so far.
    pub vcache_hits: u64,
    /// VLIW-cache evictions so far.
    pub vcache_evictions: u64,
}

impl HeartbeatRecord {
    /// Instructions per cycle so far, 0.0 at cycle 0.
    pub fn ipc(&self) -> f64 {
        if self.cycle == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycle as f64
        }
    }
}

impl ToJson for HeartbeatRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::U64(self.seq)),
            ("cycle", Json::U64(self.cycle)),
            ("instructions", Json::U64(self.instructions)),
            ("ipc", Json::F64(self.ipc())),
            ("vliw_cycles", Json::U64(self.vliw_cycles)),
            ("primary_cycles", Json::U64(self.primary_cycles)),
            ("overhead_cycles", Json::U64(self.overhead_cycles)),
            ("degraded_cycles", Json::U64(self.degraded_cycles)),
            ("mode_swaps", Json::U64(self.mode_swaps)),
            ("bursts", Json::U64(self.bursts)),
            ("chained", Json::U64(self.chained)),
            ("breaker_open", Json::Bool(self.breaker_open)),
            ("vcache_hits", Json::U64(self.vcache_hits)),
            ("vcache_evictions", Json::U64(self.vcache_evictions)),
        ])
    }
}

/// The heartbeat emitter: appends one JSONL record roughly every
/// `every` cycles (the machine checks a single `u64` per step / per
/// long instruction).
///
/// Like the [`crate::Tracer`] sink, a write error parks the error and
/// drops the writer — a full disk must not kill a long simulation.
pub struct Heartbeat {
    every: u64,
    out: Option<BufWriter<Box<dyn Write + Send>>>,
    seq: u64,
    err: Option<io::Error>,
}

impl std::fmt::Debug for Heartbeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heartbeat")
            .field("every", &self.every)
            .field("seq", &self.seq)
            .field("has_out", &self.out.is_some())
            .finish()
    }
}

impl Heartbeat {
    /// A heartbeat emitting every `every` cycles (clamped to >= 1) to
    /// `out`; pass `None` to count beats without writing anywhere.
    pub fn new(every: u64, out: Option<Box<dyn Write + Send>>) -> Self {
        Heartbeat {
            every: every.max(1),
            out: out.map(BufWriter::new),
            seq: 0,
            err: None,
        }
    }

    /// The configured cycle cadence.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Records emitted so far.
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// Emit one record (the caller fills everything but `seq`). The
    /// record is flushed at once: a supervisor tailing the stream judges
    /// liveness by it, so it must not wait in a buffer.
    pub fn emit(&mut self, mut rec: HeartbeatRecord) {
        rec.seq = self.seq;
        self.seq += 1;
        if let Some(out) = &mut self.out {
            if let Err(e) = writeln!(out, "{}", rec.to_json()).and_then(|()| out.flush()) {
                self.err.get_or_insert(e);
                self.out = None;
            }
        }
    }

    /// Flush and return the first write error, if any.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(out) = &mut self.out {
            out.flush()?;
        }
        match self.err.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn fold_burst_accumulates_and_histograms() {
        let mut t = Telemetry::new();
        t.fold_burst(BurstDelta {
            cycles: 100,
            instructions: 240,
            chained: 3,
            vcache_hits: 4,
            vcache_evictions: 1,
        });
        t.fold_burst(BurstDelta {
            cycles: 10,
            instructions: 12,
            chained: 0,
            vcache_hits: 1,
            vcache_evictions: 0,
        });
        assert_eq!(t.bursts, 2);
        assert_eq!(t.burst_chained, 3);
        assert_eq!(t.burst_cycles, 110);
        assert_eq!(t.burst_instructions, 252);
        assert_eq!(t.burst_len_cycles.count(), 2);
        assert_eq!(t.burst_len_cycles.sum(), 110);
        assert_eq!(t.burst_chain_len.max(), 3);
    }

    #[test]
    fn telemetry_json_shape() {
        let mut t = Telemetry::new();
        t.fold_burst(BurstDelta {
            cycles: 7,
            chained: 2,
            ..BurstDelta::default()
        });
        t.heartbeats = 5;
        let j = t.to_json();
        assert_eq!(j.get("bursts").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("burst_chained").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("heartbeats").and_then(Json::as_u64), Some(5));
        assert!(j
            .get("burst_len_cycles")
            .and_then(|h| h.get("count"))
            .is_some());
        assert!(Json::parse(&j.to_string()).is_ok());
    }

    #[test]
    fn heartbeat_emits_jsonl_with_monotonic_seq() {
        let buf = Shared::default();
        let mut hb = Heartbeat::new(1000, Some(Box::new(buf.clone())));
        for (cycle, instrs) in [(1000u64, 1800u64), (2000, 3600)] {
            hb.emit(HeartbeatRecord {
                seq: 0,
                cycle,
                instructions: instrs,
                vliw_cycles: cycle - 10,
                primary_cycles: 5,
                overhead_cycles: 5,
                degraded_cycles: 0,
                mode_swaps: 2,
                bursts: 1,
                chained: 7,
                breaker_open: false,
                vcache_hits: 9,
                vcache_evictions: 0,
            });
        }
        hb.finish().unwrap();
        assert_eq!(hb.emitted(), 2);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let j = Json::parse(line).expect("each heartbeat line parses");
            assert_eq!(j.get("seq").and_then(Json::as_u64), Some(i as u64));
            assert!(j.get("cycle").and_then(Json::as_u64).unwrap() > 0);
            assert!(j.get("ipc").is_some());
            assert_eq!(j.get("breaker_open"), Some(&Json::Bool(false)));
        }
    }

    /// A tailing supervisor sees each record as soon as it is emitted,
    /// not when the buffer fills or the run ends.
    #[test]
    fn heartbeat_records_reach_the_sink_as_they_are_emitted() {
        let buf = Shared::default();
        let mut hb = Heartbeat::new(1000, Some(Box::new(buf.clone())));
        for n in 1..=3u64 {
            hb.emit(HeartbeatRecord {
                seq: 0,
                cycle: n * 1000,
                instructions: n * 1800,
                vliw_cycles: 0,
                primary_cycles: 0,
                overhead_cycles: 0,
                degraded_cycles: 0,
                mode_swaps: 0,
                bursts: 0,
                chained: 0,
                breaker_open: false,
                vcache_hits: 0,
                vcache_evictions: 0,
            });
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            assert_eq!(text.lines().count() as u64, n, "record {n} still buffered");
        }
    }

    #[test]
    fn heartbeat_without_writer_still_counts() {
        let mut hb = Heartbeat::new(0, None); // cadence clamps to 1
        assert_eq!(hb.every(), 1);
        hb.emit(HeartbeatRecord {
            seq: 0,
            cycle: 1,
            instructions: 1,
            vliw_cycles: 0,
            primary_cycles: 1,
            overhead_cycles: 0,
            degraded_cycles: 0,
            mode_swaps: 0,
            bursts: 0,
            chained: 0,
            breaker_open: false,
            vcache_hits: 0,
            vcache_evictions: 0,
        });
        assert_eq!(hb.emitted(), 1);
        hb.finish().unwrap();
    }
}
