//! The machine loop: Fetch Unit arbitration between the two engines.

use crate::config::{MachineConfig, ScheduleMode};
use crate::stats::RunStats;
use dtsvliw_asm::Image;
use dtsvliw_faults::{corrupt, FaultInjector, FaultSite, FaultStats};
use dtsvliw_isa::ArchState;
use dtsvliw_mem::{Cache, Memory};
use dtsvliw_primary::interp::{execute as primary_execute, step as primary_step, Halt, StepError};
use dtsvliw_primary::{PipelineModel, RefMachine};
use dtsvliw_sched::{Block, InsertOutcome, Resolution, Scheduler, SlotOp};
use dtsvliw_trace::{
    BlockProfiler, BurstDelta, CacheKind, EngineKind, EvictReason, ExitKind, Heartbeat,
    HeartbeatRecord, Metrics, Telemetry, TraceEvent, Tracer,
};
use dtsvliw_vliw::{
    DecodedLine, EngineError, EngineFaults, EvictedBlock, LiExec, LiResult, VliwCache, VliwEngine,
};
use std::path::Path;
use std::sync::Arc;

/// Simulation errors. All of them indicate a broken program or a
/// simulator defect; they never occur in a correct fault-free run.
/// With [`MachineConfig::recover_divergence`] on, `Divergence` and
/// `TestSyncTimeout` are consumed internally by the quarantine-and-replay
/// path and only surface when recovery itself is impossible.
#[derive(Debug, Clone)]
pub enum MachineError {
    /// The interpreter faulted (illegal instruction, misaligned access,
    /// failed workload self-check, unknown trap).
    Step(StepError),
    /// Test mode found the DTSVLIW and the test machine disagreeing
    /// (paper §4: "an error is signalled and the simulation
    /// interrupted").
    Divergence {
        /// Machine cycle of the comparison.
        cycle: u64,
        /// Where the machines were synchronised.
        pc: u32,
        /// First mismatching piece of state.
        detail: String,
    },
    /// The test machine could not reach the DTSVLIW's PC (indicates a
    /// trace-replay defect).
    TestSyncTimeout {
        /// The PC the test machine was chasing.
        pc: u32,
    },
    /// The forward-progress watchdog fired: the run exceeded
    /// [`MachineConfig::max_cycles`] without halting (livelock guard).
    /// Carries the progress made so the caller can report partial
    /// statistics (supervised retries use this to prove forward motion).
    Watchdog {
        /// Cycles executed when the watchdog fired.
        cycles: u64,
        /// The configured ceiling.
        limit: u64,
        /// Sequential instructions retired when the watchdog fired.
        instructions: u64,
    },
    /// The VLIW Engine hit a structurally corrupt block and recovery was
    /// off (or itself impossible).
    Engine(EngineError),
    /// A durability operation failed: snapshot write, read, or restore
    /// (I/O error, checksum/version mismatch, or corrupt content).
    Snapshot(String),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Step(e) => write!(f, "{e}"),
            MachineError::Divergence { cycle, pc, detail } => {
                write!(
                    f,
                    "test-mode divergence at cycle {cycle}, pc {pc:#x}: {detail}"
                )
            }
            MachineError::TestSyncTimeout { pc } => {
                write!(f, "test machine never reached pc {pc:#x}")
            }
            MachineError::Watchdog {
                cycles,
                limit,
                instructions,
            } => {
                write!(
                    f,
                    "watchdog: {cycles} cycles exceed the {limit}-cycle limit \
                     ({instructions} instructions retired)"
                )
            }
            MachineError::Engine(e) => write!(f, "corrupt block: {e}"),
            MachineError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<StepError> for MachineError {
    fn from(e: StepError) -> Self {
        MachineError::Step(e)
    }
}

impl From<EngineError> for MachineError {
    fn from(e: EngineError) -> Self {
        MachineError::Engine(e)
    }
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// `Some(code)` when the program executed `ta 0`.
    pub exit_code: Option<u32>,
    /// Sequential instructions retired (the test machine's count).
    pub instructions: u64,
}

/// Which named sub-counter an overhead charge lands in (the
/// `overhead_cycles` split of `RunStats`).
#[derive(Clone, Copy)]
enum Overhead {
    /// Engine swaps, either direction (§3.6 pipeline drain + refill).
    Swap,
    /// Mispredict bubble: a VLIW branch left its recorded direction
    /// (§3.5).
    Mispredict,
    /// Next-long-instruction miss penalty on block-to-block transitions.
    NextLi,
    /// Exception / fault recovery: checkpoint restores and Primary
    /// replay of the rolled-back span.
    Recovery,
}

/// Why the burst loop stopped issuing one block's long instructions.
enum BlockStop {
    /// A run-loop guard (halt, budget, due snapshot; `Ok`) or the
    /// watchdog (`Err`).
    Guard(Result<(), MachineError>),
    /// The VLIW Engine hit a structurally corrupt block.
    Corrupt(EngineError),
    /// A long instruction ended the block (any result but `Next`).
    Exit(LiResult),
}

pub(crate) enum Mode {
    Primary,
    Vliw {
        block: Arc<Block>,
        /// The block's pre-decoded execution form, shared with the VLIW
        /// Cache line it came from. The engine's hot loop dispatches
        /// over this; `block` stays for metadata (tag, seqs, nba).
        decoded: Arc<DecodedLine>,
        li: usize,
        /// Test-machine trace position at block entry: the block's
        /// commit advances the sequential machine from here.
        base: u64,
    },
}

/// The DTSVLIW machine.
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) state: ArchState,
    pub(crate) mem: Memory,
    pub(crate) sched: Scheduler,
    pub(crate) vcache: VliwCache,
    pub(crate) engine: VliwEngine,
    pub(crate) icache: Cache,
    pub(crate) dcache: Cache,
    pub(crate) pipeline: PipelineModel,
    pub(crate) test: RefMachine,
    pub(crate) mode: Mode,
    pub(crate) cycles: u64,
    pub(crate) vliw_cycles: u64,
    pub(crate) primary_cycles: u64,
    pub(crate) overhead_cycles: u64,
    /// Named `overhead_cycles` sub-counters (engine-swap charges,
    /// mispredict bubbles, next-long-instruction penalties, exception /
    /// fault recovery including replay). They always sum to
    /// `overhead_cycles`, so Table 3-style breakdowns come from
    /// counters rather than subtraction.
    pub(crate) overhead_swap: u64,
    pub(crate) overhead_mispredict: u64,
    pub(crate) overhead_next_li: u64,
    pub(crate) overhead_recovery: u64,
    pub(crate) mode_swaps: u64,
    pub(crate) output: Vec<u8>,
    pub(crate) halted: Option<u32>,
    /// §3.11 exception mode: after a non-aliasing exception only the
    /// Primary Processor runs, until the exception repeats there.
    pub(crate) exception_mode: bool,
    /// The previous instruction was a rejected control transfer: its
    /// delay-slot instruction must not start a block, because the block
    /// would span the (unguarded) control transfer.
    pub(crate) reject_delay_slot: bool,
    /// Next-block predictor (paper §5): direct-mapped (from-tag →
    /// predicted next tag). Entry 0 means empty.
    pub(crate) nbp: Vec<(u32, u32)>,
    /// Correct next-block predictions (diagnostics).
    pub(crate) nbp_hits: u64,
    /// Always-on metric registry (histograms folded into `RunStats`).
    pub(crate) metrics: Metrics,
    /// Cycle of the previous engine swap (swap-gap histogram).
    pub(crate) last_swap_cycle: u64,
    /// Optional flight recorder + sink. When `None`, every emission
    /// site costs a single branch.
    pub(crate) tracer: Option<Box<Tracer>>,
    /// Debug hook: force a test-mode divergence at the next
    /// verification point (exercises the postmortem dump).
    pub(crate) inject_divergence: bool,
    /// Seeded fault injector (from [`MachineConfig::fault_plan`]).
    pub(crate) injector: Option<FaultInjector>,
    /// Fault detection / recovery accounting.
    pub(crate) faults: FaultStats,
    /// Quarantined block lines: `(tag, entry_cwp, refuse_until_cycle)`.
    /// A quarantined line is refused re-installation until its cooldown
    /// expires, so a corrupting source does not reinstall the same bad
    /// block on the very next trace pass.
    pub(crate) quarantine: Vec<(u32, u8, u64)>,
    /// Exit code observed on the test machine (the oracle may halt while
    /// chasing a sync target during recovery; the code must survive the
    /// scrub that follows).
    pub(crate) test_halt: Option<u32>,
    /// Engine-side fault fires already folded into the injector's
    /// `injected` counts. The alias/truncate knobs are armed per block
    /// entry but only *land* when the engine actually exercises them, so
    /// injection is counted at fire time from the engine's stat deltas.
    pub(crate) seen_alias_fires: u64,
    pub(crate) seen_truncate_fires: u64,
    /// Circuit breaker: cycle stamps of detected events still inside the
    /// sliding window (see [`MachineConfig::breaker_window`]).
    pub(crate) breaker_events: Vec<u64>,
    /// Nonzero while the breaker is open: the cycle at which the VLIW
    /// Engine re-arms.
    pub(crate) degraded_until: u64,
    /// Cycle the current degraded period began.
    pub(crate) degraded_entered: u64,
    /// Times the breaker tripped.
    pub(crate) degraded_entries: u64,
    /// Cycles executed while the breaker was open.
    pub(crate) degraded_cycles: u64,
    /// Host-side telemetry registry (DESIGN.md §12): burst counters and
    /// heartbeat accounting. Owned unconditionally — the burst loop
    /// folds per-burst deltas in at burst exit, so there is no hot-loop
    /// branch — but never serialised into snapshots (reset-on-resume)
    /// and never part of `RunStats`.
    pub(crate) telemetry: Telemetry,
    /// Optional hot-trace profiler recording every Nth block entry
    /// (N = 1 records every execution). It keeps the pick for the
    /// current execution itself, so the burst loop pays one branch per
    /// LI when it is detached. Never serialised into snapshots
    /// (reset-on-resume).
    pub(crate) profiler: Option<Box<BlockProfiler>>,
    /// Optional heartbeat progress stream (cycle-budgeted JSONL).
    pub(crate) heartbeat: Option<Box<Heartbeat>>,
    /// Next cycle at which a heartbeat is due (`u64::MAX` when off):
    /// the burst loop compares one `u64` per long instruction.
    pub(crate) hb_next: u64,
    /// Reused per-cycle scratch: data-cache addresses touched by the
    /// long instruction just executed.
    pub(crate) dcache_scratch: Vec<u32>,
    /// When `Some`, the `Block::content_hash` of every block entering
    /// the VLIW Cache, in install order (see
    /// [`Machine::record_install_hashes`]). Never serialised.
    pub(crate) install_hashes: Option<Vec<u64>>,
}

impl Machine {
    /// Build a machine and load `image` into its memory (and into the
    /// test machine's private memory).
    pub fn new(cfg: MachineConfig, image: &Image) -> Self {
        let mut mem = Memory::new();
        image.load_into(&mut mem);
        let mut vcache = VliwCache::new(cfg.vliw_cache);
        vcache.set_integrity(cfg.block_integrity_check);
        Machine {
            state: ArchState::new(image.entry),
            mem,
            sched: Scheduler::new(cfg.sched.clone()),
            vcache,
            engine: VliwEngine::with_scheme(cfg.store_scheme),
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            pipeline: PipelineModel::new(cfg.primary),
            test: RefMachine::new(image),
            mode: Mode::Primary,
            cycles: 0,
            vliw_cycles: 0,
            primary_cycles: 0,
            overhead_cycles: 0,
            overhead_swap: 0,
            overhead_mispredict: 0,
            overhead_next_li: 0,
            overhead_recovery: 0,
            mode_swaps: 0,
            output: Vec::new(),
            halted: None,
            exception_mode: false,
            reject_delay_slot: false,
            nbp: if cfg.next_block_prediction {
                vec![(0, 0); 1024]
            } else {
                Vec::new()
            },
            nbp_hits: 0,
            metrics: Metrics::new(),
            last_swap_cycle: 0,
            tracer: None,
            inject_divergence: false,
            injector: cfg.fault_plan.as_ref().map(FaultInjector::new),
            faults: FaultStats::default(),
            quarantine: Vec::new(),
            test_halt: None,
            seen_alias_fires: 0,
            seen_truncate_fires: 0,
            breaker_events: Vec::new(),
            degraded_until: 0,
            degraded_entered: 0,
            degraded_entries: 0,
            degraded_cycles: 0,
            telemetry: Telemetry::new(),
            profiler: None,
            heartbeat: None,
            hb_next: u64::MAX,
            dcache_scratch: Vec::new(),
            install_hashes: None,
            cfg,
        }
    }

    /// Record the `Block::content_hash` of every block installed from
    /// now on, so tests can pin the Scheduler Unit's output block by
    /// block. Observation only: the simulation is unchanged.
    pub fn record_install_hashes(&mut self) {
        self.install_hashes.get_or_insert_with(Vec::new);
    }

    /// Content hashes recorded since [`Machine::record_install_hashes`],
    /// in install order (empty when recording is off).
    pub fn install_hashes(&self) -> &[u64] {
        self.install_hashes.as_deref().unwrap_or_default()
    }

    /// `(bursts entered, chained block transitions)` taken by the
    /// batched VLIW loop — host diagnostics, never part of `RunStats`
    /// or snapshots.
    pub fn fast_path_stats(&self) -> (u64, u64) {
        (self.telemetry.bursts, self.telemetry.burst_chained)
    }

    /// The host-side telemetry registry: burst counters and heartbeat
    /// accounting. Never part of `RunStats` or snapshots; two runs of
    /// the same program may legitimately disagree here (e.g. a resumed
    /// vs an uninterrupted run).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Run until the program exits or `max_instructions` sequential
    /// instructions have retired.
    pub fn run(&mut self, max_instructions: u64) -> Result<RunOutcome, MachineError> {
        self.run_loop(max_instructions, None)
    }

    /// Like [`Machine::run`], additionally writing a durable snapshot of
    /// the complete machine state to `dir/latest.json` roughly every
    /// `every` cycles. The write is atomic (temp file + rename), so a
    /// kill at any instant leaves either the previous or the new
    /// snapshot intact, never a torn one. Snapshots never perturb the
    /// simulation: a resumed run retires the same instructions in the
    /// same cycles as an uninterrupted one.
    pub fn run_with_snapshots(
        &mut self,
        max_instructions: u64,
        every: u64,
        dir: &Path,
    ) -> Result<RunOutcome, MachineError> {
        self.run_loop(max_instructions, Some((every.max(1), dir)))
    }

    /// The machine loop behind [`Machine::run`] and
    /// [`Machine::run_with_snapshots`]. A snapshot falls due at the
    /// first step boundary with `cycles >= snap_next`; the burst loop
    /// exits there so the write lands before the next long instruction.
    fn run_loop(
        &mut self,
        max_instructions: u64,
        snapshots: Option<(u64, &Path)>,
    ) -> Result<RunOutcome, MachineError> {
        let mut snap_next = snapshots.map_or(u64::MAX, |(every, _)| self.cycles + every);
        while self.halted.is_none() && self.test.retired < max_instructions {
            self.check_watchdog()?;
            if let Some((every, dir)) = snapshots {
                if self.cycles >= snap_next {
                    self.write_snapshot(dir)
                        .map_err(|e| MachineError::Snapshot(e.to_string()))?;
                    snap_next = self.cycles + every;
                }
            }
            match &self.mode {
                Mode::Primary => self.step_primary()?,
                Mode::Vliw { .. } => self.run_vliw_burst(max_instructions, snap_next)?,
            }
            if self.cycles >= self.hb_next {
                self.heartbeat_tick();
            }
            self.debug_check_cycle_attribution();
        }
        Ok(RunOutcome {
            exit_code: self.halted,
            instructions: self.test.retired,
        })
    }

    /// The forward-progress watchdog, checked before every step and
    /// every long instruction: past [`MachineConfig::max_cycles`] the
    /// run stops with the progress made.
    #[inline]
    fn check_watchdog(&self) -> Result<(), MachineError> {
        match self.cfg.max_cycles {
            Some(limit) if self.cycles > limit => Err(MachineError::Watchdog {
                cycles: self.cycles,
                limit,
                instructions: self.test.retired,
            }),
            _ => Ok(()),
        }
    }

    /// Exact cycle attribution is an invariant, not a convention: every
    /// cycle the machine charges lands in exactly one of the four
    /// attribution pools, and the overhead pool's named sub-counters
    /// account for all of it. Enforced after every step in debug builds
    /// (tests run unoptimised, so the whole suite exercises it).
    #[inline]
    fn debug_check_cycle_attribution(&self) {
        debug_assert_eq!(
            self.vliw_cycles + self.primary_cycles + self.overhead_cycles + self.degraded_cycles,
            self.cycles,
            "cycle attribution out of balance at cycle {}",
            self.cycles
        );
        debug_assert_eq!(
            self.overhead_swap
                + self.overhead_mispredict
                + self.overhead_next_li
                + self.overhead_recovery,
            self.overhead_cycles,
            "overhead sub-counters out of balance at cycle {}",
            self.cycles
        );
    }

    /// Statistics so far.
    pub fn stats(&self) -> RunStats {
        let mut metrics = self.metrics;
        if let Some(t) = &self.tracer {
            metrics.trace_events = t.recorded();
            metrics.trace_dropped = t.dropped();
        }
        RunStats {
            cycles: self.cycles,
            vliw_cycles: self.vliw_cycles,
            primary_cycles: self.primary_cycles,
            overhead_cycles: self.overhead_cycles,
            overhead_swap: self.overhead_swap,
            overhead_mispredict: self.overhead_mispredict,
            overhead_next_li: self.overhead_next_li,
            overhead_recovery: self.overhead_recovery,
            instructions: self.test.retired,
            mode_swaps: self.mode_swaps,
            nbp_hits: self.nbp_hits,
            sched: self.sched.stats(),
            engine: self.engine.stats(),
            vliw_cache: self.vcache.stats(),
            icache: self.icache.stats(),
            dcache: self.dcache.stats(),
            metrics,
            faults: {
                let mut f = self.faults;
                if let Some(inj) = &self.injector {
                    f.injected = inj.injected();
                }
                f
            },
            degraded_entries: self.degraded_entries,
            degraded_cycles: self.degraded_cycles,
        }
    }

    /// Console output produced so far (PUTC/PUTU traps).
    pub fn output_string(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }

    /// The shared architectural state (read-only).
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// The shared memory (read-only).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    // -------------------------------------------------------------
    // Observability
    // -------------------------------------------------------------

    /// Attach a tracer (flight recorder + optional sink). The machine
    /// emits an initial mode-swap event so sinks know which engine
    /// holds control from the current cycle on.
    pub fn attach_tracer(&mut self, mut tracer: Box<Tracer>) {
        let to = match self.mode {
            Mode::Primary => EngineKind::Primary,
            Mode::Vliw { .. } => EngineKind::Vliw,
        };
        tracer.emit(
            self.cycles,
            TraceEvent::ModeSwap {
                to,
                pc: self.state.pc,
            },
        );
        self.tracer = Some(tracer);
        // Record scheduler resolutions so splits can be reported.
        if self.sched.trace_events.is_none() {
            self.sched.trace_events = Some(Vec::new());
        }
    }

    /// Detach and return the tracer. Call [`Tracer::finish`] with
    /// `stats().cycles` to close the sink so mode-span durations sum to
    /// the run's total cycles.
    pub fn take_tracer(&mut self) -> Option<Box<Tracer>> {
        self.tracer.take()
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// Attach a hot-trace profiler: [`BlockProfiler::new`]`(1)`
    /// records every block execution, larger N every Nth block entry.
    /// The profiler decides armed/idle once per block entry. Never
    /// serialised into snapshots: a resumed machine starts with no
    /// profiler (reset-on-resume), so block executions are never
    /// double-counted across a resume.
    pub fn attach_profiler(&mut self, profiler: Box<BlockProfiler>) {
        self.profiler = Some(profiler);
    }

    /// Detach and return the profiler.
    pub fn take_profiler(&mut self) -> Option<Box<BlockProfiler>> {
        self.profiler.take()
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&BlockProfiler> {
        self.profiler.as_deref()
    }

    /// Attach a heartbeat emitter: one JSONL progress record roughly
    /// every [`Heartbeat::every`] cycles. The burst loop compares one
    /// `u64` per long instruction, and the stream is invisible to
    /// the simulation: `RunStats`, snapshots and digests are
    /// byte-identical with or without it. Records carry only simulated
    /// state (no wall time), so a run's stream is deterministic.
    pub fn attach_heartbeat(&mut self, hb: Box<Heartbeat>) {
        self.hb_next = self.cycles + hb.every();
        self.heartbeat = Some(hb);
    }

    /// Detach and return the heartbeat emitter. Call
    /// [`Heartbeat::finish`] to flush it.
    pub fn take_heartbeat(&mut self) -> Option<Box<Heartbeat>> {
        self.hb_next = u64::MAX;
        self.heartbeat.take()
    }

    /// Emit one heartbeat record and schedule the next one. Cold: the
    /// loops only reach this when `cycles >= hb_next`.
    #[cold]
    fn heartbeat_tick(&mut self) {
        let vstats = self.vcache.stats();
        let rec = HeartbeatRecord {
            seq: 0, // stamped by the emitter
            cycle: self.cycles,
            instructions: self.test.retired,
            vliw_cycles: self.vliw_cycles,
            primary_cycles: self.primary_cycles,
            overhead_cycles: self.overhead_cycles,
            degraded_cycles: self.degraded_cycles,
            mode_swaps: self.mode_swaps,
            bursts: self.telemetry.bursts,
            chained: self.telemetry.burst_chained,
            breaker_open: self.degraded_until != 0,
            vcache_hits: vstats.hits,
            vcache_evictions: vstats.evictions,
        };
        if let Some(hb) = &mut self.heartbeat {
            hb.emit(rec);
            self.telemetry.heartbeats += 1;
            self.hb_next = self.cycles + hb.every();
        } else {
            self.hb_next = u64::MAX;
        }
        // With a tracer attached, mirror the progress counters into the
        // trace stream as Perfetto counter-track samples, so heartbeat
        // data and full traces line up on one cycle timeline.
        if self.tracer.is_some() {
            let ipc_milli = self
                .test
                .retired
                .saturating_mul(1000)
                .checked_div(self.cycles)
                .unwrap_or(0);
            self.emit(TraceEvent::Counters {
                instructions: self.test.retired,
                ipc_milli,
                vliw_cycles: self.vliw_cycles,
                primary_cycles: self.primary_cycles,
                overhead_cycles: self.overhead_cycles,
                degraded_cycles: self.degraded_cycles,
            });
        }
    }

    /// [`Machine::stats`] as JSON, with the hot-block report folded in
    /// under `"profile"` (top `profile_top` blocks) when a profiler is
    /// attached.
    pub fn stats_json(&self, profile_top: usize) -> dtsvliw_json::Json {
        let mut j = dtsvliw_json::ToJson::to_json(&self.stats());
        if let (Some(p), dtsvliw_json::Json::Obj(pairs)) = (&self.profiler, &mut j) {
            pairs.push(("profile".to_string(), p.report_json(profile_top)));
        }
        j
    }

    /// Disassembly of a block's head instruction: the first occupied
    /// slot of its first long instruction (COPYs cannot lead a block,
    /// but render defensively if one does).
    fn head_disasm(block: &Block) -> String {
        block
            .lis
            .first()
            .and_then(|li| li.ops().first())
            .map(|op| match op {
                SlotOp::Instr(s) => s.d.instr.to_string(),
                SlotOp::Copy(_) => "copy".to_string(),
            })
            .unwrap_or_default()
    }

    /// Force a test-mode divergence at the next verification point — a
    /// debug hook for exercising the flight-recorder postmortem without
    /// breaking the simulator.
    pub fn inject_divergence(&mut self) {
        self.inject_divergence = true;
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(t) = &mut self.tracer {
            t.emit(self.cycles, ev);
        }
    }

    /// Close the profiler's window at a block exit (no-op when the
    /// current execution was not sampled).
    #[inline]
    fn profiler_exit(&mut self, kind: ExitKind) {
        if let Some(p) = &mut self.profiler {
            p.note_exit(kind);
        }
    }

    /// Account a line leaving the VLIW Cache: lifetime histogram,
    /// profiler eviction and trace event.
    fn note_evicted(&mut self, gone: EvictedBlock, reason: EvictReason) {
        let lifetime = self.cycles - gone.installed_cycle;
        self.metrics.evicted_block_lifetime.record(lifetime);
        if let Some(p) = &mut self.profiler {
            p.note_evict(gone.tag_addr, gone.entry_cwp, self.cycles);
        }
        self.emit(TraceEvent::BlockEvict {
            tag: gone.tag_addr,
            reason,
            lifetime,
        });
    }

    /// Count an engine swap: histogram the gap, reset the pipeline and
    /// trace the transition.
    fn note_swap(&mut self, to: EngineKind) {
        self.mode_swaps += 1;
        self.metrics
            .swap_gap_cycles
            .record(self.cycles - self.last_swap_cycle);
        self.last_swap_cycle = self.cycles;
        self.pipeline.reset();
        self.emit(TraceEvent::ModeSwap {
            to,
            pc: self.state.pc,
        });
    }

    /// Install a sealed block: histogram its shape, trace the install,
    /// and report any resident block the replacement displaced.
    ///
    /// This is also where install-time faults strike (the block is owned
    /// and mutable here, modelling corruption on the Scheduler-Unit →
    /// VLIW-Cache path), and where quarantined tags are refused.
    fn install_block(&mut self, mut b: Block) -> Result<(), MachineError> {
        if self.quarantine_active(b.tag_addr, b.entry_cwp) {
            self.faults.quarantine_rejects += 1;
            return Ok(());
        }
        if let Some(mut inj) = self.injector.take() {
            for (site, f) in [
                (
                    FaultSite::StaleNba,
                    corrupt::corrupt_nba as fn(&mut Block, &mut dtsvliw_faults::Rng64) -> bool,
                ),
                (FaultSite::BranchTagInvert, corrupt::invert_branch_tag),
                (FaultSite::SchedMisSplit, corrupt::drop_copy),
            ] {
                if inj.roll(site) && f(&mut b, inj.rng()) {
                    inj.note_injected(site);
                    self.emit(TraceEvent::FaultInjected {
                        site: site.label(),
                        tag: b.tag_addr,
                    });
                }
            }
            self.injector = Some(inj);
        }
        let tag = b.tag_addr;
        let lis = b.lis.len() as u32;
        let filled = b.filled_slots() as u32;
        self.metrics.block_height.record(lis as u64);
        self.metrics.block_filled.record(filled as u64);
        if let Some(h) = &mut self.install_hashes {
            h.push(b.content_hash());
        }
        let evicted = self.vcache.insert_at(b, self.cycles)?;
        self.emit(TraceEvent::BlockInstall { tag, lis, filled });
        if let Some(gone) = evicted {
            self.note_evicted(gone, EvictReason::Replaced);
        }
        Ok(())
    }

    /// Report the Scheduler Unit's split decisions since the last
    /// drain. The recording hook is enabled by [`Machine::attach_tracer`];
    /// draining keeps it bounded either way.
    fn drain_sched_events(&mut self) {
        let Some(evs) = self.sched.trace_events.as_mut().map(std::mem::take) else {
            return;
        };
        for e in evs {
            if e.resolution == Resolution::Split {
                self.emit(TraceEvent::SchedulerSplit {
                    seq: e.seq,
                    elem: e.elem as u32,
                });
            }
        }
    }

    /// Build a divergence error, first dumping the flight recorder's
    /// tail to stderr — the automatic postmortem.
    fn divergence(&self, detail: String) -> MachineError {
        if let Some(t) = &self.tracer {
            eprint!("{}", t.dump_tail(t.capacity()));
        }
        MachineError::Divergence {
            cycle: self.cycles,
            pc: self.state.pc,
            detail,
        }
    }

    // -------------------------------------------------------------
    // Primary Processor mode
    // -------------------------------------------------------------

    // Out of line, like `finish_block_exit`: each has one call site, and
    // inlining both into `run_loop` cost ~5% of simulated instructions
    // per second on a VLIW-Cache-thrashing suite.
    #[inline(never)]
    fn step_primary(&mut self) -> Result<(), MachineError> {
        let pc = self.state.pc;
        let resident_before = self.state.resident;
        let step = match primary_step(&mut self.state, &mut self.mem, self.test.retired) {
            Ok(s) => s,
            Err(e) => {
                // A Primary fault on state the oracle disagrees with is
                // fallout of an earlier silent corruption: scrub and
                // retry. A fault on agreeing state is the program's own.
                if self.recovery_enabled() && !self.states_match() {
                    self.recover_in_primary();
                    return Ok(());
                }
                return Err(e.into());
            }
        };
        let d = step.dyn_instr;

        // Timing: pipeline bubbles plus cache misses.
        let mut c = self.pipeline.cycles_for(&d, step.window_trap);
        let ic = self.icache.access_cost(pc);
        if ic > 0 {
            self.emit(TraceEvent::CacheMiss {
                cache: CacheKind::Instruction,
                addr: pc,
                penalty: ic,
            });
        }
        c += ic as u64;
        if let Some(addr) = d.eff_addr {
            let dc = self.dcache.access_cost(addr);
            if dc > 0 {
                self.emit(TraceEvent::CacheMiss {
                    cache: CacheKind::Data,
                    addr,
                    penalty: dc,
                });
            }
            c += dc as u64;
        }
        self.cycles += c;
        // Attribution is exclusive: while the circuit breaker pins the
        // machine to the Primary Processor, cycles land in
        // `degraded_cycles` *instead of* `primary_cycles`, so the four
        // buckets partition `cycles` exactly.
        if self.degraded_until != 0 {
            self.degraded_cycles += c;
        } else {
            self.primary_cycles += c;
        }

        // Scheduler Unit runs concurrently: one list cycle per machine
        // cycle, then the retired instruction is inserted.
        let live_delay_cti = d.instr.is_cti() && !d.delay_is_nop;
        let reject = d.instr.is_non_schedulable()
            || step.window_trap
            || live_delay_cti
            || self.reject_delay_slot;
        if reject {
            // Non-schedulable events flush the scheduling list (§3.9);
            // the trace resumes after the event. The delay-slot
            // instruction of a rejected control transfer is rejected
            // too: a block starting there would run straight into the
            // transfer's target with no recorded-direction guard.
            if let Some(b) = self.sched.seal(d.pc, d.seq) {
                self.install_block(b)?;
            }
        } else {
            for _ in 0..c {
                self.sched.tick();
            }
            if let InsertOutcome::Inserted(Some(b)) = self.sched.insert(&d, resident_before) {
                self.install_block(b)?;
            }
            if self.cfg.schedule == ScheduleMode::GreedyDif {
                self.sched.settle();
            }
        }
        self.drain_sched_events();

        self.reject_delay_slot = live_delay_cti;

        if let Some(bytes) = &step.output {
            self.output.extend_from_slice(bytes);
        }

        // Test machine lockstep (§4). The Primary's console output was
        // committed above; the oracle's copy of it is discarded.
        debug_assert_eq!(self.test.state.pc, d.pc);
        let test_halt = self.test.run_to(self.test.retired + 1, &mut Vec::new())?;
        let mut halt = step.halt;
        if let Err(e) = self.verify_states() {
            if !self.recovery_enabled() {
                return Err(e);
            }
            self.recover_in_primary();
            // Once scrubbed, the oracle's halt decision is authoritative
            // (the corrupted execution may have missed or faked one).
            halt = test_halt;
        }

        if let Some(Halt::Exit(code)) = halt {
            self.halted = Some(code);
            // End-of-run deep check: the whole memory must agree with
            // the test machine's (register comparison alone could hide
            // a silently-diverged store that nothing reloaded).
            if self.cfg.verify {
                if let Some(addr) = self.mem.first_difference(&self.test.mem) {
                    if self.recovery_enabled() {
                        self.recover_in_primary();
                    } else {
                        return Err(self.divergence(format!("memory differs at {addr:#x} at halt")));
                    }
                }
            }
            return Ok(());
        }

        // Fetch Unit: on a VLIW Cache hit at the next address the block
        // under construction is flushed, made to point at the hit block,
        // and the VLIW Engine takes over (§3.6). The probe hands over the
        // hit block first: the flush's insert may evict the hit line.
        if let Some((block, decoded)) = self.probe_block(self.state.pc) {
            if let Some(b) = self.sched.seal(self.state.pc, self.test.retired) {
                self.install_block(b)?;
            }
            self.drain_sched_events();
            self.charge_overhead(self.cfg.swap_to_vliw.into(), Overhead::Swap);
            self.note_swap(EngineKind::Vliw);
            self.begin_block(block, decoded, false);
        }
        Ok(())
    }

    // -------------------------------------------------------------
    // VLIW Engine mode
    // -------------------------------------------------------------

    /// Everything that happens after a long instruction whose result was
    /// not [`LiResult::Next`]: block-boundary sync, commit, transition
    /// (or exception unwind).
    #[inline(never)]
    fn finish_block_exit(
        &mut self,
        result: LiResult,
        block: Arc<Block>,
        base: u64,
    ) -> Result<(), MachineError> {
        match result {
            LiResult::Next => unreachable!("Next is handled by the callers"),
            LiResult::BlockEnd => {
                self.profiler_exit(ExitKind::Nba);
                let next = block.nba_addr;
                self.state.pc = next;
                self.state.npc = next.wrapping_add(4);
                // Verify at the boundary *before* committing the staged
                // stores: a detected divergence can still roll back to
                // the block-entry checkpoint.
                if let Err(e) = self.sync_test(base + block.trace_len as u64) {
                    return self.recover_in_vliw(e, &block, base);
                }
                self.engine.commit_block(&mut self.mem);
                self.enter_block_or_primary(next, block.tag_addr);
            }
            LiResult::Redirect { target, branch_seq } => {
                self.profiler_exit(ExitKind::Redirect);
                self.charge_overhead(self.cfg.mispredict_bubble.into(), Overhead::Mispredict);
                self.emit(TraceEvent::Mispredict {
                    pc: self.state.pc,
                    target,
                });
                self.state.pc = target;
                self.state.npc = target.wrapping_add(4);
                // The sequential machine executed the trace prefix up to
                // and including the mispredicting branch plus its delay
                // slot (our scheduled CTIs always carry a nop there).
                let rel = branch_seq - block.first_seq;
                if let Err(e) = self.sync_test(base + rel + 2) {
                    return self.recover_in_vliw(e, &block, base);
                }
                self.engine.commit_block(&mut self.mem);
                self.enter_block_or_primary(target, block.tag_addr);
            }
            LiResult::Exception { aliasing } => {
                // The engine rolled registers and memory back to the
                // block entry; the shadow PC points at the block tag.
                self.profiler_exit(ExitKind::Exception);
                self.charge_overhead(self.cfg.exception_penalty.into(), Overhead::Recovery);
                self.emit(TraceEvent::CheckpointRecovery {
                    tag: block.tag_addr,
                    unwound: self.engine.last_rollback_unwound(),
                });
                if aliasing {
                    self.emit(TraceEvent::AliasException {
                        tag: block.tag_addr,
                    });
                    if let Some(gone) = self.vcache.invalidate_at(block.tag_addr, block.entry_cwp) {
                        self.note_evicted(gone, EvictReason::Invalidated);
                    }
                } else {
                    self.exception_mode = true;
                }
                self.swap_to_primary_mode();
                // A damaged rollback (e.g. a truncated recovery list)
                // leaves block-entry state wrong; the oracle sits at the
                // same trace position, so the compare catches it here.
                if let Err(e) = self.verify_states() {
                    if !self.recovery_enabled() {
                        return Err(e);
                    }
                    self.recover_in_primary();
                }
            }
        }
        Ok(())
    }

    /// The VLIW Engine loop (§3.6): execute a whole chain of decoded
    /// blocks — long instruction after long instruction, block after
    /// block along the nba/redirect chain — in one dispatch, without
    /// rebuilding `Mode::Vliw` or re-cloning `Arc`s per cycle. Returns
    /// when control swaps to the Primary Processor, the program halts,
    /// the instruction budget is spent, the watchdog fires, or a
    /// snapshot falls due (`cycles >= snap_next`).
    fn run_vliw_burst(
        &mut self,
        max_instructions: u64,
        snap_next: u64,
    ) -> Result<(), MachineError> {
        // Per-burst delta accounting (DESIGN.md §12): snapshot the
        // running counters, let the inner loop accumulate its own work
        // in plain `u64`s, and fold everything into the telemetry
        // registry exactly once at burst exit — whichever exit it is
        // (mode swap, halt, budget, snapshot, watchdog, engine error).
        let cycles0 = self.cycles;
        let instr0 = self.test.retired;
        let vstats0 = self.vcache.stats();
        let mut delta = BurstDelta::default();
        let result = self.run_vliw_burst_inner(max_instructions, snap_next, &mut delta);
        delta.cycles = self.cycles - cycles0;
        delta.instructions = self.test.retired - instr0;
        let vstats = self.vcache.stats();
        delta.vcache_hits = vstats.hits - vstats0.hits;
        delta.vcache_evictions = vstats.evictions - vstats0.evictions;
        self.telemetry.fold_burst(delta);
        result
    }

    fn run_vliw_burst_inner(
        &mut self,
        max_instructions: u64,
        snap_next: u64,
        delta: &mut BurstDelta,
    ) -> Result<(), MachineError> {
        // Neither hook can be attached mid-burst, so one loop-invariant
        // branch per long instruction routes around both.
        let hooked = self.tracer.is_some() || self.injector.is_some();
        // One pass per block of the chain: run its long instructions in
        // locals, then park a coherent mode before whatever stopped them
        // (the shared exit code may propagate an error to the caller).
        loop {
            let (block, decoded, mut li, base) = match &self.mode {
                Mode::Vliw {
                    block,
                    decoded,
                    li,
                    base,
                } => (Arc::clone(block), Arc::clone(decoded), *li, *base),
                Mode::Primary => unreachable!("a burst runs in VLIW mode"),
            };
            let stop = loop {
                // The run loop's guards, checked before every long
                // instruction; a due snapshot hands control back to it.
                if self.halted.is_some()
                    || self.test.retired >= max_instructions
                    || self.cycles >= snap_next
                {
                    break BlockStop::Guard(Ok(()));
                }
                if let Err(e) = self.check_watchdog() {
                    break BlockStop::Guard(Err(e));
                }
                // `engine`, `state`, `mem` and `dcache_scratch` are
                // disjoint fields, so the scratch buffer needs no
                // take/put dance.
                let out = match self.engine.exec_li_decoded(
                    &decoded,
                    li,
                    &mut self.state,
                    &mut self.mem,
                    &mut self.dcache_scratch,
                ) {
                    Ok(out) => out,
                    Err(e) => break BlockStop::Corrupt(e),
                };
                let c = if hooked {
                    self.charge_li_hooked(block.tag_addr, li, &out)
                } else {
                    self.charge_li()
                };
                let row = decoded.rows[li];
                self.metrics.li_slot_occupancy.record(row.occupancy as u64);
                if let Some(p) = &mut self.profiler {
                    p.note_li(row.occupancy as u32, row.width as u32, c);
                }
                match out.result {
                    LiResult::Next => li += 1,
                    exit => break BlockStop::Exit(exit),
                }
                if self.cycles >= self.hb_next {
                    self.heartbeat_tick();
                }
                self.debug_check_cycle_attribution();
            };
            self.mode = Mode::Vliw {
                block: Arc::clone(&block),
                decoded,
                li,
                base,
            };
            match stop {
                BlockStop::Guard(r) => return r,
                BlockStop::Corrupt(e) => {
                    self.note_engine_fires(block.tag_addr);
                    return self.recover_from_engine_error(e, &block);
                }
                BlockStop::Exit(exit) => {
                    self.finish_block_exit(exit, block, base)?;
                    if let Mode::Primary = self.mode {
                        return Ok(());
                    }
                    // The chain continues: stay in the burst.
                    delta.chained += 1;
                    if self.cycles >= self.hb_next {
                        self.heartbeat_tick();
                    }
                    self.debug_check_cycle_attribution();
                }
            }
        }
    }

    /// Charge the long instruction just executed: one cycle, plus the
    /// worst data-cache port's miss penalty (a miss stalls the whole
    /// engine).
    #[inline]
    fn charge_li(&mut self) -> u64 {
        let mut stall = 0u32;
        for i in 0..self.dcache_scratch.len() {
            stall = stall.max(self.dcache.access_cost(self.dcache_scratch[i]));
        }
        let c = 1 + stall as u64;
        self.cycles += c;
        self.vliw_cycles += c;
        c
    }

    /// [`Machine::charge_li`] with the per-LI hooks of an armed tracer
    /// or fault injector, in cycle order: landed engine-knob faults and
    /// each data-cache miss at the issue cycle, then the commit and
    /// annul events once the cycles are charged. Kept out of line so
    /// the hook-free loop carries none of it.
    #[cold]
    fn charge_li_hooked(&mut self, tag: u32, li: usize, out: &LiExec) -> u64 {
        self.note_engine_fires(tag);
        let mut stall = 0u32;
        for i in 0..self.dcache_scratch.len() {
            let addr = self.dcache_scratch[i];
            let cost = self.dcache.access_cost(addr);
            if cost > 0 {
                self.emit(TraceEvent::CacheMiss {
                    cache: CacheKind::Data,
                    addr,
                    penalty: cost,
                });
            }
            stall = stall.max(cost);
        }
        let c = 1 + stall as u64;
        self.cycles += c;
        self.vliw_cycles += c;
        if self.tracer.is_some() {
            let li = li as u32;
            self.emit(TraceEvent::LiCommit {
                tag,
                li,
                committed: out.committed,
            });
            if out.annulled > 0 {
                self.emit(TraceEvent::LiAnnul {
                    tag,
                    li,
                    annulled: out.annulled,
                });
            }
        }
        c
    }

    /// The Fetch Unit's VLIW Cache probe at a block entry (§3.6), the one
    /// way into a block from either engine: the hit block and its
    /// decoded form, or `None` for a miss. Nothing is entered after a
    /// halt, in exception mode (§3.11) or while the circuit breaker is
    /// open. A hit runs the block-entry fault and integrity hooks first,
    /// and a line that fails its checksum is a miss.
    fn probe_block(&mut self, addr: u32) -> Option<(Arc<Block>, Arc<DecodedLine>)> {
        if self.halted.is_some() || self.exception_mode || self.breaker_open() {
            return None;
        }
        let (cwp, resident) = (self.state.cwp, self.state.resident);
        if !self.vcache.peek(addr, cwp, resident) || !self.prepare_block_entry(addr) {
            return None;
        }
        self.vcache.lookup_decoded(addr, cwp, resident)
    }

    /// Hand a probed block to the VLIW Engine: checkpoint at entry and
    /// start at its first long instruction. `chained` says the entry
    /// follows a block exit rather than a swap from the Primary
    /// Processor (the profiler counts the two apart).
    fn begin_block(&mut self, block: Arc<Block>, decoded: Arc<DecodedLine>, chained: bool) {
        if let Some(p) = &mut self.profiler {
            p.note_entry(
                block.tag_addr,
                block.entry_cwp,
                chained,
                self.cycles,
                || Machine::head_disasm(&block),
            );
        }
        self.engine.begin_block(&block, &self.state);
        self.mode = Mode::Vliw {
            block,
            decoded,
            li: 0,
            base: self.test.retired,
        };
    }

    /// Follow the trace from the block tagged `from` to `addr`: enter
    /// the cached block there or fall back to the Primary Processor ("On
    /// a VLIW Cache miss, the Primary Processor takes over execution,
    /// fetching from the last PC value computed by the VLIW Engine",
    /// §3.6).
    fn enter_block_or_primary(&mut self, addr: u32, from: u32) {
        let Some((block, decoded)) = self.probe_block(addr) else {
            self.swap_to_primary_mode();
            return;
        };
        // Next-block prediction (§5 future work): a correct prediction
        // overlaps the next block's cache access with the tail of the
        // current one, hiding the transition penalty.
        let mut penalty = self.cfg.next_li_penalty;
        if !self.nbp.is_empty() {
            let slot = ((from >> 2) as usize) & (self.nbp.len() - 1);
            if self.nbp[slot] == (from, addr) {
                penalty = 0;
                self.nbp_hits += 1;
            } else {
                self.nbp[slot] = (from, addr);
            }
        }
        self.charge_overhead(penalty.into(), Overhead::NextLi);
        self.begin_block(block, decoded, true);
    }

    fn swap_to_primary_mode(&mut self) {
        self.charge_overhead(self.cfg.swap_to_primary.into(), Overhead::Swap);
        self.note_swap(EngineKind::Primary);
        self.mode = Mode::Primary;
    }

    fn charge_overhead(&mut self, c: u64, kind: Overhead) {
        self.cycles += c;
        self.overhead_cycles += c;
        *match kind {
            Overhead::Swap => &mut self.overhead_swap,
            Overhead::Mispredict => &mut self.overhead_mispredict,
            Overhead::NextLi => &mut self.overhead_next_li,
            Overhead::Recovery => &mut self.overhead_recovery,
        } += c;
    }

    // -------------------------------------------------------------
    // Fault injection, detection and recovery
    // -------------------------------------------------------------

    /// Is graceful degradation on? Recovery rides on the lockstep oracle
    /// as its detector, so it requires `verify`.
    fn recovery_enabled(&self) -> bool {
        self.cfg.recover_divergence && self.cfg.verify
    }

    /// Record a detected divergence/fault event for the circuit breaker;
    /// when the count within the sliding window crosses the threshold,
    /// trip the breaker: the machine drops to primary-only (degraded)
    /// execution until the cooldown expires.
    fn breaker_note_event(&mut self) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        let now = self.cycles;
        let window = self.cfg.breaker_window;
        self.breaker_events.retain(|&t| t + window > now);
        self.breaker_events.push(now);
        if self.degraded_until == 0
            && self.breaker_events.len() >= self.cfg.breaker_threshold as usize
        {
            let events = self.breaker_events.len() as u32;
            self.degraded_entries += 1;
            self.degraded_until = now + self.cfg.breaker_cooldown;
            self.degraded_entered = now;
            self.breaker_events.clear();
            let until = self.degraded_until;
            self.emit(TraceEvent::DegradedEnter { events, until });
        }
    }

    /// Is the breaker open right now (VLIW entry refused)? Re-arms — and
    /// emits the exit event — once the cooldown has elapsed.
    fn breaker_open(&mut self) -> bool {
        if self.degraded_until == 0 {
            return false;
        }
        if self.cycles >= self.degraded_until {
            let cycles = self.cycles - self.degraded_entered;
            self.degraded_until = 0;
            self.degraded_entered = 0;
            self.emit(TraceEvent::DegradedExit { cycles });
            return false;
        }
        true
    }

    /// The VLIW Engine tripped over a structurally corrupt block
    /// mid-execution (missing write-back resource, bad copy routing,
    /// absent load/store order tag). With recovery on this is treated
    /// like any other detected fault: roll back to the block-entry
    /// checkpoint — the oracle still sits at the entry trace position,
    /// so nothing needs replaying — quarantine the line and fall back to
    /// the Primary Processor. With recovery off the typed error
    /// surfaces to the caller.
    fn recover_from_engine_error(
        &mut self,
        e: EngineError,
        block: &Block,
    ) -> Result<(), MachineError> {
        if !self.recovery_enabled() || !self.engine.in_block() {
            return Err(MachineError::Engine(e));
        }
        self.profiler_exit(ExitKind::Exception);
        self.roll_back_and_quarantine(block)?;
        self.faults.recovered += 1;
        self.emit(TraceEvent::Recovery {
            tag: block.tag_addr,
            replayed: 0,
        });
        self.swap_to_primary_mode();
        Ok(())
    }

    /// A fault detected inside a block: count it for the circuit
    /// breaker, roll the VLIW Engine back to the block-entry checkpoint
    /// and quarantine the block's line.
    fn roll_back_and_quarantine(&mut self, block: &Block) -> Result<(), MachineError> {
        self.faults.detected += 1;
        self.breaker_note_event();
        self.charge_overhead(self.cfg.exception_penalty.into(), Overhead::Recovery);
        self.engine
            .rollback(&mut self.state, &mut self.mem)
            .map_err(MachineError::Engine)?;
        self.emit(TraceEvent::CheckpointRecovery {
            tag: block.tag_addr,
            unwound: self.engine.last_rollback_unwound(),
        });
        self.quarantine_line(block.tag_addr, block.entry_cwp);
        Ok(())
    }

    /// Does the DTSVLIW's architectural state (and memory) agree with
    /// the oracle's right now?
    fn states_match(&self) -> bool {
        self.state.pc == self.test.state.pc
            && self.state.npc == self.test.state.npc
            && self.state.diff_visible(&self.test.state).is_none()
            && self.mem.first_difference(&self.test.mem).is_none()
    }

    /// Is `(tag, cwp)` under an unexpired quarantine? Expired entries
    /// are pruned as a side effect.
    fn quarantine_active(&mut self, tag: u32, cwp: u8) -> bool {
        let now = self.cycles;
        self.quarantine.retain(|&(.., until)| until > now);
        self.quarantine
            .iter()
            .any(|&(t, c, _)| t == tag && c == cwp)
    }

    /// Evict `(tag, cwp)` from the VLIW Cache and refuse its
    /// re-installation for the configured cooldown.
    fn quarantine_line(&mut self, tag: u32, cwp: u8) {
        self.faults.quarantined += 1;
        self.quarantine
            .push((tag, cwp, self.cycles + self.cfg.quarantine_cooldown));
        if let Some(gone) = self.vcache.invalidate_at(tag, cwp) {
            self.note_evicted(gone, EvictReason::Quarantined);
        }
    }

    /// Fault and integrity hooks at a block-entry decision (the Fetch
    /// Unit's probe said hit, the block has not been looked up yet):
    /// strike the resident line with any armed cache-word fault, arm the
    /// VLIW Engine's per-entry fault knobs, then integrity-check the
    /// line. Returns `false` when the entry must be treated as a miss
    /// (the line failed its checksum and was quarantined).
    fn prepare_block_entry(&mut self, addr: u32) -> bool {
        let cwp = self.state.cwp;
        let mut knobs = EngineFaults::default();
        let mut flipped = false;
        if let Some(mut inj) = self.injector.take() {
            if inj.roll(FaultSite::CacheBitFlip) {
                // Strike the resident copy *before* the lookup clones it
                // out: the flip models an SRAM upset of the stored word.
                flipped = self
                    .vcache
                    .with_block_mut(addr, cwp, |b| corrupt::flip_operand_bit(b, inj.rng()))
                    .unwrap_or(false);
                if flipped {
                    inj.note_injected(FaultSite::CacheBitFlip);
                }
            }
            // The two engine knobs are armed here but counted as
            // injected only when they actually fire (see
            // `note_engine_fires`): an armed one-shot that the block
            // never exercises is not a landed fault.
            if inj.roll(FaultSite::AliasFalseNegative) {
                knobs.suppress_alias = true;
                knobs.alias_list_cap = Some(2);
            }
            if inj.roll(FaultSite::RecoveryTruncate) {
                knobs.truncate_recovery = true;
            }
            self.injector = Some(inj);
        }
        if flipped {
            self.emit(TraceEvent::FaultInjected {
                site: FaultSite::CacheBitFlip.label(),
                tag: addr,
            });
        }
        // Always re-arm, clearing any stale knob left from a previous
        // entry whose one-shot fault never fired.
        self.engine.arm_faults(knobs);
        if !self.vcache.verify_block(addr, cwp) {
            // In-SRAM rot caught by the checksum before execution:
            // detection without a divergence. Quarantine; miss.
            self.faults.detected += 1;
            self.breaker_note_event();
            self.faults.recovered += 1;
            self.quarantine_line(addr, cwp);
            return false;
        }
        true
    }

    /// Fold newly-fired engine knobs (alias suppression / list capping,
    /// recovery-list truncation) into the injector's landed-fault
    /// counts, so campaign budgets and reports track faults that
    /// actually struck rather than arms that expired.
    fn note_engine_fires(&mut self, tag: u32) {
        let es = self.engine.stats();
        let alias = es.alias_suppressed + es.ls_list_dropped;
        let truncate = es.recovery_truncated;
        if alias == self.seen_alias_fires && truncate == self.seen_truncate_fires {
            return;
        }
        if let Some(inj) = &mut self.injector {
            for _ in self.seen_alias_fires..alias {
                inj.note_injected(FaultSite::AliasFalseNegative);
            }
            for _ in self.seen_truncate_fires..truncate {
                inj.note_injected(FaultSite::RecoveryTruncate);
            }
        }
        for site in [
            (alias > self.seen_alias_fires).then_some(FaultSite::AliasFalseNegative),
            (truncate > self.seen_truncate_fires).then_some(FaultSite::RecoveryTruncate),
        ]
        .into_iter()
        .flatten()
        {
            self.emit(TraceEvent::FaultInjected {
                site: site.label(),
                tag,
            });
        }
        self.seen_alias_fires = alias;
        self.seen_truncate_fires = truncate;
    }

    /// Graceful degradation at a block boundary: the lockstep compare
    /// (or the oracle's halt) rejected the block's architectural
    /// effects. Roll the VLIW Engine back to its block-entry checkpoint,
    /// quarantine the offending line, replay the span the oracle already
    /// executed on the Primary interpreter, and verify the result —
    /// scrubbing wholesale from the oracle if the replay cannot
    /// reproduce its state (e.g. the checkpoint itself was damaged).
    fn recover_in_vliw(
        &mut self,
        err: MachineError,
        block: &Block,
        base: u64,
    ) -> Result<(), MachineError> {
        let recoverable = matches!(
            err,
            MachineError::Divergence { .. } | MachineError::TestSyncTimeout { .. }
        );
        if !self.recovery_enabled() || !recoverable {
            return Err(err);
        }
        self.roll_back_and_quarantine(block)?;
        // Replay the span the oracle has executed since block entry.
        // Output is discarded: the oracle's copy is authoritative and
        // was already appended during the sync.
        let n = self.test.retired - base;
        let mut clean = true;
        let mut discarded = Vec::new();
        for k in 0..n {
            match primary_execute(&mut self.state, &mut self.mem, &mut discarded) {
                Ok(Some(_)) => {
                    // A halt on the final replayed instruction mirrors
                    // the oracle halting mid-sync; earlier means the
                    // replay went off the rails.
                    clean = k + 1 == n;
                    break;
                }
                Ok(None) => {}
                Err(_) => {
                    clean = false;
                    break;
                }
            }
        }
        self.faults.replays += 1;
        self.faults.replayed_instrs += n;
        self.faults.replay_cycles += n;
        self.charge_overhead(n, Overhead::Recovery);
        if !clean || !self.states_match() {
            self.scrub_from_test();
        }
        if let Some(code) = self.test_halt {
            self.halted = Some(code);
        }
        self.faults.recovered += 1;
        self.emit(TraceEvent::Recovery {
            tag: block.tag_addr,
            replayed: n as u32,
        });
        self.swap_to_primary_mode();
        Ok(())
    }

    /// Graceful degradation while the Primary Processor is executing:
    /// the divergence is fallout of an earlier silent corruption (there
    /// is no block checkpoint to roll back to), so scrub wholesale from
    /// the oracle and flush the scheduling list, which may hold
    /// observations from the corrupted path.
    fn recover_in_primary(&mut self) {
        self.faults.detected += 1;
        self.breaker_note_event();
        self.charge_overhead(self.cfg.exception_penalty.into(), Overhead::Recovery);
        self.scrub_from_test();
        let _ = self.sched.seal(self.state.pc, self.test.retired);
        self.faults.recovered += 1;
        self.emit(TraceEvent::Recovery {
            tag: 0,
            replayed: 0,
        });
    }

    /// Last-resort recovery: copy the oracle's architectural state and
    /// memory wholesale (models a microcoded restore from the
    /// checkpointed sequential machine).
    fn scrub_from_test(&mut self) {
        self.faults.scrubs += 1;
        self.state = self.test.state.clone();
        self.mem = self.test.mem.clone();
    }

    /// Advance the test machine to trace position `target_retired` (the
    /// paper phrases this as running "until its PC becomes equal to the
    /// DTSVLIW PC"; counting trace instructions is the loop-proof form
    /// of the same synchronisation) and compare states.
    fn sync_test(&mut self, target_retired: u64) -> Result<(), MachineError> {
        // The committed trace is authoritative for console output
        // ordering: the oracle writes it straight into `output`.
        let halt = self.test.run_to(target_retired, &mut self.output)?;
        if let Some(Halt::Exit(code)) = halt {
            self.test_halt = Some(code);
            if self.test.retired < target_retired {
                // The DTSVLIW cannot commit past a halt: ta is
                // non-schedulable and never enters a block.
                return Err(MachineError::TestSyncTimeout { pc: self.state.pc });
            }
        }
        self.verify_states()
    }

    fn verify_states(&self) -> Result<(), MachineError> {
        if self.inject_divergence {
            return Err(self.divergence("injected divergence (debug)".to_string()));
        }
        if !self.cfg.verify {
            return Ok(());
        }
        if self.test.state.pc != self.state.pc {
            return Err(self.divergence(format!(
                "pc {:#x} != test pc {:#x}",
                self.state.pc, self.test.state.pc
            )));
        }
        if let Some(detail) = self.state.diff_visible(&self.test.state) {
            return Err(self.divergence(detail));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtsvliw_asm::assemble;
    use dtsvliw_isa::encode::encode;
    use dtsvliw_isa::{AluOp, Instr, Src2};

    /// Run the first pass of a loop on both machines, overwrite its first
    /// instruction in the Primary Processor's memory only, and run up to
    /// the second execution of that word. Each machine owns its decoded
    /// code, so the Primary must execute the new word while the oracle
    /// keeps executing the old one.
    fn corrupt_executed_code(recover: bool) -> (Machine, u32, Result<RunOutcome, MachineError>) {
        let img = assemble(
            "_start: mov 2, %o2\nloop: mov 1, %o0\n subcc %o2, 1, %o2\n bne loop\n nop\n ta 0\n",
        )
        .unwrap();
        let mut cfg = MachineConfig::feasible_paper();
        cfg.verify = true;
        cfg.recover_divergence = recover;
        let mut m = Machine::new(cfg, &img);
        let at = img.symbols["loop"];
        assert_eq!(
            m.run(2).unwrap().instructions,
            2,
            "both machines ran `mov 1`"
        );
        let original = m.mem.read_u32(at);
        let mov7 = Instr::Alu {
            op: AluOp::Or,
            cc: false,
            rd: 8,
            rs1: 0,
            src2: Src2::Imm(7),
        };
        m.mem.write_u32(at, encode(&mov7));
        // mov 2, mov 1, subcc, bne, nop, then the overwritten word.
        let out = m.run(6);
        assert_eq!(m.test.mem.read_u32(at), original, "oracle code untouched");
        (m, at, out)
    }

    #[test]
    fn primary_code_store_diverges_from_oracle() {
        let (_, at, out) = corrupt_executed_code(false);
        match out {
            Err(MachineError::Divergence { pc, .. }) => assert_eq!(pc, at + 4),
            other => panic!("expected a divergence after the new word, got {other:?}"),
        }
    }

    #[test]
    fn primary_code_store_is_scrubbed_from_oracle() {
        let (mut m, _, out) = corrupt_executed_code(true);
        out.unwrap();
        assert_eq!(m.faults.scrubs, 1, "scrubbed when the new word ran");
        assert_eq!(m.run(100).unwrap().exit_code, Some(1), "oracle's exit code");
        assert_eq!(m.faults.scrubs, 1);
        assert_eq!(m.mem.first_difference(&m.test.mem), None);
    }
}
