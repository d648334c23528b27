//! `dtsvliw_run` — run a program on the simulated DTSVLIW machine.
//!
//! ```sh
//! dtsvliw_run prog.mc                  # minicc source (by extension)
//! dtsvliw_run prog.s                   # SPARC assembly
//! dtsvliw_run --workload compress      # a built-in benchmark
//! dtsvliw_run prog.mc --config ideal --geometry 16x8 --max 5000000
//! dtsvliw_run prog.s --config dif --no-verify
//! dtsvliw_run --workload go --trace-out t.json --trace-format perfetto
//! dtsvliw_run --workload gcc --heartbeat=50000 --profile-sampled
//! ```
//!
//! Configs: `feasible` (default, the paper's §4.4 machine), `ideal`
//! (perfect caches; `--geometry WxH` selects the block shape), `dif`
//! (the Figure 9 baseline machine).
//!
//! Observability (DESIGN.md §Observability): `--trace` arms the
//! flight recorder alone (last `--trace-last` events, dumped on a
//! test-mode divergence); `--trace-out PATH` additionally streams every
//! event to PATH as `--trace-format` (`jsonl` default, `perfetto` for
//! <https://ui.perfetto.dev>, `text` for eyeballs); `--metrics-json
//! PATH` dumps the full `RunStats` (counters + histograms) plus the
//! host-side telemetry registry as JSON.
//!
//! Always-on telemetry (DESIGN.md §12): `--heartbeat[=K]` streams one
//! JSONL progress record every K simulated cycles (default 100000) to
//! `--heartbeat-out` (default `heartbeat.jsonl`); `--profile-sampled[=N]`
//! attaches the hot-block profiler, `BlockProfiler::new(N)`, which
//! records one block entry in N (default 16), and `--profile` is
//! shorthand for `--profile-sampled=1` (every entry);
//! `--profile-top N` sets the report depth and arms `--profile` when no
//! profiler was asked for.
//!
//! Durability (DESIGN.md §10): `--snapshot-every N` writes an atomic
//! snapshot of the complete machine state to `--snapshot-dir`
//! (default `snapshots/`) every N cycles; `--resume FILE` restores one
//! and continues — a resumed run retires the same instructions in the
//! same cycles as an uninterrupted one. `--breaker T:W:C` arms the
//! engine-level circuit breaker (T detections in a W-cycle window drop
//! the machine to primary-only execution for C cycles).
//!
//! Exit codes: 0 success, 1 machine/usage error, 2 bad arguments,
//! 3 watchdog (partial statistics are still printed), 4 snapshot
//! corruption or mismatch.

use dtsvliw_core::{Machine, MachineConfig, MachineError};
use dtsvliw_json::{Json, ToJson};
use dtsvliw_sched::scheduler::{MAX_BLOCK_SLOTS, MAX_WIDTH};
use dtsvliw_trace::{
    sink_to_writer, BlockProfiler, Heartbeat, TraceFormat, Tracer, DEFAULT_SAMPLE_PERIOD,
};
use dtsvliw_workloads::Scale;
use std::path::Path;

fn usage() -> ! {
    eprintln!(
        "usage: dtsvliw_run <file.mc|file.s> [--config feasible|ideal|dif] \
         [--geometry WxH] [--max N] [--max-cycles N] [--no-verify] [--store-buffer] [--predict]\n\
         \u{20}      dtsvliw_run --workload <name> [--scale test|small|large] [same options]\n\
         \u{20}      tracing: [--trace] [--trace-out PATH] [--trace-format jsonl|perfetto|text]\n\
         \u{20}               [--trace-last N] [--metrics-json PATH] [--inject-divergence]\n\
         \u{20}      profiling: [--profile] [--profile-top N] [--profile-sampled[=N]]\n\
         \u{20}      telemetry: [--heartbeat[=CYCLES]] [--heartbeat-out PATH]\n\
         \u{20}      durability: [--snapshot-every CYCLES] [--snapshot-dir DIR] [--resume FILE]\n\
         \u{20}                  [--breaker THRESHOLD:WINDOW:COOLDOWN]"
    );
    std::process::exit(2);
}

/// Exit code for a fired forward-progress watchdog (partial statistics
/// are printed first, so supervisors can prove forward motion).
const EXIT_WATCHDOG: i32 = 3;
/// Exit code for a corrupt, mismatched or unreadable snapshot.
const EXIT_SNAPSHOT: i32 = 4;

/// Heartbeat cadence when `--heartbeat` is given without a value.
const DEFAULT_HEARTBEAT_EVERY: u64 = 100_000;

fn die(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Everything the command line can configure, in parsed form.
#[derive(Debug)]
struct Options {
    file: Option<String>,
    workload: Option<String>,
    scale: Scale,
    config: String,
    geometry: (usize, usize),
    max: u64,
    max_cycles: Option<u64>,
    verify: bool,
    store_buffer: bool,
    predict: bool,
    trace: bool,
    trace_out: Option<String>,
    trace_format: TraceFormat,
    trace_last: usize,
    metrics_json: Option<String>,
    /// Profiler sampling period (1 records every block entry).
    profile: Option<u64>,
    profile_top: usize,
    heartbeat: Option<u64>,
    heartbeat_out: String,
    inject_divergence: bool,
    snapshot_every: Option<u64>,
    snapshot_dir: String,
    resume: Option<String>,
    breaker: Option<(u32, u64, u64)>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            file: None,
            workload: None,
            scale: Scale::Small,
            config: "feasible".to_string(),
            geometry: (8, 8),
            max: 50_000_000,
            max_cycles: None,
            verify: true,
            store_buffer: false,
            predict: false,
            trace: false,
            trace_out: None,
            trace_format: TraceFormat::Jsonl,
            trace_last: 256,
            metrics_json: None,
            profile: None,
            profile_top: 10,
            heartbeat: None,
            heartbeat_out: "heartbeat.jsonl".to_string(),
            inject_divergence: false,
            snapshot_every: None,
            snapshot_dir: "snapshots".to_string(),
            resume: None,
            breaker: None,
        }
    }
}

/// Parse `flag`'s value as a strictly positive integer; zero and
/// negative values get a message naming both the flag and the offence.
fn positive(flag: &str, v: &str) -> Result<u64, String> {
    if let Ok(n) = v.parse::<u64>() {
        if n > 0 {
            return Ok(n);
        }
        return Err(format!("{flag} must be a positive integer, got {v}"));
    }
    if v.parse::<i64>().is_ok() {
        return Err(format!("{flag} must be a positive integer, got {v}"));
    }
    Err(format!("{flag}: expected a positive integer, got `{v}`"))
}

/// Parse the argument list (program name already stripped). Pure so the
/// unit tests below can exercise every rejection path without spawning
/// a process.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut exact = false;
    let mut sampled = None;
    let mut top_given = false;
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                i += 1;
                o.workload = Some(value(args, i, "--workload")?);
            }
            "--scale" => {
                i += 1;
                o.scale = match value(args, i, "--scale")?.as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "large" => Scale::Large,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--config" => {
                i += 1;
                o.config = value(args, i, "--config")?;
            }
            "--geometry" => {
                i += 1;
                let g = value(args, i, "--geometry")?;
                let (w, h) = g
                    .split_once('x')
                    .ok_or_else(|| format!("--geometry expects WxH, got `{g}`"))?;
                let (w, h) = (
                    positive("--geometry width", w)? as usize,
                    positive("--geometry height", h)? as usize,
                );
                if w > MAX_WIDTH {
                    return Err(format!(
                        "--geometry width {w} exceeds the limit of {MAX_WIDTH} slots per long instruction"
                    ));
                }
                if w.saturating_mul(h) > MAX_BLOCK_SLOTS {
                    return Err(format!(
                        "--geometry {w}x{h} exceeds the limit of {MAX_BLOCK_SLOTS} slots per block"
                    ));
                }
                o.geometry = (w, h);
            }
            "--max" => {
                i += 1;
                o.max = positive("--max", &value(args, i, "--max")?)?;
            }
            "--max-cycles" => {
                i += 1;
                o.max_cycles = Some(positive("--max-cycles", &value(args, i, "--max-cycles")?)?);
            }
            "--no-verify" => o.verify = false,
            "--store-buffer" => o.store_buffer = true,
            "--predict" => o.predict = true,
            "--trace" => o.trace = true,
            "--trace-out" => {
                i += 1;
                o.trace_out = Some(value(args, i, "--trace-out")?);
            }
            "--trace-format" => {
                i += 1;
                o.trace_format = value(args, i, "--trace-format")?.parse()?;
            }
            "--trace-last" => {
                i += 1;
                o.trace_last = positive("--trace-last", &value(args, i, "--trace-last")?)? as usize;
            }
            "--metrics-json" => {
                i += 1;
                o.metrics_json = Some(value(args, i, "--metrics-json")?);
            }
            "--profile" => exact = true,
            "--profile-top" => {
                i += 1;
                top_given = true;
                o.profile_top =
                    positive("--profile-top", &value(args, i, "--profile-top")?)? as usize;
            }
            "--profile-sampled" => sampled = Some(DEFAULT_SAMPLE_PERIOD),
            "--heartbeat" => o.heartbeat = Some(DEFAULT_HEARTBEAT_EVERY),
            "--heartbeat-out" => {
                i += 1;
                o.heartbeat_out = value(args, i, "--heartbeat-out")?;
            }
            "--inject-divergence" => o.inject_divergence = true,
            "--snapshot-every" => {
                i += 1;
                o.snapshot_every = Some(positive(
                    "--snapshot-every",
                    &value(args, i, "--snapshot-every")?,
                )?);
            }
            "--snapshot-dir" => {
                i += 1;
                o.snapshot_dir = value(args, i, "--snapshot-dir")?;
            }
            "--resume" => {
                i += 1;
                o.resume = Some(value(args, i, "--resume")?);
            }
            "--breaker" => {
                i += 1;
                let spec = value(args, i, "--breaker")?;
                let mut parts = spec.split(':');
                o.breaker = Some(
                    (|| {
                        Some((
                            parts.next()?.parse().ok()?,
                            parts.next()?.parse().ok()?,
                            parts.next()?.parse().ok()?,
                        ))
                    })()
                    .filter(|_| parts.next().is_none())
                    .ok_or_else(|| {
                        format!("--breaker expects THRESHOLD:WINDOW:COOLDOWN, got `{spec}`")
                    })?,
                );
            }
            a if a.starts_with("--profile-sampled=") => {
                let v = &a["--profile-sampled=".len()..];
                sampled = Some(positive("--profile-sampled", v)?);
            }
            a if a.starts_with("--heartbeat=") => {
                let v = &a["--heartbeat=".len()..];
                o.heartbeat = Some(positive("--heartbeat", v)?);
            }
            a if !a.starts_with('-') && o.file.is_none() => o.file = Some(a.to_string()),
            a => return Err(format!("unknown or repeated argument `{a}`")),
        }
        i += 1;
    }
    o.profile = match (exact, sampled) {
        (true, Some(_)) => {
            return Err("--profile is --profile-sampled=1; give --profile or \
                 --profile-sampled[=N], not both"
                .to_string())
        }
        (true, None) => Some(1),
        (false, Some(n)) => Some(n),
        (false, None) => top_given.then_some(1),
    };
    Ok(o)
}

/// Create `path`'s parent directories, then the file itself.
fn create_file(path: &str) -> std::fs::File {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                die(format!("creating {}: {e}", parent.display()));
            }
        }
    }
    std::fs::File::create(path).unwrap_or_else(|e| die(format!("creating {path}: {e}")))
}

fn write_metrics(path: &str, doc: &Json) {
    use std::io::Write;
    let mut f = create_file(path);
    let doc = doc.to_string_pretty();
    if let Err(e) = writeln!(f, "{doc}") {
        die(format!("writing {path}: {e}"));
    }
    println!("(metrics written to {path}, {} bytes)", doc.len() + 1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage();
    });

    // A resumed run does not need the program: both memories travel
    // inside the snapshot.
    let image = match (&o.file, &o.workload) {
        (Some(path), None) => {
            let src = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
            if path.ends_with(".s") || path.ends_with(".asm") {
                Some(
                    dtsvliw_asm::assemble(&src)
                        .unwrap_or_else(|e| die(format!("assembly error: {e}"))),
                )
            } else {
                Some(
                    dtsvliw_minicc::compile_to_image(&src)
                        .unwrap_or_else(|e| die(format!("compile error: {e}"))),
                )
            }
        }
        (None, Some(name)) => Some(
            dtsvliw_workloads::by_name(name, o.scale)
                .unwrap_or_else(|| die(format!("unknown workload `{name}`")))
                .image(),
        ),
        (None, None) if o.resume.is_some() => None,
        _ => usage(),
    };

    let mut cfg = match o.config.as_str() {
        "feasible" => MachineConfig::feasible_paper(),
        "ideal" => MachineConfig::ideal(o.geometry.0, o.geometry.1),
        "dif" => MachineConfig::dif_machine(),
        other => die(format!("unknown config `{other}`")),
    };
    cfg.verify = o.verify;
    cfg.max_cycles = o.max_cycles;
    if o.store_buffer {
        cfg.store_scheme = dtsvliw_vliw::engine::StoreScheme::StoreBuffer;
    }
    cfg.next_block_prediction = o.predict;
    if let Some((threshold, window, cooldown)) = o.breaker {
        cfg = cfg.with_breaker(threshold, window, cooldown);
    }

    let width = cfg.sched.width;
    let mut machine = match &o.resume {
        Some(path) => Machine::resume_from(cfg, Path::new(path)).unwrap_or_else(|e| {
            eprintln!("error: cannot resume from {path}: {e}");
            std::process::exit(EXIT_SNAPSHOT);
        }),
        None => Machine::new(cfg, image.as_ref().unwrap_or_else(|| usage())),
    };
    if o.trace || o.trace_out.is_some() {
        let tracer = match &o.trace_out {
            Some(path) => {
                let f = create_file(path);
                Tracer::with_sink(o.trace_last, sink_to_writer(o.trace_format, Box::new(f)))
            }
            None => Tracer::new(o.trace_last),
        };
        machine.attach_tracer(Box::new(tracer));
    }
    if let Some(every) = o.profile {
        machine.attach_profiler(Box::new(BlockProfiler::new(every)));
    }
    if let Some(every) = o.heartbeat {
        let f = create_file(&o.heartbeat_out);
        machine.attach_heartbeat(Box::new(Heartbeat::new(every, Some(Box::new(f)))));
    }
    if o.inject_divergence {
        machine.inject_divergence();
    }

    let started = std::time::Instant::now();
    let result = match o.snapshot_every {
        Some(every) => machine.run_with_snapshots(o.max, every, Path::new(&o.snapshot_dir)),
        None => machine.run(o.max),
    };
    let wall = started.elapsed();

    let s = machine.stats();
    if let Some(mut t) = machine.take_tracer() {
        let recorded = t.recorded();
        let dropped = t.dropped();
        if let Err(e) = t.finish(s.cycles) {
            eprintln!("warning: trace sink error: {e}");
        }
        match &o.trace_out {
            Some(path) => println!(
                "trace          : {recorded} events ({dropped} beyond the flight recorder) -> {path} [{}]",
                o.trace_format.label()
            ),
            None => println!("trace          : {recorded} events in the flight recorder"),
        }
    }
    if let Some(mut hb) = machine.take_heartbeat() {
        if let Err(e) = hb.finish() {
            eprintln!("warning: heartbeat sink error: {e}");
        }
        println!(
            "heartbeat      : {} records every {} cycles -> {}",
            hb.emitted(),
            hb.every(),
            o.heartbeat_out
        );
    }
    if let Some(path) = &o.metrics_json {
        // RunStats stays telemetry-free (it travels in snapshots and
        // digests); the host-side registry rides along in the document
        // under its own key instead.
        let mut doc = machine.stats_json(o.profile_top);
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("telemetry".to_string(), machine.telemetry().to_json()));
        }
        write_metrics(path, &doc);
    }

    let out = match result {
        Ok(out) => out,
        Err(e @ MachineError::Watchdog { .. }) => {
            // The watchdog carries the progress made; print the partial
            // statistics so a supervisor can prove forward motion
            // between retries.
            eprintln!("error: {e}");
            println!("--- partial statistics at watchdog ---");
            println!("instructions   : {}", s.instructions);
            println!("cycles         : {}", s.cycles);
            println!("IPC            : {:.3}", s.ipc());
            println!("mode swaps     : {}", s.mode_swaps);
            println!(
                "degraded       : {} entries, {} cycles",
                s.degraded_entries, s.degraded_cycles
            );
            std::process::exit(EXIT_WATCHDOG);
        }
        Err(e @ MachineError::Snapshot(_)) => {
            eprintln!("error: {e}");
            std::process::exit(EXIT_SNAPSHOT);
        }
        // On divergence the machine already dumped the flight-recorder
        // tail to stderr.
        Err(e) => die(format!("machine error: {e}")),
    };

    let output = machine.output_string();
    if !output.is_empty() {
        println!("--- program output ---\n{output}\n----------------------");
    }
    println!("exit code      : {:?}", out.exit_code);
    println!("instructions   : {}", s.instructions);
    println!("cycles         : {}", s.cycles);
    println!("IPC            : {:.3}", s.ipc());
    println!(
        "cycle mix      : {:.1}% vliw / {:.1}% primary / {:.1}% overhead / {:.1}% degraded",
        100.0 * s.vliw_cycles as f64 / s.cycles.max(1) as f64,
        100.0 * s.primary_cycles as f64 / s.cycles.max(1) as f64,
        100.0 * s.overhead_cycles as f64 / s.cycles.max(1) as f64,
        100.0 * s.degraded_cycles as f64 / s.cycles.max(1) as f64,
    );
    println!(
        "overhead       : {} swap / {} mispredict / {} next-li / {} recovery",
        s.overhead_swap, s.overhead_mispredict, s.overhead_next_li, s.overhead_recovery
    );
    println!(
        "swap gap       : p50 {} / p90 {} / p99 {} / p99.9 {} cycles",
        s.metrics.swap_gap_cycles.percentile(0.50),
        s.metrics.swap_gap_cycles.percentile(0.90),
        s.metrics.swap_gap_cycles.percentile(0.99),
        s.metrics.swap_gap_cycles.percentile(0.999),
    );
    println!(
        "mode swaps     : {} ({} next-block-prediction hits)",
        s.mode_swaps, s.nbp_hits
    );
    if s.degraded_entries > 0 {
        println!(
            "degraded mode  : {} breaker trips, {} primary-only cycles",
            s.degraded_entries, s.degraded_cycles
        );
    }
    println!(
        "scheduler      : {} blocks, {} splits, util {:.1}%, renames {:?}",
        s.sched.blocks,
        s.sched.splits,
        100.0 * s.sched.slot_utilisation(),
        s.sched.rename_hw,
    );
    println!(
        "vliw engine    : {} LIs, {} committed, {} annulled, {} mispredicts, {} aliasing",
        s.engine.lis,
        s.engine.committed,
        s.engine.annulled,
        s.engine.mispredicts,
        s.engine.alias_exceptions,
    );
    // The Fetch Unit probes with `VliwCache::peek`, which counts
    // nothing, so a machine run never counts a miss.
    println!(
        "vliw cache     : {} hits / {} installs / {} evictions",
        s.vliw_cache.hits, s.vliw_cache.inserts, s.vliw_cache.evictions
    );
    let t = machine.telemetry();
    if t.bursts > 0 {
        // Long instructions issue only inside bursts, so the run's slot
        // occupancy is the bursts' occupancy.
        let slots = s.engine.lis * width as u64;
        println!(
            "vliw bursts    : {} bursts, {} chained continuations, {:.1}% burst slot occupancy",
            t.bursts,
            t.burst_chained,
            100.0 * s.metrics.li_slot_occupancy.sum() as f64 / slots as f64,
        );
    }
    println!(
        "simulated at   : {:.1}M instructions/s ({:.2?} wall)",
        s.instructions as f64 / 1e6 / wall.as_secs_f64(),
        wall
    );
    if let Some(p) = machine.profiler() {
        print!("{}", p.report_table(o.profile_top));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    #[test]
    fn defaults_and_positional_file() {
        let o = parse(&["prog.mc"]).unwrap();
        assert_eq!(o.file.as_deref(), Some("prog.mc"));
        assert_eq!(o.trace_last, 256);
        assert_eq!(o.heartbeat, None);
        assert_eq!(o.profile, None);
        assert_eq!(o.heartbeat_out, "heartbeat.jsonl");
    }

    #[test]
    fn telemetry_flags_parse_with_and_without_values() {
        let o = parse(&[
            "--workload",
            "gcc",
            "--heartbeat",
            "--profile-sampled",
            "--heartbeat-out",
            "hb/gcc.jsonl",
        ])
        .unwrap();
        assert_eq!(o.heartbeat, Some(DEFAULT_HEARTBEAT_EVERY));
        assert_eq!(o.profile, Some(DEFAULT_SAMPLE_PERIOD));
        assert_eq!(o.heartbeat_out, "hb/gcc.jsonl");

        let o = parse(&[
            "--workload",
            "gcc",
            "--heartbeat=5000",
            "--profile-sampled=4",
        ])
        .unwrap();
        assert_eq!(o.heartbeat, Some(5000));
        assert_eq!(o.profile, Some(4));
    }

    #[test]
    fn profile_is_sampling_at_one() {
        assert_eq!(parse(&["--profile"]).unwrap().profile, Some(1));
        let o = parse(&["--profile-top", "5"]).unwrap();
        assert_eq!((o.profile, o.profile_top), (Some(1), 5));
        let o = parse(&["--profile-sampled=8", "--profile-top", "5"]).unwrap();
        assert_eq!((o.profile, o.profile_top), (Some(8), 5));
    }

    #[test]
    fn profile_and_profile_sampled_are_rejected_together() {
        for args in [
            vec!["--profile", "--profile-sampled=4"],
            vec!["--profile-sampled=4", "--profile"],
            vec!["--profile", "--profile-sampled"],
        ] {
            let err = parse(&args).unwrap_err();
            assert!(
                err.contains("--profile ") && err.contains("--profile-sampled"),
                "`{err}` does not name both flags"
            );
        }
    }

    #[test]
    fn zero_cadences_are_rejected_with_the_flag_named() {
        for (args, flag) in [
            (vec!["--heartbeat=0"], "--heartbeat"),
            (vec!["--profile-sampled=0"], "--profile-sampled"),
            (vec!["--trace-last", "0"], "--trace-last"),
            (vec!["--snapshot-every", "0"], "--snapshot-every"),
            (vec!["--max", "0"], "--max"),
        ] {
            let err = parse(&args).unwrap_err();
            assert!(err.contains(flag), "`{err}` does not name {flag}");
            assert!(err.contains("positive"), "`{err}` does not say positive");
        }
    }

    #[test]
    fn negative_values_are_rejected_not_wrapped() {
        for args in [
            vec!["--heartbeat=-3"],
            vec!["--profile-sampled=-1"],
            vec!["--trace-last", "-256"],
        ] {
            let err = parse(&args).unwrap_err();
            assert!(err.contains("positive"), "`{err}` does not say positive");
        }
    }

    #[test]
    fn non_numeric_values_are_rejected() {
        let err = parse(&["--heartbeat=soon"]).unwrap_err();
        assert!(err.contains("--heartbeat") && err.contains("soon"));
        let err = parse(&["--trace-last", "many"]).unwrap_err();
        assert!(err.contains("--trace-last") && err.contains("many"));
    }

    #[test]
    fn missing_values_and_unknown_flags_are_rejected() {
        assert!(parse(&["--trace-out"]).unwrap_err().contains("--trace-out"));
        assert!(parse(&["--workload"]).unwrap_err().contains("--workload"));
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
        // A second positional argument is an error, not silently dropped.
        assert!(parse(&["a.mc", "b.mc"]).unwrap_err().contains("b.mc"));
    }

    #[test]
    fn structured_flags_still_parse() {
        let o = parse(&[
            "--workload",
            "go",
            "--scale",
            "test",
            "--geometry",
            "16x4",
            "--breaker",
            "3:1000:5000",
        ])
        .unwrap();
        assert!(matches!(o.scale, Scale::Test));
        assert_eq!(o.geometry, (16, 4));
        assert_eq!(o.breaker, Some((3, 1000, 5000)));
        assert!(parse(&["--geometry", "16"]).is_err());
        assert!(parse(&["--geometry", "0x4"]).is_err());
        assert!(parse(&["--breaker", "3:1000"]).is_err());
        assert!(parse(&["--scale", "huge"]).is_err());
    }

    #[test]
    fn geometry_beyond_the_scheduler_limits_is_rejected() {
        assert_eq!(parse(&["--geometry", "64x8"]).unwrap().geometry, (64, 8));
        let err = parse(&["--geometry", "65x8"]).unwrap_err();
        assert!(err.contains("--geometry") && err.contains("64"), "{err}");
        let err = parse(&["--geometry", "64x1024"]).unwrap_err();
        assert!(err.contains("--geometry") && err.contains("65535"), "{err}");
        let err = parse(&["--geometry", "1x99999999999999999999"]).unwrap_err();
        assert!(err.contains("--geometry"), "{err}");
    }
}
