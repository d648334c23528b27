//! The host fingerprint every result records, and process memory.

use dtsvliw_json::Json;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Worker slots the host offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run or fails. The command is waited for.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, rustc version, git commit and the seed.
pub fn fingerprint(seed: u64) -> Json {
    Json::obj([
        ("nproc", Json::U64(nproc() as u64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::U64(seed)),
    ])
}

/// A host-speed reading: the median µs of 200 runs of a fixed integer
/// loop that shares no code with the simulator. Co-tenants of the host
/// can slow every timing of a run; printed beside the timings, this
/// shows when they did.
pub fn calibration_us() -> f64 {
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
            for i in 0..20_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x.rotate_left((i & 31) as u32));
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    crate::stats::median(&samples)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
