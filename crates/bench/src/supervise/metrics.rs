//! Pull-based `/metrics` text exposition for campaigns.
//!
//! `dtsvliw_supervise --metrics-addr` exposes counters in the
//! Prometheus text format over a deliberately tiny hand-rolled HTTP/1.1
//! responder — one nonblocking accept loop, no routing beyond "any GET
//! gets the whole page", no dependencies. The page is rendered on
//! demand by the scrape, which folds the campaign span log (the
//! campaign's only ledger) through [`crate::explain::view_of`].
//!
//! Name conventions (DESIGN.md §14): everything is prefixed
//! `dtsvliw_`, counters end `_total`, the one label in use is
//! `outcome` on attempt counts.

use crate::explain::{AttemptView, CampaignView};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Attempt outcome classes, one `dtsvliw_attempts_total` series each.
pub const OUTCOME_CLASSES: [&str; 8] = [
    "success",
    "error",
    "signal",
    "timeout",
    "stalled",
    "requeued",
    "watchdog",
    "corrupt-snapshot",
];

/// The `/metrics` page, folded from the campaign's span log as it
/// stands: `spans` events so far, read back as `view`.
pub fn campaign_page(view: &CampaignView, spans: usize) -> String {
    let count =
        |hit: &dyn Fn(&AttemptView) -> bool| view.attempts.iter().filter(|a| hit(a)).count() as u64;
    let sum = |of: &dyn Fn(&AttemptView) -> u64| view.attempts.iter().map(of).sum::<u64>();
    let mut s = String::with_capacity(2048);
    s.push_str("# TYPE dtsvliw_attempts_total counter\n");
    for class in OUTCOME_CLASSES {
        s.push_str(&format!(
            "dtsvliw_attempts_total{{outcome=\"{class}\"}} {}\n",
            count(&|a| a.outcome == class)
        ));
    }
    let plain: [(&str, u64); 10] = [
        ("dtsvliw_steals_total", view.steals.len() as u64),
        (
            "dtsvliw_backoffs_scheduled_total",
            count(&|a| a.backoff_ms.is_some()),
        ),
        (
            "dtsvliw_backoff_ms_total",
            sum(&|a| a.backoff_ms.unwrap_or(0)),
        ),
        ("dtsvliw_bursts_total", sum(&|a| a.bursts)),
        ("dtsvliw_chaos_strikes_total", view.strikes.len() as u64),
        (
            "dtsvliw_requeues_total",
            count(&|a| a.outcome == "requeued"),
        ),
        ("dtsvliw_tail_truncated_total", sum(&|a| a.tail_truncated)),
        (
            "dtsvliw_jobs_done_total",
            count(&|a| a.outcome == "success"),
        ),
        ("dtsvliw_jobs_failed_total", count(&|a| a.job_failed)),
        ("dtsvliw_spans_total", spans as u64),
    ];
    for (name, value) in plain {
        s.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    s
}

/// Serve `body()` as `text/plain` to every HTTP GET on `addr` until
/// `stop` flips. Returns the bound address (so `:0` works) and the
/// server thread's handle. The listener is nonblocking and polled at
/// ~20 ms so shutdown is prompt; each connection gets one response and
/// `Connection: close` — exactly enough HTTP for `curl` and a
/// Prometheus scrape, by design.
pub fn spawn_metrics_server(
    addr: &str,
    body: Arc<dyn Fn() -> String + Send + Sync>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((mut sock, _)) => {
                    let _ = sock.set_read_timeout(Some(Duration::from_millis(500)));
                    let _ = sock.set_nonblocking(false);
                    // Drain the request head; we answer any request the
                    // same way, so parsing stops at the blank line.
                    let mut buf = [0u8; 1024];
                    let mut head = Vec::new();
                    loop {
                        match sock.read(&mut buf) {
                            Ok(0) => break,
                            Ok(n) => {
                                head.extend_from_slice(&buf[..n]);
                                if head.windows(4).any(|w| w == b"\r\n\r\n")
                                    || head.len() > 16 * 1024
                                {
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                    }
                    let page = body();
                    let response = format!(
                        "HTTP/1.1 200 OK\r\ncontent-type: text/plain; version=0.0.4\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{page}",
                        page.len()
                    );
                    let _ = sock.write_all(response.as_bytes());
                    let _ = sock.shutdown(std::net::Shutdown::Both);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    });
    Ok((local, handle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::view_of;
    use dtsvliw_json::Json;
    use dtsvliw_trace::{SpanEvent, SpanKind, SpanPhase};
    use std::net::TcpStream;

    /// A span event from its parts; `args` as `(key, value)` pairs.
    fn ev(
        kind: SpanKind,
        phase: SpanPhase,
        id: u64,
        track: &str,
        args: &[(&str, Json)],
    ) -> SpanEvent {
        SpanEvent {
            t_ms: id,
            kind,
            phase,
            id,
            track: track.to_string(),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    /// A settled attempt the way the engine records it: begin and end
    /// together, the settled fields on the end.
    fn attempt(id: u64, job: u64, outcome: &str, settled: &[(&str, Json)]) -> [SpanEvent; 2] {
        let mut end = vec![
            ("job", Json::U64(job)),
            ("outcome", Json::Str(outcome.into())),
        ];
        end.extend(settled.iter().cloned());
        [
            ev(
                SpanKind::JobAttempt,
                SpanPhase::Begin,
                id,
                "w0",
                &[("job", Json::U64(job))],
            ),
            ev(SpanKind::JobAttempt, SpanPhase::End, id, "w0", &end),
        ]
    }

    #[test]
    fn campaign_page_folds_a_fixture_span_log() {
        let mut log = vec![ev(SpanKind::Campaign, SpanPhase::Begin, 1, "campaign", &[])];
        log.extend(attempt(
            2,
            0,
            "success",
            &[("bursts", Json::U64(5)), ("tail_truncated", Json::U64(1))],
        ));
        log.extend(attempt(3, 1, "timeout", &[("backoff_ms", Json::U64(30))]));
        log.extend(attempt(4, 1, "requeued", &[]));
        log.extend(attempt(5, 1, "success", &[("bursts", Json::U64(7))]));
        log.extend(attempt(
            6,
            2,
            "error",
            &[("detail", Json::I64(1)), ("job_failed", Json::Bool(true))],
        ));
        let job1 = [("job", Json::U64(1))];
        log.push(ev(SpanKind::Steal, SpanPhase::Instant, 0, "w1", &job1));
        for action in ["kill", "freeze"] {
            let args = [("action", Json::Str(action.into()))];
            log.push(ev(
                SpanKind::ChaosStrike,
                SpanPhase::Instant,
                0,
                "chaos",
                &args,
            ));
        }
        let page = campaign_page(&view_of(&log), log.len());

        let mut series: Vec<String> = OUTCOME_CLASSES
            .iter()
            .map(|class| {
                let n = match *class {
                    "success" => 2,
                    "timeout" | "requeued" | "error" => 1,
                    _ => 0,
                };
                format!("dtsvliw_attempts_total{{outcome=\"{class}\"}} {n}")
            })
            .collect();
        for (name, n) in [
            ("steals", 1),
            ("backoffs_scheduled", 1),
            ("backoff_ms", 30),
            ("bursts", 12),
            ("chaos_strikes", 2),
            ("requeues", 1),
            ("tail_truncated", 1),
            ("jobs_done", 2),
            ("jobs_failed", 1),
            ("spans", log.len()),
        ] {
            series.push(format!("dtsvliw_{name}_total {n}"));
        }
        let values: Vec<&str> = page.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(values, series, "{page}");
        // Every series is introduced by its TYPE comment.
        for line in page.lines().filter(|l| l.starts_with('#')) {
            assert!(
                line.starts_with("# TYPE dtsvliw_") && line.ends_with(" counter"),
                "{line}"
            );
        }
    }

    #[test]
    fn outcome_classes_cover_every_outcome_label() {
        use crate::supervise::Outcome;
        let all = [
            Outcome::Success,
            Outcome::Timeout,
            Outcome::Stalled,
            Outcome::Requeued,
            Outcome::Watchdog,
            Outcome::CorruptSnapshot,
            Outcome::Signal(9),
            Outcome::Error(1),
        ];
        for o in all {
            assert!(OUTCOME_CLASSES.contains(&o.label()), "{}", o.label());
        }
    }

    #[test]
    fn http_server_answers_a_get_and_stops() {
        let stop = Arc::new(AtomicBool::new(false));
        let (addr, handle) = spawn_metrics_server(
            "127.0.0.1:0",
            Arc::new(|| "# TYPE dtsvliw_spans_total counter\ndtsvliw_spans_total 7\n".to_string()),
            Arc::clone(&stop),
        )
        .expect("bind");

        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.write_all(b"GET /metrics HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        sock.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("text/plain"), "{response}");
        assert!(response.contains("dtsvliw_spans_total 7"), "{response}");

        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }
}
