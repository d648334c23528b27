//! The distributed execution tier (DESIGN.md §14).
//!
//! `dtsvliw_supervise --workers host:port,…` turns the single-machine
//! campaign engine into a coordinator: every remote worker's advertised
//! slots become extra entries in the existing work-stealing scheduler,
//! claimed by *remote slot threads* that lease jobs over a
//! length-prefixed TCP/JSONL protocol instead of spawning children
//! locally. The robustness spine:
//!
//! * [`frame`] — the torn-read-safe length-prefixed frame codec;
//! * [`proto`] — the versioned frame vocabulary (hello handshake,
//!   lease / hb / snap / result / revoke);
//! * [`lease`] — lease epochs and fencing: at-most-once result
//!   accounting that rejects a partitioned worker's late results;
//! * [`client`] — deadlined connections (every read and write bounded);
//! * [`worker`] — the serve loop behind the `dtsvliw_worker` binary;
//! * [`netchaos`] — seeded network strikes (resets, half-open sockets,
//!   truncated frames, duplicated result delivery) for `--chaos`.
//!
//! Remote failures are never the job's fault: a lost connection maps to
//! the forgivable [`Outcome::Lost`](crate::supervise::Outcome), chaos
//! strikes mark the attempt like local strikes do, and when every
//! endpoint is unreachable the coordinator simply drains the campaign
//! on its local slots — degraded, recorded in the wall-clock ledger,
//! but byte-identical in the deterministic report.

pub mod client;
pub mod frame;
pub mod lease;
pub mod netchaos;
pub mod proto;
pub mod worker;

pub use client::{coordinator_connect, ConnError, Connection};
pub use frame::{FrameError, FrameReader};
pub use lease::{LeaseTable, Settle};
pub use netchaos::{NetChaos, NetStrike};
pub use worker::{serve, WorkerOptions};

/// Parse and validate a `--workers` list: comma-separated `host:port`
/// endpoints, every entry well-formed, no duplicates. The error names
/// the offending entry, mirroring how spec validation names the
/// offending field.
pub fn parse_worker_list(s: &str) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::new();
    for raw in s.split(',') {
        let entry = raw.trim();
        if entry.is_empty() {
            return Err(format!("--workers entry `{raw}` is empty"));
        }
        let Some((host, port)) = entry.rsplit_once(':') else {
            return Err(format!(
                "--workers entry `{entry}` is not host:port (no colon)"
            ));
        };
        if host.is_empty() {
            return Err(format!("--workers entry `{entry}` has an empty host"));
        }
        match port.parse::<u16>() {
            Ok(0) => {
                return Err(format!(
                    "--workers entry `{entry}` has port 0 (nothing listens there)"
                ))
            }
            Ok(_) => {}
            Err(_) => {
                return Err(format!(
                    "--workers entry `{entry}` has an unparsable port `{port}`"
                ))
            }
        }
        if out.iter().any(|e| e == entry) {
            return Err(format!("--workers entry `{entry}` is duplicated"));
        }
        out.push(entry.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_lists_parse() {
        assert_eq!(
            parse_worker_list("a:1, b:2,c:65535").unwrap(),
            vec!["a:1", "b:2", "c:65535"]
        );
        assert_eq!(
            parse_worker_list("127.0.0.1:7801").unwrap(),
            vec!["127.0.0.1:7801"]
        );
    }

    #[test]
    fn rejections_name_the_offending_entry() {
        for (list, offender) in [
            ("a:1,,b:2", "``"),
            ("nocolon", "`nocolon`"),
            (":7801", "`:7801`"),
            ("host:port", "`host:port`"),
            ("host:0", "`host:0`"),
            ("host:99999", "`host:99999`"),
            ("a:1,b:2,a:1", "`a:1`"),
        ] {
            let err = parse_worker_list(list).unwrap_err();
            assert!(
                err.contains(offender),
                "`{list}` rejection must name {offender}: {err}"
            );
        }
    }
}
