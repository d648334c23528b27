//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once when the run ends, and checked on the way.
//!
//! A span has a name, start and end (nanoseconds since the run began),
//! its parent, and the run id. The root span is the workload; every
//! layer span nests under it. A disabled recorder (the untraced run)
//! records nothing.

use dtsvliw_json::Json;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span (`usize::MAX` when recording is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Spans {
    /// This is a traced run.
    traced: bool,
    /// Spans are being recorded right now (a traced run may pause).
    on: bool,
    t0: Instant,
    run_id: String,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, run_id: String) -> Self {
        Spans {
            traced: on,
            on,
            t0: Instant::now(),
            run_id,
            spans: Vec::new(),
        }
    }

    pub fn is_traced(&self) -> bool {
        self.traced
    }

    /// Pause or resume recording in a traced run (the untraced passes
    /// a traced run compares against). Spans must not straddle a pause.
    pub fn set_recording(&mut self, on: bool) {
        self.on = on && self.traced;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (`None` only for the workload span).
    pub fn begin(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if self.on {
            self.spans[id.0].end_ns = self.now();
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("run_id", Json::Str(self.run_id.clone())),
            (
                "spans",
                Json::arr(self.spans.iter().enumerate().map(|(i, s)| {
                    Json::obj([
                        ("id", Json::U64(i as u64)),
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                    ])
                })),
            ),
        ])
    }

    /// Write the spans to `path`, read the file back, and check it
    /// (see [`check`]). Returns the number of spans written.
    pub fn write_and_check(&self, path: &Path) -> Result<usize, String> {
        let text = self.to_json().to_string();
        std::fs::write(path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let back = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let spans = parse(&back)?;
        if spans != self.spans {
            return Err("span file does not round-trip".to_string());
        }
        check(&spans)?;
        Ok(spans.len())
    }
}

/// Parse a span file written by [`Spans::to_json`].
pub fn parse(text: &str) -> Result<Vec<Span>, String> {
    let doc = Json::parse(text).map_err(|e| format!("span file is not JSON: {e}"))?;
    let arr = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("span file has no spans array")?;
    arr.iter()
        .enumerate()
        .map(|(i, s)| {
            let field = |k: &str| s.get(k).and_then(Json::as_u64);
            if field("id") != Some(i as u64) {
                return Err(format!("span {i}: id out of order"));
            }
            Ok(Span {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("span {i}: no name"))?
                    .to_string(),
                start_ns: field("start_ns").ok_or(format!("span {i}: no start"))?,
                end_ns: field("end_ns").ok_or(format!("span {i}: no end"))?,
                parent: match s.get("parent") {
                    Some(Json::Null) => None,
                    Some(p) => Some(p.as_u64().ok_or(format!("span {i}: bad parent"))? as usize),
                    None => return Err(format!("span {i}: no parent field")),
                },
            })
        })
        .collect()
}

/// Duration of `s` not covered by its children (`children` are the
/// `(start, end)` intervals of its direct children).
fn self_time(s: &Span, mut children: Vec<(u64, u64)>) -> i128 {
    children.sort_unstable();
    let (mut covered, mut reach) = (0u64, s.start_ns);
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (s.end_ns - s.start_ns) as i128 - covered as i128
}

/// The span file's invariants: exactly one root (the workload span),
/// which comes first; every other span's parent is an earlier span and
/// its interval lies inside the parent's; no span's self time is
/// negative or exceeds its parent's duration.
pub fn check(spans: &[Span]) -> Result<(), String> {
    if spans.first().is_none_or(|s| s.parent.is_some()) {
        return Err("the first span must be the workload span".to_string());
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if i == 0 {
            continue;
        }
        let p = s
            .parent
            .ok_or(format!("span {i} ({}) has no parent", s.name))?;
        if p >= i {
            return Err(format!("span {i} ({}) has a later parent", s.name));
        }
        let ps = &spans[p];
        if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
            return Err(format!(
                "span {i} ({}) escapes its parent {}",
                s.name, ps.name
            ));
        }
        children[p].push((s.start_ns, s.end_ns));
    }
    for (i, s) in spans.iter().enumerate() {
        let own = self_time(s, std::mem::take(&mut children[i]));
        let limit = s.parent.map_or(s.end_ns - s.start_ns, |p| {
            spans[p].end_ns - spans[p].start_ns
        });
        if own < 0 || own > limit as i128 {
            return Err(format!("span {i} ({}) has self time {own} ns", s.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_spans_pass_and_round_trip() {
        let mut s = Spans::new(true, "t".to_string());
        let root = s.begin("workload", None);
        let a = s.begin("layer", Some(root));
        s.end(a);
        s.end(root);
        let text = s.to_json().to_string();
        assert_eq!(parse(&text).unwrap(), s.spans());
        check(s.spans()).unwrap();
    }

    #[test]
    fn escaping_and_orphan_spans_are_rejected() {
        let root = span("w", 0, 100, None);
        assert!(check(&[root.clone(), span("x", 50, 150, Some(0))]).is_err());
        assert!(check(&[root.clone(), span("x", 10, 20, None)]).is_err());
        assert!(check(&[span("x", 10, 20, Some(0))]).is_err());
        check(&[root, span("a", 0, 60, Some(0)), span("b", 40, 90, Some(0))]).unwrap();
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut s = Spans::new(false, "t".to_string());
        let id = s.begin("w", None);
        s.end(id);
        assert!(s.spans().is_empty());
    }
}
