//! Spans recorded by the harness around its calls into each layer. They
//! stay in memory during the run and are written out once, as JSON lines,
//! when it ends.
//!
//! A traced request has a root span `wire.request` — the real socket round
//! trip — followed by an in-process replay of the same query, one span per
//! public call. The replay spans are re-executions made right after the
//! round trip, so their parent link is logical (it says which part of the
//! parent's work they repeat), and a span's self time is its duration
//! minus the *durations* of its children.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request share this.
    pub request: u32,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn record(
        &mut self,
        request: u32,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start: start - self.epoch,
            end: end - self.epoch,
        });
        id
    }

    /// Run `call` inside a new span.
    pub fn time<T>(
        &mut self,
        request: u32,
        parent: Option<u32>,
        name: &'static str,
        call: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let value = std::hint::black_box(call());
        let end = Instant::now();
        (value, self.record(request, parent, name, start, end))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize] += span.duration();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, covered)| span.duration().saturating_sub(covered))
            .collect()
    }

    /// Self times in seconds, grouped by span name.
    pub fn self_times_by_name(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            by_name
                .entry(span.name)
                .or_default()
                .push(own.as_secs_f64());
        }
        by_name
    }

    /// For each root span: the share of its duration its children cover.
    pub fn accounted_shares(&self) -> Vec<f64> {
        let own = self.self_times();
        self.spans
            .iter()
            .zip(own)
            .filter(|(span, _)| span.parent.is_none() && span.name == ROOT)
            .map(|(span, own)| 1.0 - own.as_secs_f64() / span.duration().as_secs_f64())
            .collect()
    }

    /// One JSON object per span: id, request, parent, name, start and end
    /// in nanoseconds since the tracer was made.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                line,
                "{{\"id\":{},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// The root span of a traced request.
pub const ROOT: &str = "wire.request";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_durations() {
        let mut tracer = Tracer::new();
        let t = tracer.epoch;
        let ms = Duration::from_millis;
        let root = tracer.record(0, None, ROOT, t, t + ms(10));
        // Replays happen after the round trip; the link is by parent id.
        let service = tracer.record(0, Some(root), "service.query_with", t + ms(10), t + ms(16));
        tracer.record(
            0,
            Some(service),
            "sparql.parse_query",
            t + ms(16),
            t + ms(17),
        );
        tracer.record(
            0,
            Some(service),
            "sparql.evaluate_with",
            t + ms(17),
            t + ms(21),
        );
        tracer.record(0, Some(root), "http.read_request", t + ms(21), t + ms(22));
        // Not part of the ladder: no parent, another name.
        tracer.record(0, None, "sparql.plan", t + ms(22), t + ms(23));

        let own = tracer.self_times_by_name();
        assert_eq!(own["service.query_with"], [0.001]);
        assert_eq!(own["sparql.evaluate_with"], [0.004]);
        assert_eq!(own[ROOT], [0.003]);
        assert!(!own.contains_key("dap.get_data"));
        let shares = tracer.accounted_shares();
        assert_eq!(shares.len(), 1);
        assert!((shares[0] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut tracer = Tracer::new();
        let (value, root) = tracer.time(7, None, ROOT, || 41 + 1);
        assert_eq!(value, 42);
        tracer.time(7, Some(root), "http.read_request", || ());
        let dir = crate::run::out_dir().join(format!("self-test-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = crate::json::parse(lines[1]).unwrap();
        assert_eq!(child.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(child.get("request").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            child.get("name").unwrap().as_str(),
            Some("http.read_request")
        );
        assert_eq!(
            crate::json::parse(lines[0]).unwrap().get("parent"),
            Some(&crate::json::Json::Null)
        );
    }
}
