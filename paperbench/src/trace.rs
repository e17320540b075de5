//! In-memory span recorder.
//!
//! The benchmark wraps each call into a layer's public entry point in a
//! span: name (the layer's metric prefix), start, end, parent span and
//! trace id. Spans stay in memory while the workload runs and are
//! written out once it ends. A disabled tracer records nothing, so the
//! untraced run pays one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `json.parse` or `query.optimize`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Trace id shared by every span of one request (one session for the
    /// case-study workload, whose requests share a warm engine).
    pub request: u64,
    /// Input bytes the call consumed, for parse layers; 0 otherwise.
    pub bytes: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; does nothing otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
            bytes: 0,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id`, and any span still open inside it (left open by a
    /// call that returned early or panicked).
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let end = self.now_ns();
        assert!(self.open.contains(&index), "span {index} is not open");
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end;
            if open == index {
                break;
            }
        }
    }

    /// Closes a span under a name known only once the call returned (a
    /// `check` that turned out infeasible).
    pub fn exit_as(&mut self, id: SpanId, name: &'static str) {
        if let Some(index) = id.0 {
            self.spans[index].name = name;
        }
        self.exit(id);
    }

    /// Records the input size of an open or closed span.
    pub fn set_bytes(&mut self, id: SpanId, bytes: usize) {
        if let Some(index) = id.0 {
            self.spans[index].bytes = bytes as u64;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span, its duration minus the part of it that its children
    /// cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// The spans as JSON lines, one object per span, each tagged with the
    /// workload that recorded it.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (index, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{index},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"bytes\":{}}}",
                span.name, span.request, span.start_ns, span.end_ns, span.bytes
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {}
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.enter("a", 0);
        tracer.set_bytes(id, 10);
        tracer.exit(id);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let root = tracer.enter("root", 7);
        let child = tracer.enter("child", 7);
        busy(2_000);
        tracer.exit(child);
        busy(1_000);
        tracer.exit_as(root, "renamed");
        let spans = tracer.spans();
        assert_eq!(spans[0].name, "renamed");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        let self_times = tracer.self_times_ns();
        assert_eq!(self_times[1], spans[1].duration_ns());
        assert_eq!(
            self_times[0],
            spans[0].duration_ns() - spans[1].duration_ns()
        );
        assert!(self_times[0] >= 1_000_000);
        assert_eq!(tracer.to_jsonl("w").lines().count(), 2);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("outer", 0);
        let _inner = tracer.enter("inner", 0);
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans[0].end_ns, spans[1].end_ns);
        assert!(spans[1].end_ns >= spans[1].start_ns);
        let again = tracer.enter("next", 1);
        assert_eq!(tracer.spans()[2].parent, None);
        tracer.exit(again);
    }
}
