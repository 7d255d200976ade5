//! In-memory spans for the traced run: name, start, end, parent and
//! request id, kept in a flat vector and written out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans. `enter` opens a span under the innermost open
/// one; `exit` closes it.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with request id `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        // Stamp last, so the bookkeeping above is outside the span.
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
        self.spans[id].duration_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Serialises every span (with its self time) as a JSON array.
    pub fn to_json(&self) -> String {
        let own = self_times(&self.spans);
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns, own[i]
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (saturating at zero).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Durations in µs grouped by span name.
pub fn durations_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
    }
    by_name
}

/// Cost of one enter/exit pair in ns, measured on a scratch tracer.
pub fn overhead_ns_per_span() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::new();
    let start = Instant::now();
    for _ in 0..N {
        let id = t.enter("overhead");
        t.exit(id);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("compile", 35, 55, Some(2)),
            span("replay", 55, 85, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 20, 30]);
    }

    #[test]
    fn self_time_saturates_when_children_overrun() {
        let spans = vec![span("outer", 0, 10, None), span("inner", 0, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 15]);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut t = Tracer::new();
        t.set_request(7);
        let outer = t.enter("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
