//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (the engine itself is not instrumented), kept
//! in memory, and written out once at the end as a Perfetto
//! `trace_event` document through [`rrq_obs::TraceBuilder`]. A disabled
//! recorder does nothing, so the untraced run pays one branch per call.

use rrq_obs::json::Json;
use rrq_obs::TraceBuilder;
use std::time::Instant;

/// Id returned by [`Tracer::enter`] on a disabled recorder.
const OFF: usize = usize::MAX;

/// One closed span: name, start, end and the span open around it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        if id == OFF {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover (children never overlap, as one thread records).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total self time per span name, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let own = self.self_times();
        let mut by: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
        for (s, t) in self.spans.iter().zip(own) {
            let e = by.entry(s.name).or_default();
            e.0 += 1;
            e.1 += t;
        }
        by.into_iter().map(|(n, (c, t))| (n, c, t)).collect()
    }

    /// The spans as a Perfetto `trace_event` document: one complete
    /// slice per span, carrying its id, self time and parent id in `args`
    /// (`u64::MAX` for a span with no parent).
    pub fn to_perfetto(&self, process: &str) -> Json {
        let mut tb = TraceBuilder::new();
        tb.add_process_name(1, process);
        tb.add_thread_name(1, 1, "client");
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or(u64::MAX, |p| p as u64);
            tb.add_slice(
                1,
                1,
                s.name,
                s.start_ns,
                s.dur_ns(),
                &[("id", i as u64), ("parent", parent), ("self_ns", own)],
            );
        }
        tb.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        let a = t.enter("a");
        let b = t.enter("b");
        let c = t.enter("c");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(c);
        t.exit(b);
        t.exit(a);
        let own = t.self_times();
        let s = t.spans();
        assert_eq!(own[2], s[2].dur_ns());
        assert_eq!(own[1], s[1].dur_ns() - s[2].dur_ns());
        assert_eq!(own[0], s[0].dur_ns() - s[1].dur_ns());
        assert_eq!(s[2].parent, Some(1));
        let doc = t.to_perfetto("test").to_compact();
        assert!(doc.contains("\"self_ns\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.enter("a");
        t.exit(a);
        assert!(t.spans().is_empty());
    }
}
