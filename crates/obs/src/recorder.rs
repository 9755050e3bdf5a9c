//! The [`Recorder`] trait, its no-op and collecting implementations, and
//! RAII span guards.
//!
//! Algorithms are generic over `R: Recorder + ?Sized`; the benchmark
//! harness passes a [`MetricsRecorder`] (through `&dyn Recorder`), while
//! the plain query entry points pass [`NoopRecorder`]. Because
//! `NoopRecorder::enabled()` is a monomorphised `false`, every guard,
//! timestamp and accumulation folds away on the untraced hot path — no
//! clock reads, no allocation, no branch left behind.
//!
//! Span discipline: guards must nest like scopes (RAII guarantees this
//! when spans are bound to `let _guard`). Sibling spans with the same
//! name aggregate; the result is a *merged phase tree* per recorder, not
//! one record per dynamic span.

use crate::span::{PhaseStat, SpanNode, SpanTree};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sink for hierarchical phase timings and named counters.
///
/// All methods take `&self`: implementations use interior mutability so
/// RAII guards can coexist with the `&mut QueryStats` threading used for
/// machine-independent counters.
pub trait Recorder {
    /// Whether this recorder collects anything. Instrumentation sites
    /// branch on this before reading clocks, so a `false` here (inlined
    /// for concrete types) makes tracing free.
    fn enabled(&self) -> bool;

    /// Opens a child span of the current span. Balanced by
    /// [`Recorder::span_exit`]; use [`span`] / [`span!`] rather than
    /// calling this directly.
    fn span_enter(&self, name: &'static str);

    /// Closes the innermost span, attributing `elapsed_ns` to it.
    fn span_exit(&self, elapsed_ns: u64);

    /// Accumulates `ns` into a leaf phase named `name` under the current
    /// span, without the enter/exit pair — the cheap primitive for hot
    /// leaves (e.g. per-pair refinement) on traced runs.
    fn add_ns(&self, name: &'static str, ns: u64);

    /// Adds `n` to the named free-form counter.
    fn add_count(&self, name: &'static str, n: u64);

    /// The per-worker handoff for intra-query parallelism: a view of this
    /// recorder that is safe to share across worker threads, or `None`
    /// when the implementation is single-threaded.
    ///
    /// Parallel engines receive `&dyn Recorder` through the `*_traced`
    /// query traits and cannot hand it to worker threads; a
    /// recorder that *is* thread-safe (the shard-per-thread
    /// [`crate::SharedRecorder`], or the free [`NoopRecorder`]) returns
    /// `Some(self)` here so every worker can record into it directly.
    /// Single-threaded sinks ([`MetricsRecorder`]) return `None`, telling
    /// the engine to fall back to a sequential traced pass — results are
    /// unaffected either way.
    fn as_sync(&self) -> Option<&(dyn Recorder + Sync)> {
        None
    }
}

/// Forwarding impl so generic instrumentation sites accept `&R` and
/// `&dyn Recorder` alike.
impl<T: Recorder + ?Sized> Recorder for &T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    #[inline]
    fn span_enter(&self, name: &'static str) {
        (**self).span_enter(name)
    }
    #[inline]
    fn span_exit(&self, elapsed_ns: u64) {
        (**self).span_exit(elapsed_ns)
    }
    #[inline]
    fn add_ns(&self, name: &'static str, ns: u64) {
        (**self).add_ns(name, ns)
    }
    #[inline]
    fn add_count(&self, name: &'static str, n: u64) {
        (**self).add_count(name, n)
    }
    #[inline]
    fn as_sync(&self) -> Option<&(dyn Recorder + Sync)> {
        (**self).as_sync()
    }
}

/// The do-nothing recorder used by untraced query paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn span_enter(&self, _name: &'static str) {}
    #[inline(always)]
    fn span_exit(&self, _elapsed_ns: u64) {}
    #[inline(always)]
    fn add_ns(&self, _name: &'static str, _ns: u64) {}
    #[inline(always)]
    fn add_count(&self, _name: &'static str, _n: u64) {}
    #[inline(always)]
    fn as_sync(&self) -> Option<&(dyn Recorder + Sync)> {
        Some(self)
    }
}

/// RAII guard produced by [`span`]: times its own scope and reports to
/// the recorder on drop. Holds no timestamp (and reads no clock) when the
/// recorder is disabled.
#[must_use = "a span guard times the scope it is bound to; bind it to a variable"]
pub struct SpanGuard<'a, R: Recorder + ?Sized> {
    rec: &'a R,
    start: Option<Instant>,
}

impl<R: Recorder + ?Sized> Drop for SpanGuard<'_, R> {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.rec.span_exit(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Opens a named span on `rec`, returning the guard that closes it.
#[inline]
pub fn span<'a, R: Recorder + ?Sized>(rec: &'a R, name: &'static str) -> SpanGuard<'a, R> {
    if rec.enabled() {
        rec.span_enter(name);
        SpanGuard {
            rec,
            start: Some(Instant::now()),
        }
    } else {
        SpanGuard { rec, start: None }
    }
}

/// Opens a span bound to the enclosing scope:
/// `let _g = span!(rec, "gir/refine");`
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr) => {
        $crate::span($rec, $name)
    };
}

/// Times `ns` spent in closure `f` into leaf phase `name` when the
/// recorder is enabled; calls `f` untimed otherwise.
#[inline]
pub fn timed_leaf<R: Recorder + ?Sized, T>(
    rec: &R,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    if rec.enabled() {
        let start = Instant::now();
        let out = f();
        rec.add_ns(name, start.elapsed().as_nanos() as u64);
        out
    } else {
        f()
    }
}

#[derive(Debug)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    total_ns: u64,
    calls: u64,
}

/// The span-tree arena shared by [`MetricsRecorder`] and the per-thread
/// shards of [`crate::SharedRecorder`]: a merged tree of named spans plus
/// the stack of currently open ones.
#[derive(Debug)]
pub(crate) struct SpanArena {
    /// Arena of span nodes; index 0 is the synthetic root.
    nodes: Vec<Node>,
    /// Stack of open spans (indices into `nodes`); never empty.
    stack: Vec<usize>,
}

impl Default for SpanArena {
    fn default() -> Self {
        Self {
            nodes: vec![Node {
                name: "",
                children: Vec::new(),
                total_ns: 0,
                calls: 0,
            }],
            stack: vec![0],
        }
    }
}

impl SpanArena {
    fn child_of(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&c) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return c;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name,
            children: Vec::new(),
            total_ns: 0,
            calls: 0,
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    pub(crate) fn enter(&mut self, name: &'static str) {
        // rrq-lint: allow(no-unwrap-in-lib) -- the root node is pushed at construction and never popped
        let parent = *self.stack.last().expect("stack holds root");
        let idx = self.child_of(parent, name);
        self.stack.push(idx);
    }

    pub(crate) fn exit(&mut self, elapsed_ns: u64) {
        if self.stack.len() > 1 {
            // rrq-lint: allow(no-unwrap-in-lib) -- guarded by the len() > 1 check on the previous line
            let idx = self.stack.pop().expect("non-empty");
            self.nodes[idx].total_ns += elapsed_ns;
            self.nodes[idx].calls += 1;
        }
        // An unbalanced exit (guard misuse) is ignored rather than
        // corrupting the root.
    }

    pub(crate) fn add_leaf_ns(&mut self, name: &'static str, ns: u64) {
        // rrq-lint: allow(no-unwrap-in-lib) -- the root node is pushed at construction and never popped
        let parent = *self.stack.last().expect("stack holds root");
        let idx = self.child_of(parent, name);
        self.nodes[idx].total_ns += ns;
        self.nodes[idx].calls += 1;
    }

    /// Owned snapshot of the merged tree built so far.
    pub(crate) fn snapshot(&self) -> SpanTree {
        fn build(arena: &SpanArena, idx: usize) -> SpanNode {
            let n = &arena.nodes[idx];
            SpanNode {
                name: n.name.to_string(),
                total_ns: n.total_ns,
                calls: n.calls,
                children: n.children.iter().map(|&c| build(arena, c)).collect(),
            }
        }
        SpanTree {
            roots: self.nodes[0]
                .children
                .iter()
                .map(|&c| build(self, c))
                .collect(),
        }
    }
}

/// A collecting [`Recorder`]: aggregates spans into a merged phase tree
/// and keeps named counters. Single-threaded (interior mutability via
/// `RefCell`), matching the per-run usage of the benchmark harness; for
/// concurrent collection use [`crate::SharedRecorder`].
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    arena: RefCell<SpanArena>,
    counts: RefCell<BTreeMap<&'static str, u64>>,
}

impl MetricsRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the merged span tree.
    pub fn span_tree(&self) -> SpanTree {
        self.arena.borrow().snapshot()
    }

    /// Flattened phase rows (preorder, `a/b/c` paths) with self-times.
    pub fn phases(&self) -> Vec<PhaseStat> {
        self.span_tree().flatten()
    }

    /// Snapshot of the free-form counters.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counts
            .borrow()
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// One counter by name (`None` if it never fired) — same shape as
    /// [`crate::SharedRecorder::counter`], so tests comparing a
    /// sequential run against a shard-merged one read identically.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counts.borrow().get(name).copied()
    }
}

impl Recorder for MetricsRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn span_enter(&self, name: &'static str) {
        self.arena.borrow_mut().enter(name);
    }

    fn span_exit(&self, elapsed_ns: u64) {
        self.arena.borrow_mut().exit(elapsed_ns);
    }

    fn add_ns(&self, name: &'static str, ns: u64) {
        self.arena.borrow_mut().add_leaf_ns(name, ns);
    }

    fn add_count(&self, name: &'static str, n: u64) {
        *self.counts.borrow_mut().entry(name).or_insert(0) += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_inert() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        {
            let _g = span(&rec, "phase");
            rec.add_ns("leaf", 123);
            rec.add_count("c", 1);
        }
        // Nothing observable — and nothing to observe it with, which is
        // the point. The allocation-freedom of this path is asserted by
        // the `noop_alloc` integration test with a counting allocator.
    }

    #[test]
    fn spans_nest_and_aggregate_by_name() {
        let rec = MetricsRecorder::new();
        for _ in 0..3 {
            let _q = span(&rec, "query");
            {
                let _f = span(&rec, "filter");
                rec.add_ns("refine", 10);
            }
            {
                let _f = span(&rec, "filter"); // same name: merges
            }
        }
        let tree = rec.span_tree();
        assert_eq!(tree.roots.len(), 1);
        let q = &tree.roots[0];
        assert_eq!(q.name, "query");
        assert_eq!(q.calls, 3);
        assert_eq!(q.children.len(), 1, "filter spans merged");
        let f = &q.children[0];
        assert_eq!(f.name, "filter");
        assert_eq!(f.calls, 6);
        let r = &f.children[0];
        assert_eq!((r.name.as_str(), r.calls, r.total_ns), ("refine", 3, 30));
    }

    #[test]
    fn child_time_is_bounded_by_parent_time() {
        let rec = MetricsRecorder::new();
        {
            let _outer = span(&rec, "outer");
            let _inner = span(&rec, "inner");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let tree = rec.span_tree();
        let outer = &tree.roots[0];
        let inner = &outer.children[0];
        assert!(
            inner.total_ns <= outer.total_ns,
            "inner {} > outer {}",
            inner.total_ns,
            outer.total_ns
        );
    }

    #[test]
    fn timed_leaf_attributes_under_current_span() {
        let rec = MetricsRecorder::new();
        let out = {
            let _g = span(&rec, "scan");
            timed_leaf(&rec, "refine", || 7u32)
        };
        assert_eq!(out, 7);
        let phases = rec.phases();
        assert!(phases.iter().any(|p| p.path == "scan/refine"));
    }

    #[test]
    fn counters_accumulate() {
        let rec = MetricsRecorder::new();
        rec.add_count("nodes", 5);
        rec.add_count("nodes", 7);
        rec.add_count("leaves", 1);
        assert_eq!(
            rec.counters(),
            vec![("leaves".to_string(), 1), ("nodes".to_string(), 12)]
        );
    }

    #[test]
    fn as_sync_handoff_matches_thread_safety() {
        // Noop is freely shareable; the RefCell-based MetricsRecorder is
        // not; and the handoff must survive &dyn indirection (the shape
        // parallel engines actually receive).
        assert!(NoopRecorder.as_sync().is_some());
        let metrics = MetricsRecorder::new();
        assert!(metrics.as_sync().is_none());
        let dynamic: &dyn Recorder = &metrics;
        assert!(dynamic.as_sync().is_none());
        let dyn_noop: &dyn Recorder = &NoopRecorder;
        let sync = dyn_noop.as_sync().expect("noop hands off");
        assert!(!sync.enabled());
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let rec = MetricsRecorder::new();
        rec.span_exit(999); // no matching enter: must not corrupt state
        let _g = span(&rec, "ok");
        drop(_g);
        assert_eq!(rec.span_tree().roots.len(), 1);
    }
}
