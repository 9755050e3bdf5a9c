//! Proves the `NoopRecorder` path allocates nothing: instrumentation on
//! untraced queries must be free, and "free" includes the heap. The
//! flight-recorder hot path (`FlightRecorder::record`) is pinned to the
//! same standard here; `ring_alloc.rs` re-pins it through the
//! `alloc-track` feature's own counting allocator.
//!
//! The tally is per thread: libtest runs this file's tests concurrently,
//! and a process-wide count would book a sibling test's allocations
//! inside the measured window.

use rrq_obs::{span, timed_leaf, FlightRecord, FlightRecorder, NoopRecorder, QueryKind, Recorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: a pure pass-through to `System`, which upholds the
// `GlobalAlloc` contract; the extra work is one thread-local increment.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System.alloc` with the layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: during thread teardown the slot may be gone; such
        // late allocations belong to no measured window.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    // SAFETY: delegates to `System.dealloc` with the caller's pointer
    // and layout unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn noop_path_is_allocation_free() {
    let rec = NoopRecorder;
    // Warm anything lazy (e.g. test-harness buffers) before measuring.
    let warm = {
        let _g = span(&rec, "warmup");
        timed_leaf(&rec, "leaf", || 1u64)
    };
    assert_eq!(warm, 1);

    let before = allocations();
    let mut acc = 0u64;
    for i in 0..10_000u64 {
        let _q = span(&rec, "query");
        {
            let _f = span(&rec, "filter");
            acc = acc.wrapping_add(timed_leaf(&rec, "refine", || i * 3));
            rec.add_ns("dot", i);
        }
        rec.add_count("pairs", 1);
    }
    let after = allocations();
    assert!(std::hint::black_box(acc) > 0);
    assert_eq!(
        after - before,
        0,
        "NoopRecorder instrumentation allocated {} times",
        after - before
    );
}

#[test]
fn flight_recorder_capture_is_allocation_free() {
    // The ring's storage is fixed at construction; depositing a record
    // afterwards is a mutex lock plus a `Copy` — the query hot path must
    // not pay a heap allocation for its own black box.
    let ring = FlightRecorder::new(256);
    // Warm: first record plus anything lazy in the harness.
    ring.record(FlightRecord::default());

    let before = allocations();
    for i in 0..10_000u64 {
        ring.record(FlightRecord {
            kind: if i % 2 == 0 {
                QueryKind::Rtk
            } else {
                QueryKind::Rkr
            },
            cell: (i % 97) as u32,
            k: 10,
            start_ns: i * 1000,
            total_ns: 1000 + i,
            multiplications: i * 3,
            results: i % 7,
            ..FlightRecord::default()
        });
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "flight-recorder capture allocated {} times",
        after - before
    );
    assert_eq!(ring.recorded(), 10_001);
}

#[test]
fn dyn_noop_path_is_allocation_free() {
    // The algorithms receive `&dyn Recorder` at trait-object boundaries;
    // the no-op discipline must hold there too (enabled() gates clock
    // reads even when the call itself is virtual).
    let rec: &dyn Recorder = &NoopRecorder;
    let warm = {
        let _g = span(&rec, "warmup");
        0u64
    };
    assert_eq!(warm, 0);

    let before = allocations();
    for i in 0..10_000u64 {
        let _q = span(&rec, "query");
        rec.add_ns("dot", i);
        rec.add_count("pairs", 1);
    }
    let after = allocations();
    assert_eq!(after - before, 0, "dyn no-op path allocated");
}
