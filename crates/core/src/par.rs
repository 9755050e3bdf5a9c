//! Parallel query engine for GIR.
//!
//! [`ParGir`] answers a *single* reverse top-k / reverse k-ranks query
//! with several workers, each scanning a contiguous shard of the weight
//! set `W` with its own `Domin` buffer, scratch rows and [`QueryStats`].
//! Per-weight work is embarrassingly parallel — a weight's rank count
//! depends only on `(w, q, P)` — so sharding `W` and merging shard
//! outputs canonically reproduces the sequential answer **byte for
//! byte**:
//!
//! * RTK: membership of each weight is independent; the merged,
//!   canonically sorted id list equals the sequential one. The Alg. 2
//!   "`k` dominators ⇒ empty" exit is safe per worker, because `Domin`
//!   membership is a property of `(p, q)` alone: `k` dominators force
//!   every weight's rank to at least `k`, so the *global* result is
//!   empty whenever any worker saturates.
//! * RKR: each worker keeps a local [`KBestHeap`] over its shard; a
//!   k-best heap retains exactly the `k` lexicographically smallest
//!   `(rank, weight_id)` pairs offered, so merging shard heaps
//!   ([`KBestHeap::merge`]) yields the exact k-best of the union. A
//!   worker's scan bound (its local heap threshold) is always at least
//!   the global k-th rank, hence never skips a global top-k entry.
//!
//! Every shard runs the sequential engine's own weight loops
//! (`Gir::rtk_scan` / `Gir::rkr_scan`) in epoch rounds. The one knob
//! is the epoch length ([`BoundMode`]): workers scan `N` weights of
//! their shard under a *frozen* snapshot of the merged cross-shard
//! bound, then exchange fresh bounds at a barrier-synchronised
//! [`EpochSync`]. Because every worker reads the merged bound only after
//! *all* workers published their epoch-`r` value (and before any
//! publishes epoch `r+1` — two barriers per boundary), the bound each
//! weight is scanned under is a pure function of `(data, query, shards,
//! epoch)`: counters are exactly reproducible run-to-run and
//! `rrq-benchdiff` gates them at its default zero counter tolerance.
//! [`BoundMode::Local`] is one round with no exchange — worker-local
//! bounds only.
//!
//! Execution substrate: shard jobs always run on a [`WorkerPool`].
//! [`ParGir::with_pool`] attaches a persistent pool, amortising
//! spawn/join across a query batch; its jobs must outlive the query, so
//! they own their per-query state and run under the [`NoopRecorder`]
//! (the engine books `par.pool_reuse` / `par.epoch_syncs` on the
//! caller's recorder). Without one, each query builds a one-query
//! [`pool_scope`] whose jobs borrow the caller's recorder, so traced
//! runs keep per-worker spans. Shard decomposition, merge order and
//! counters are identical on both — the differential harness in
//! `tests/par_equivalence.rs` pins that.
//!
//! Tracing: the untraced entry points run workers under the (trivially
//! `Sync`) [`NoopRecorder`]. The traced ones ask the recorder for a
//! thread-safe view via [`Recorder::as_sync`]; recorders that cannot
//! cross threads (e.g. the `RefCell`-based `MetricsRecorder`) make the
//! engine fall back to the sequential path — still traced, still exact —
//! after booking one `par.sequential_fallback` count. The same counter
//! is booked when a pool is attached but cannot host a parallel query
//! (0/1 workers, or a 1-thread configuration).

use crate::gir::{Gir, ScanBuffers};
use crate::grid::{Grid, GridTable};
use crate::pool::{pool_scope, WorkerPool};
use rrq_obs::{
    span, BoundSource, ExplainDoc, ExplainSink, NoopRecorder, NoopSink, QueryKind, Recorder,
};
use rrq_types::{KBestHeap, QueryStats, RkrQuery, RkrResult, RtkQuery, RtkResult, WeightId};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// How workers share scan bounds across shards. See the module docs for
/// the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundMode {
    /// Worker-local bounds only: one round per shard, no exchange.
    Local,
    /// Frozen cross-shard bound refreshed every `N` shard weights at
    /// barrier-synchronised boundaries: cross-shard pruning with
    /// reproducible counters. `N` is clamped to at least 1.
    Epoch(usize),
}

impl BoundMode {
    /// Shard weights scanned between exchanges (`usize::MAX` = never).
    fn epoch_len(self) -> usize {
        match self {
            BoundMode::Local => usize::MAX,
            BoundMode::Epoch(every) => every.max(1),
        }
    }
}

/// Configuration of the parallel query engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Worker threads per query. `0` and `1` both mean "run the
    /// sequential engine on the calling thread".
    pub threads: usize,
    /// Cross-shard bound sharing mode.
    pub mode: BoundMode,
}

impl ParConfig {
    /// Worker-local bounds with an explicit thread count.
    pub fn deterministic(threads: usize) -> Self {
        Self {
            threads,
            mode: BoundMode::Local,
        }
    }

    /// Epoch-snapshot mode: exchange merged bounds every `every` shard
    /// weights (clamped to at least 1), adding cross-shard pruning.
    pub fn epoch(threads: usize, every: usize) -> Self {
        Self {
            threads,
            mode: BoundMode::Epoch(every.max(1)),
        }
    }
}

/// Locks an engine mutex. Epoch slots and barrier state are held only
/// for a few word writes, never across scanning, so poisoning means a
/// worker panicked mid-publish — propagate.
fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // rrq-lint: allow(no-unwrap-in-lib) -- a poisoned epoch mutex means a worker panicked; re-raise it
    mutex.lock().expect("epoch mutex poisoned")
}

/// Per-worker bound slots merged at epoch boundaries.
struct EpochSlots {
    /// Latest published RKR scan bound per worker (`usize::MAX` = none).
    bounds: Vec<usize>,
    /// Latest published RTK saturation per worker.
    saturated: Vec<bool>,
    /// Total boundary exchanges performed (for `par.epoch_syncs`).
    syncs: u64,
}

/// Rendezvous state of a [`PoisonBarrier`].
struct BarrierState {
    /// Participants blocked on the current generation.
    arrived: usize,
    /// Completed rendezvous count; waking waiters compare against it to
    /// tell a real release from a spurious condvar wakeup.
    generation: u64,
    /// Set when a participant unwound; pending and future waiters panic
    /// instead of waiting for a peer that will never arrive.
    poisoned: bool,
}

/// A reusable rendezvous like `std::sync::Barrier`, plus [`poison`]
/// (Self::poison): a participant that unwinds mid-protocol marks the
/// barrier, and every peer blocked (or about to block) in [`wait`]
/// (Self::wait) panics out instead of deadlocking on the missing
/// arrival. That panic unwinds through the worker like any shard panic:
/// the pool's `catch_unwind` turns it into [`PoolError::JobPanicked`]
/// (crate::pool::PoolError::JobPanicked).
struct PoisonBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    workers: usize,
}

const EPOCH_PEER_PANICKED: &str =
    "epoch-snapshot peer panicked; abandoning the barrier-coupled scan";

impl PoisonBarrier {
    fn new(workers: usize) -> Self {
        Self {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
            workers,
        }
    }

    /// Blocks until all `workers` participants arrive. Panics if the
    /// barrier is — or becomes, while waiting — poisoned.
    fn wait(&self) {
        let mut st = locked(&self.state);
        if st.poisoned {
            panic!("{EPOCH_PEER_PANICKED}");
        }
        st.arrived += 1;
        if st.arrived == self.workers {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            return;
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            // rrq-lint: allow(no-unwrap-in-lib) -- only this module locks the barrier mutex and never panics under it
            st = self.cv.wait(st).expect("epoch barrier mutex poisoned");
        }
        if st.poisoned {
            panic!("{EPOCH_PEER_PANICKED}");
        }
    }

    /// Marks the barrier poisoned and wakes every waiter. Called during
    /// unwind, so it must not panic itself: a poisoned mutex is taken
    /// over instead of re-raised (the flag write is a single bool).
    fn poison(&self) {
        let mut st = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        st.poisoned = true;
        self.cv.notify_all();
    }
}

/// Barrier-coupled snapshot exchange for [`BoundMode::Epoch`].
///
/// The double barrier is what makes the protocol deterministic: after
/// the first rendezvous every worker's epoch-`r` value is visible and
/// *frozen*; all workers then read the same merged snapshot; the second
/// rendezvous keeps any fast worker from publishing its epoch-`r+1`
/// value before a slow worker finished reading epoch `r`.
///
/// Every epoch worker must arm a [`panic_guard`](Self::panic_guard)
/// before its first [`exchange`](Self::exchange): if the worker unwinds,
/// the guard poisons the underlying [`PoisonBarrier`] so peers panic out
/// of the protocol instead of hanging on a rendezvous that can never
/// complete.
struct EpochSync {
    barrier: PoisonBarrier,
    slots: Mutex<EpochSlots>,
}

/// RAII token tying a worker's participation in an [`EpochSync`] to its
/// unwind path: dropped during a panic, it poisons the sync's barrier.
struct EpochPanicGuard<'a> {
    sync: &'a EpochSync,
}

impl Drop for EpochPanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.sync.barrier.poison();
        }
    }
}

impl EpochSync {
    fn new(workers: usize) -> Self {
        Self {
            barrier: PoisonBarrier::new(workers),
            slots: Mutex::new(EpochSlots {
                bounds: vec![usize::MAX; workers],
                saturated: vec![false; workers],
                syncs: 0,
            }),
        }
    }

    /// Arms the unwind-to-poison coupling for one worker; hold the guard
    /// for the whole scan (see the type docs).
    fn panic_guard(&self) -> EpochPanicGuard<'_> {
        EpochPanicGuard { sync: self }
    }

    /// Publishes worker `me`'s state, rendezvouses with every other
    /// worker, and returns the merged `(min bound, any saturated)`
    /// snapshot of this boundary. Panics if a peer panicked (see
    /// [`PoisonBarrier`]).
    fn exchange(&self, me: usize, bound: usize, saturated: bool) -> (usize, bool) {
        {
            let mut slots = locked(&self.slots);
            slots.bounds[me] = bound;
            slots.saturated[me] = saturated;
            slots.syncs += 1;
        }
        self.barrier.wait();
        let snapshot = {
            let slots = locked(&self.slots);
            (
                slots.bounds.iter().copied().min().unwrap_or(usize::MAX),
                slots.saturated.iter().any(|&s| s),
            )
        };
        self.barrier.wait();
        snapshot
    }

    /// Boundary exchanges performed so far (summed over workers).
    fn syncs(&self) -> u64 {
        locked(&self.slots).syncs
    }
}

/// The sub-range of `range` a worker scans in epoch `round`
/// (saturating: `every` may be `usize::MAX`). Empty once the shard is
/// exhausted — the worker then only participates in the barriers.
fn epoch_chunk(range: &Range<usize>, round: usize, every: usize) -> Range<usize> {
    let lo = range
        .start
        .saturating_add(round.saturating_mul(every))
        .min(range.end);
    let hi = range
        .start
        .saturating_add(round.saturating_add(1).saturating_mul(every))
        .min(range.end);
    lo..hi
}

/// Number of barrier-coupled scan rounds for the given shards: every
/// worker runs the same count (idling on short shards), otherwise the
/// barriers would deadlock.
fn epoch_rounds(shards: &[Range<usize>], epoch: usize) -> usize {
    let longest = shards.iter().map(|r| r.len()).max().unwrap_or(0);
    longest.div_ceil(epoch.max(1)).max(1)
}

/// A [`Gir`] instance wrapped with intra-query parallel execution.
///
/// Construct with [`Gir::parallel`] or [`ParGir::new`]; answers the same
/// [`RtkQuery`] / [`RkrQuery`] traits with byte-identical results.
/// Attach a persistent [`WorkerPool`] with [`ParGir::with_pool`] to
/// amortise thread spawn/join across a query batch.
///
/// ```
/// use rrq_core::{Gir, ParConfig};
/// use rrq_types::{PointSet, WeightSet, QueryStats, RtkQuery};
///
/// let products = PointSet::from_flat(2, 10.0, &[1.0, 9.0, 8.0, 2.0])?;
/// let users = WeightSet::from_flat(2, &[0.9, 0.1, 0.1, 0.9])?;
/// let gir = Gir::with_defaults(&products, &users);
/// let par = gir.parallel(ParConfig::deterministic(2));
///
/// let mut s1 = QueryStats::default();
/// let mut s2 = QueryStats::default();
/// let q = [1.0, 9.0];
/// assert_eq!(
///     par.reverse_top_k(&q, 1, &mut s1),
///     gir.reverse_top_k(&q, 1, &mut s2),
/// );
/// # Ok::<(), rrq_types::RrqError>(())
/// ```
pub struct ParGir<'p, 'a, G: GridTable = Grid> {
    gir: &'a Gir<'a, G>,
    config: ParConfig,
    /// Persistent execution substrate; `None` builds a one-query pool
    /// per query. The pool's environment lifetime must equal `'a` (the
    /// index borrow) because pooled jobs carry the index reference.
    pool: Option<&'p WorkerPool<'a>>,
}

impl<'a, G: GridTable> Gir<'a, G> {
    /// Wraps this instance with the parallel query engine.
    pub fn parallel(&'a self, config: ParConfig) -> ParGir<'a, 'a, G> {
        ParGir {
            gir: self,
            config,
            pool: None,
        }
    }
}

impl<'p, 'a, G: GridTable> ParGir<'p, 'a, G> {
    /// See [`Gir::parallel`].
    pub fn new(gir: &'a Gir<'a, G>, config: ParConfig) -> ParGir<'a, 'a, G> {
        gir.parallel(config)
    }

    /// Dispatches queries to `pool`'s persistent workers instead of a
    /// one-query pool. The effective worker count becomes
    /// `min(config.threads, pool.workers())`; a pool with fewer than two
    /// workers routes queries through the sequential engine (booking
    /// `par.sequential_fallback` on traced runs).
    pub fn with_pool<'q>(self, pool: &'q WorkerPool<'a>) -> ParGir<'q, 'a, G> {
        ParGir {
            gir: self.gir,
            config: self.config,
            pool: Some(pool),
        }
    }

    /// [`ParGir::with_pool`] that tolerates an absent pool — handy for
    /// callers whose pool is itself optional (e.g. the bench runner).
    pub fn with_pool_opt<'q>(self, pool: Option<&'q WorkerPool<'a>>) -> ParGir<'q, 'a, G> {
        ParGir {
            gir: self.gir,
            config: self.config,
            pool,
        }
    }

    /// The parallel configuration in effect.
    pub fn config(&self) -> ParConfig {
        self.config
    }

    /// The wrapped sequential instance.
    pub fn inner(&self) -> &'a Gir<'a, G> {
        self.gir
    }

    /// Contiguous shard ranges covering `0..nw` — fixed by `(nw,
    /// threads)` alone, which is what makes local- and epoch-mode
    /// counters reproducible.
    fn shards(nw: usize, threads: usize) -> Vec<Range<usize>> {
        let chunk = nw.div_ceil(threads);
        (0..threads)
            .map(|t| (t * chunk).min(nw)..((t + 1) * chunk).min(nw))
            .collect()
    }
}

/// One shard job's outcome, merged by the caller in worker-index order.
struct Shard<S> {
    /// RTK: the member weights found.
    members: Vec<WeightId>,
    /// RKR: the shard's k-best heap (RTK never offers to it).
    heap: KBestHeap,
    /// RTK: the shard saw `k` dominators (or the epoch snapshot reported
    /// a peer that did), so the global result is empty.
    saturated: bool,
    stats: QueryStats,
    sink: S,
}

impl<'a, G: GridTable + Sync> ParGir<'_, 'a, G> {
    /// Parallel GIRTop-k over a `Sync` recorder (monomorphised to
    /// [`NoopRecorder`] by the untraced entry point).
    fn rtk_par<R: Recorder + Sync + ?Sized, S: ExplainSink + Default + Send + 'a>(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> RtkResult {
        let Some(threads) = self.parallel_threads(rec) else {
            return self.gir.rtk_impl(q, k, stats, rec, sink);
        };
        self.gir
            .rtk_query(q, k, stats, rec, sink, |qa, stats, sink| {
                let mut members = Vec::new();
                let mut saturated = false;
                for shard in self.dispatch(QueryKind::Rtk, q, qa, k, threads, rec) {
                    stats.merge(&shard.stats);
                    saturated |= shard.saturated;
                    members.extend(shard.members);
                    sink.absorb(shard.sink);
                }
                (members, saturated)
            })
    }

    /// Parallel GIRk-Rank over a `Sync` recorder.
    fn rkr_par<R: Recorder + Sync + ?Sized, S: ExplainSink + Default + Send + 'a>(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> RkrResult {
        let Some(threads) = self.parallel_threads(rec) else {
            return self.gir.rkr_impl(q, k, stats, rec, sink);
        };
        self.gir
            .rkr_query(q, k, stats, rec, sink, |qa, stats, sink| {
                let mut heap = KBestHeap::new(k);
                for shard in self.dispatch(QueryKind::Rkr, q, qa, k, threads, rec) {
                    stats.merge(&shard.stats);
                    heap.merge(shard.heap);
                    sink.absorb(shard.sink);
                }
                heap
            })
    }

    /// The worker count of a parallel query — never more workers than
    /// weights, or than the attached pool has — or `None` when it runs on
    /// the sequential engine (booking `par.sequential_fallback` when an
    /// attached pool could not host it).
    fn parallel_threads<R: Recorder + ?Sized>(&self, rec: &R) -> Option<usize> {
        let mut threads = self.config.threads.min(self.gir.total_weights());
        if let Some(pool) = self.pool {
            threads = threads.min(pool.workers());
        }
        if threads > 1 {
            return Some(threads);
        }
        if self.pool.is_some() {
            rec.add_count("par.sequential_fallback", 1);
        }
        None
    }

    /// Runs one shard job per worker — on the attached pool, or on a
    /// one-query pool whose jobs may borrow `rec` — and returns the
    /// shards in worker-index order.
    fn dispatch<R: Recorder + Sync + ?Sized, S: ExplainSink + Default + Send + 'a>(
        &self,
        kind: QueryKind,
        q: &[f64],
        qa: &[u8],
        k: usize,
        threads: usize,
        rec: &R,
    ) -> Vec<Shard<S>> {
        let shards = Self::shards(self.gir.total_weights(), threads);
        let every = self.config.mode.epoch_len();
        let (out, epoch_syncs) = match self.pool {
            Some(pool) => {
                let reused = pool.stats().queries > 0;
                let out = run_shards(pool, self.gir, kind, q, qa, k, shards, every, &NoopRecorder);
                if reused {
                    rec.add_count("par.pool_reuse", 1);
                }
                out
            }
            None => pool_scope(threads, |pool| {
                run_shards(pool, self.gir, kind, q, qa, k, shards, every, rec)
            }),
        };
        if epoch_syncs > 0 {
            rec.add_count("par.epoch_syncs", epoch_syncs);
        }
        out
    }

    /// Parallel GIRTop-k with full pruning provenance (see
    /// [`Gir::reverse_top_k_explained`]). Shard sinks merge in
    /// worker-index order, so documents are reproducible run to run.
    pub fn reverse_top_k_explained(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        doc: &mut ExplainDoc,
    ) -> RtkResult {
        self.describe_into(doc);
        self.rtk_par(q, k, stats, &NoopRecorder, doc)
    }

    /// Parallel GIRk-Rank with full pruning provenance (see
    /// [`Self::reverse_top_k_explained`]).
    pub fn reverse_k_ranks_explained(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        doc: &mut ExplainDoc,
    ) -> RkrResult {
        self.describe_into(doc);
        self.rkr_par(q, k, stats, &NoopRecorder, doc)
    }

    fn describe_into(&self, doc: &mut ExplainDoc) {
        doc.set_engine("ParGir");
        doc.push_config("threads", &self.config.threads.to_string());
        let mode = match self.config.mode {
            BoundMode::Local => "local".to_string(),
            BoundMode::Epoch(every) => format!("epoch({every})"),
        };
        doc.push_config("mode", &mode);
        if self.pool.is_some() {
            doc.push_config("pool", "yes");
        }
    }
}

/// Submits one epoch-worker job per shard to `pool` and collects the
/// shards in submission order, plus the number of epoch exchanges.
/// Jobs own copies of the query (a persistent pool outlives it).
#[allow(clippy::too_many_arguments)]
fn run_shards<'env, G, R, S>(
    pool: &WorkerPool<'env>,
    gir: &'env Gir<'_, G>,
    kind: QueryKind,
    q: &[f64],
    qa: &[u8],
    k: usize,
    shards: Vec<Range<usize>>,
    every: usize,
    rec: &'env R,
) -> (Vec<Shard<S>>, u64)
where
    G: GridTable + Sync,
    R: Recorder + Sync + ?Sized,
    S: ExplainSink + Default + Send + 'env,
{
    let rounds = epoch_rounds(&shards, every);
    let sync = Arc::new(EpochSync::new(shards.len()));
    let jobs: Vec<Box<dyn FnOnce() -> Shard<S> + Send + 'env>> = shards
        .into_iter()
        .enumerate()
        .map(|(me, range)| {
            let (q, qa, sync) = (q.to_vec(), qa.to_vec(), Arc::clone(&sync));
            let job: Box<dyn FnOnce() -> Shard<S> + Send + 'env> = Box::new(move || {
                epoch_worker(gir, kind, &q, &qa, k, range, me, &sync, every, rounds, rec)
            });
            job
        })
        .collect();
    match pool.run(jobs) {
        Ok(out) => (out, sync.syncs()),
        Err(err) => panic!("parallel query failed on the worker pool: {err}"),
    }
}

/// One shard's scan: `rounds` epoch rounds of `every` weights, each
/// under the frozen snapshot of the previous boundary's merged bound.
/// Every worker runs the same round count (idling once its shard is
/// exhausted or saturated), so the barriers always pair up; a snapshot
/// reporting RTK saturation stops all workers at the same round, which
/// keeps counters deterministic. The merged minimum of the published
/// RKR heap thresholds is a sound global bound, since every local
/// threshold is at least the global k-th rank.
#[allow(clippy::too_many_arguments)]
fn epoch_worker<G, R, S>(
    gir: &Gir<'_, G>,
    kind: QueryKind,
    q: &[f64],
    qa: &[u8],
    k: usize,
    range: Range<usize>,
    me: usize,
    sync: &EpochSync,
    every: usize,
    rounds: usize,
    rec: &R,
) -> Shard<S>
where
    G: GridTable,
    R: Recorder + ?Sized,
    S: ExplainSink + Default,
{
    let _scan = span(rec, "scan");
    // If this worker panics anywhere in the scan, poison the sync so
    // barrier peers unwind too instead of hanging (see EpochSync docs).
    let _poison_on_unwind = sync.panic_guard();
    let mut buf = ScanBuffers::new(gir);
    let mut shard = Shard {
        members: Vec::new(),
        heap: KBestHeap::new(k),
        saturated: false,
        stats: QueryStats::default(),
        sink: S::default(),
    };
    let mut frozen = usize::MAX;
    for round in 0..rounds {
        let wids = epoch_chunk(&range, round, every);
        let (stats, sink) = (&mut shard.stats, &mut shard.sink);
        let bound = match kind {
            QueryKind::Rtk => {
                if !shard.saturated {
                    shard.saturated = gir.rtk_scan(
                        q,
                        qa,
                        k,
                        wids,
                        &mut buf,
                        &mut shard.members,
                        stats,
                        rec,
                        sink,
                    );
                }
                usize::MAX
            }
            QueryKind::Rkr => {
                gir.rkr_scan(
                    q,
                    qa,
                    wids,
                    frozen,
                    &mut buf,
                    &mut shard.heap,
                    stats,
                    rec,
                    sink,
                );
                shard.heap.threshold()
            }
        };
        if round + 1 == rounds {
            break;
        }
        let (min_bound, any_saturated) = sync.exchange(me, bound, shard.saturated);
        // Epoch events are deterministic and recorded against the round
        // number rather than a single weight.
        if any_saturated {
            if !shard.saturated && shard.sink.enabled() {
                let found = buf.dominators() as u64;
                shard
                    .sink
                    .bound_event(BoundSource::EpochExchange, round as u64, found, true);
            }
            shard.saturated = true;
            break;
        }
        if min_bound < frozen && shard.sink.enabled() {
            shard.sink.bound_event(
                BoundSource::EpochExchange,
                round as u64,
                min_bound as u64,
                false,
            );
        }
        frozen = min_bound;
    }
    shard
}

impl<G: GridTable + Sync> RtkQuery for ParGir<'_, '_, G> {
    /// Same label as the wrapped engine: the parallel engine answers the
    /// same algorithm, and benchmark run keys must line up between
    /// sequential and parallel documents.
    fn name(&self) -> &'static str {
        "GIR"
    }

    fn reverse_top_k(&self, q: &[f64], k: usize, stats: &mut QueryStats) -> RtkResult {
        self.rtk_par(q, k, stats, &NoopRecorder, &mut NoopSink)
    }

    fn reverse_top_k_traced(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &dyn Recorder,
    ) -> RtkResult {
        match rec.as_sync() {
            Some(sync_rec) => self.rtk_par(q, k, stats, sync_rec, &mut NoopSink),
            None => {
                rec.add_count("par.sequential_fallback", 1);
                self.gir.rtk_impl(q, k, stats, rec, &mut NoopSink)
            }
        }
    }
}

impl<G: GridTable + Sync> RkrQuery for ParGir<'_, '_, G> {
    fn name(&self) -> &'static str {
        "GIR"
    }

    fn reverse_k_ranks(&self, q: &[f64], k: usize, stats: &mut QueryStats) -> RkrResult {
        self.rkr_par(q, k, stats, &NoopRecorder, &mut NoopSink)
    }

    fn reverse_k_ranks_traced(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &dyn Recorder,
    ) -> RkrResult {
        match rec.as_sync() {
            Some(sync_rec) => self.rkr_par(q, k, stats, sync_rec, &mut NoopSink),
            None => {
                rec.add_count("par.sequential_fallback", 1);
                self.gir.rkr_impl(q, k, stats, rec, &mut NoopSink)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gir::GirConfig;
    use crate::pool::pool_scope;
    use rrq_data::synthetic;
    use rrq_obs::{MetricsRecorder, SharedRecorder};
    use rrq_types::{PointId, PointSet, WeightSet};

    fn workload(dim: usize, np: usize, nw: usize, seed: u64) -> (PointSet, WeightSet) {
        (
            synthetic::uniform_points(dim, np, 10_000.0, seed).unwrap(),
            synthetic::uniform_weights(dim, nw, seed + 1).unwrap(),
        )
    }

    fn gir_configs() -> Vec<GirConfig> {
        vec![
            GirConfig::default(),
            GirConfig {
                partitions: 4,
                ..Default::default()
            },
            GirConfig {
                use_domin: false,
                ..Default::default()
            },
            GirConfig {
                packed: true,
                ..Default::default()
            },
        ]
    }

    fn par_modes() -> Vec<ParConfig> {
        vec![
            ParConfig::deterministic(2),
            ParConfig::deterministic(3),
            ParConfig::deterministic(4),
            ParConfig::epoch(3, 1),
            ParConfig::epoch(4, 16),
            ParConfig::epoch(2, usize::MAX), // one round: equals Local
            ParConfig::deterministic(1),     // sequential delegation
        ]
    }

    #[test]
    fn parallel_results_are_byte_identical_to_sequential() {
        let (p, w) = workload(4, 300, 81, 31);
        for config in gir_configs() {
            let gir = Gir::new(&p, &w, config);
            for par_cfg in par_modes() {
                let par = gir.parallel(par_cfg);
                for qid in [0usize, 150, 299] {
                    let q = p.point(PointId(qid)).to_vec();
                    for k in [1usize, 5, 25] {
                        let mut sp = QueryStats::default();
                        let mut ss = QueryStats::default();
                        assert_eq!(
                            par.reverse_top_k(&q, k, &mut sp),
                            gir.reverse_top_k(&q, k, &mut ss),
                            "rtk {config:?} {par_cfg:?} q={qid} k={k}"
                        );
                        let mut sp = QueryStats::default();
                        let mut ss = QueryStats::default();
                        assert_eq!(
                            par.reverse_k_ranks(&q, k, &mut sp),
                            gir.reverse_k_ranks(&q, k, &mut ss),
                            "rkr {config:?} {par_cfg:?} q={qid} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_mode_counters_are_reproducible() {
        let (p, w) = workload(5, 400, 120, 32);
        let gir = Gir::with_defaults(&p, &w);
        for par_cfg in [ParConfig::deterministic(4), ParConfig::epoch(4, 16)] {
            let par = gir.parallel(par_cfg);
            let q = p.point(PointId(123)).to_vec();
            for _ in 0..3 {
                let mut first = QueryStats::default();
                let r1 = par.reverse_k_ranks(&q, 10, &mut first);
                let mut second = QueryStats::default();
                let r2 = par.reverse_k_ranks(&q, 10, &mut second);
                assert_eq!(r1, r2);
                assert_eq!(first, second, "{par_cfg:?} counters must not drift");
                let mut first = QueryStats::default();
                let r1 = par.reverse_top_k(&q, 10, &mut first);
                let mut second = QueryStats::default();
                let r2 = par.reverse_top_k(&q, 10, &mut second);
                assert_eq!(r1, r2);
                assert_eq!(first, second, "{par_cfg:?} counters must not drift");
            }
        }
    }

    #[test]
    fn epoch_mode_prunes_at_least_as_well_as_local_mode() {
        // The whole point of epoch snapshots: cross-shard bounds come
        // back (fewer points visited than local mode) without giving up
        // reproducibility. A tiny epoch at k=1 on a large P makes the
        // effect visible deterministically.
        let (p, w) = workload(4, 2_000, 64, 38);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(55)).to_vec();
        let mut local = QueryStats::default();
        let mut epoch = QueryStats::default();
        let r_local = gir
            .parallel(ParConfig::deterministic(4))
            .reverse_k_ranks(&q, 1, &mut local);
        let r_epoch = gir
            .parallel(ParConfig::epoch(4, 1))
            .reverse_k_ranks(&q, 1, &mut epoch);
        assert_eq!(r_local, r_epoch);
        assert!(
            epoch.points_visited <= local.points_visited,
            "epoch bounds must never scan more than local-only bounds \
             (epoch {} vs local {})",
            epoch.points_visited,
            local.points_visited
        );
    }

    #[test]
    fn sequential_delegation_reports_sequential_counters() {
        // threads <= 1 runs the sequential engine outright — even the
        // counters match, shard-reset artefacts included. Ditto 0.
        let (p, w) = workload(3, 200, 40, 33);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(7)).to_vec();
        for threads in [0usize, 1] {
            let par = gir.parallel(ParConfig::deterministic(threads));
            let mut sp = QueryStats::default();
            let mut ss = QueryStats::default();
            assert_eq!(
                par.reverse_k_ranks(&q, 5, &mut sp),
                gir.reverse_k_ranks(&q, 5, &mut ss)
            );
            assert_eq!(sp, ss);
        }
    }

    #[test]
    fn more_workers_than_weights() {
        let (p, w) = workload(3, 150, 5, 34);
        let gir = Gir::with_defaults(&p, &w);
        let par = gir.parallel(ParConfig::deterministic(16));
        let q = p.point(PointId(75)).to_vec();
        let mut sp = QueryStats::default();
        let mut ss = QueryStats::default();
        assert_eq!(
            par.reverse_top_k(&q, 3, &mut sp),
            gir.reverse_top_k(&q, 3, &mut ss)
        );
        let mut sp = QueryStats::default();
        let mut ss = QueryStats::default();
        assert_eq!(
            par.reverse_k_ranks(&q, 3, &mut sp),
            gir.reverse_k_ranks(&q, 3, &mut ss)
        );
    }

    #[test]
    fn saturated_and_edge_queries_match_sequential() {
        let (p, w) = workload(3, 500, 50, 35);
        let gir = Gir::with_defaults(&p, &w);
        for par_cfg in [ParConfig::deterministic(4), ParConfig::epoch(4, 4)] {
            let par = gir.parallel(par_cfg);
            // Dominated query: every shard saturates its Domin buffer.
            let dominated = vec![9_999.0; 3];
            let mut stats = QueryStats::default();
            assert!(par.reverse_top_k(&dominated, 10, &mut stats).is_empty());
            // k = 0.
            let q = p.point(PointId(0)).to_vec();
            let mut stats = QueryStats::default();
            assert!(par.reverse_top_k(&q, 0, &mut stats).is_empty());
            let mut stats = QueryStats::default();
            assert!(par.reverse_k_ranks(&q, 0, &mut stats).is_empty());
            // k exceeding |W|: all weights come back, exact ranks.
            let mut sp = QueryStats::default();
            let mut ss = QueryStats::default();
            let got = par.reverse_k_ranks(&q, 100, &mut sp);
            assert_eq!(got.len(), 50);
            assert_eq!(got, gir.reverse_k_ranks(&q, 100, &mut ss));
            // External query point.
            let external = vec![1_234.5, 42.0, 5_000.0];
            let mut sp = QueryStats::default();
            let mut ss = QueryStats::default();
            assert_eq!(
                par.reverse_top_k(&external, 15, &mut sp),
                gir.reverse_top_k(&external, 15, &mut ss)
            );
        }
    }

    #[test]
    fn pooled_engine_matches_scoped_engine_exactly() {
        let (p, w) = workload(4, 300, 90, 39);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(42)).to_vec();
        // An unpooled engine runs each query on a one-query pool; a
        // persistent pool must reproduce it counter for counter.
        for par_cfg in [ParConfig::deterministic(3), ParConfig::epoch(3, 8)] {
            pool_scope(3, |pool| {
                let scoped = gir.parallel(par_cfg);
                let pooled = gir.parallel(par_cfg).with_pool(pool);
                for k in [1usize, 7, 30] {
                    let mut sp = QueryStats::default();
                    let mut ss = QueryStats::default();
                    assert_eq!(
                        pooled.reverse_top_k(&q, k, &mut sp),
                        scoped.reverse_top_k(&q, k, &mut ss),
                        "rtk {par_cfg:?} k={k}"
                    );
                    assert_eq!(sp, ss, "rtk counters {par_cfg:?} k={k}");
                    let mut sp = QueryStats::default();
                    let mut ss = QueryStats::default();
                    assert_eq!(
                        pooled.reverse_k_ranks(&q, k, &mut sp),
                        scoped.reverse_k_ranks(&q, k, &mut ss),
                        "rkr {par_cfg:?} k={k}"
                    );
                    assert_eq!(sp, ss, "rkr counters {par_cfg:?} k={k}");
                }
            });
        }
    }

    #[test]
    fn pool_reuse_and_epoch_syncs_are_booked_on_traced_runs() {
        let (p, w) = workload(4, 250, 64, 40);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(10)).to_vec();
        pool_scope(2, |pool| {
            let par = gir.parallel(ParConfig::epoch(2, 8)).with_pool(pool);
            let rec = SharedRecorder::new();
            for _ in 0..3 {
                let mut stats = QueryStats::default();
                let _ = par.reverse_k_ranks_traced(&q, 5, &mut stats, &rec);
            }
            // First query builds no reuse; the second and third do.
            assert_eq!(rec.counter("par.pool_reuse"), Some(2));
            // 64 weights over 2 workers at epoch 8 → 4 rounds → 3
            // boundaries × 2 workers × 3 queries = 18 exchanges.
            assert_eq!(rec.counter("par.epoch_syncs"), Some(18));
            assert_eq!(rec.counter("par.sequential_fallback"), None);
        });
    }

    #[test]
    fn undersized_pool_falls_back_sequentially_and_counts_it() {
        let (p, w) = workload(3, 200, 40, 41);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(3)).to_vec();
        for workers in [0usize, 1] {
            pool_scope(workers, |pool| {
                let par = gir.parallel(ParConfig::deterministic(4)).with_pool(pool);
                let rec = SharedRecorder::new();
                let mut sp = QueryStats::default();
                let mut ss = QueryStats::default();
                let got = par.reverse_k_ranks_traced(&q, 5, &mut sp, &rec);
                assert_eq!(got, gir.reverse_k_ranks(&q, 5, &mut ss));
                assert_eq!(sp, ss, "fallback runs the sequential engine");
                assert_eq!(rec.counter("par.sequential_fallback"), Some(1));
                assert_eq!(pool.stats().queries, 0, "no jobs reach the pool");
            });
        }
    }

    #[test]
    fn traced_runs_parallel_under_shared_recorder() {
        let (p, w) = workload(4, 250, 60, 36);
        let gir = Gir::with_defaults(&p, &w);
        let par = gir.parallel(ParConfig::deterministic(3));
        let q = p.point(PointId(40)).to_vec();
        let rec = SharedRecorder::new();
        let mut st = QueryStats::default();
        let mut su = QueryStats::default();
        let traced = par.reverse_k_ranks_traced(&q, 8, &mut st, &rec);
        assert_eq!(traced, par.reverse_k_ranks(&q, 8, &mut su));
        assert_eq!(st, su, "tracing must not change deterministic counters");
        assert_eq!(rec.counter("par.sequential_fallback"), None);
        let tree = rec.span_tree();
        assert!(
            !tree.roots.is_empty(),
            "worker spans must land in the shared recorder"
        );
    }

    #[test]
    fn traced_falls_back_sequentially_for_non_sync_recorder() {
        let (p, w) = workload(4, 250, 60, 37);
        let gir = Gir::with_defaults(&p, &w);
        let par = gir.parallel(ParConfig::deterministic(4));
        let q = p.point(PointId(41)).to_vec();
        let rec = MetricsRecorder::new();
        let mut st = QueryStats::default();
        let mut ss = QueryStats::default();
        let traced = par.reverse_top_k_traced(&q, 8, &mut st, &rec);
        assert_eq!(traced, gir.reverse_top_k(&q, 8, &mut ss));
        assert_eq!(st, ss, "fallback runs the sequential engine");
        assert_eq!(rec.counter("par.sequential_fallback"), Some(1));
    }

    #[test]
    fn shard_ranges_cover_weights_exactly() {
        for nw in [1usize, 2, 5, 64, 81, 100] {
            for threads in [1usize, 2, 3, 4, 7, 16] {
                let shards = ParGir::<Grid>::shards(nw, threads);
                assert_eq!(shards.len(), threads);
                let mut next = 0usize;
                for r in &shards {
                    assert_eq!(r.start, next.min(nw));
                    assert!(r.end <= nw);
                    next = r.end.max(next);
                }
                assert_eq!(shards.last().unwrap().end, nw);
                let total: usize = shards.iter().map(|r| r.len()).sum();
                assert_eq!(total, nw, "nw={nw} threads={threads}");
            }
        }
    }

    #[test]
    fn epoch_rounds_cover_the_longest_shard() {
        let shards = ParGir::<Grid>::shards(100, 3); // chunks of 34
        assert_eq!(epoch_rounds(&shards, 10), 4);
        assert_eq!(epoch_rounds(&shards, 34), 1);
        assert_eq!(epoch_rounds(&shards, 1), 34);
        assert_eq!(epoch_rounds(&shards, usize::MAX), 1);
        assert_eq!(epoch_rounds(&[], 8), 1);
    }

    #[test]
    fn epoch_peer_panic_poisons_the_barrier_instead_of_hanging() {
        use crate::pool::PoolError;
        // A barrier-coupled job set where one member panics before its
        // first exchange: without unwind-to-poison the surviving peer
        // would wait forever inside `EpochSync::exchange` and
        // `WorkerPool::run` would never return. With it, the peer
        // panics out of the rendezvous and the pool reports the query
        // as JobPanicked — and stays usable.
        let sync = EpochSync::new(2);
        pool_scope(2, |pool| {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
                Box::new(|| {
                    let _guard = sync.panic_guard();
                    panic!("epoch shard exploded");
                }),
                Box::new(|| {
                    let _guard = sync.panic_guard();
                    sync.exchange(1, 7, false).0
                }),
            ];
            match pool.run(jobs) {
                Err(PoolError::JobPanicked(_)) => {}
                other => panic!("expected JobPanicked, got {other:?}"),
            }
            // The pool survived the coupled failure.
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![Box::new(|| 1), Box::new(|| 2)];
            assert_eq!(pool.run(jobs).unwrap(), vec![1, 2]);
        });
    }

    #[test]
    fn poisoned_barrier_rejects_late_waiters() {
        // A worker that has not yet reached the rendezvous when the
        // poison lands must also panic on its next wait, not enqueue
        // itself on a barrier that can never complete again.
        let barrier = PoisonBarrier::new(2);
        barrier.poison();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| barrier.wait())).is_err());
    }
}
