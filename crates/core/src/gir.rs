//! The GIR algorithm: Grid-index filtered scan for reverse top-k and
//! reverse k-ranks (paper §4, Algorithms 1–3).
//!
//! GIR is an optimised simple scan. For each weight it walks the
//! *approximate* vectors `P⁽ᴬ⁾`, assembling score bounds from the
//! Grid-index by pure addition. Most points are classified without a
//! multiplication:
//!
//! * **Case 1** (`U[f_w(p)] < f_w(q)`): `p` surely precedes `q` — count
//!   it. If it also dominates `q` it enters the global `Domin` buffer and
//!   is never scanned again.
//! * **Case 2** (`L[f_w(p)] ≥ f_w(q)`): `p` surely does not precede `q` —
//!   skip it.
//! * **Case 3** (otherwise): incomparable — defer to a refinement pass
//!   that checks the original data.
//!
//! The scan terminates as soon as the rank bound is hit: `k` for RTK
//! (Alg. 2), the self-refining `minRank` heap bound for RKR (Alg. 3).
//!
//! Note on strictness: the paper states Case 1 as `U < f_w(q)` in §3.1
//! but writes `≤` in Alg. 1 line 5; because `rank` counts *strictly*
//! preceding points, `<` is the safe direction and is what we implement
//! (a point with `f_w(p) = f_w(q)` does not improve `q`'s rank).

use crate::approx::{ApproxVectors, PackedApproxVectors};
use crate::grid::{Grid, GridTable};
use crate::snapshot::{DeltaIndex, EngineState};
use crate::threshold::{RtkThresholdOutcome, ThresholdIndex};
use rrq_obs::{
    span, timed_leaf, BoundSource, ExplainClass, ExplainDoc, ExplainKind, ExplainSink,
    NoopRecorder, NoopSink, Recorder, RANK_CERTIFIED,
};
use rrq_types::{
    dot_counted, KBestHeap, PointId, PointSet, QueryStats, RkrQuery, RkrResult, RtkQuery,
    RtkResult, WeightId, WeightSet,
};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Configuration of the GIR algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GirConfig {
    /// Number of value-range partitions `n` (the paper's default is 32,
    /// justified by Theorem 1).
    pub partitions: usize,
    /// Keep the global `Domin` buffer of query-dominating points
    /// (Alg. 1 lines 7–8). On by default; the ablation bench disables it.
    pub use_domin: bool,
    /// Scan from bit-packed approximate vectors (paper §3.2) instead of
    /// byte-per-dimension rows. Saves ~8× approximate-vector memory at the
    /// cost of per-row decoding. Off by default.
    pub packed: bool,
}

impl Default for GirConfig {
    fn default() -> Self {
        Self {
            partitions: 32,
            use_domin: true,
            packed: false,
        }
    }
}

impl GirConfig {
    /// A configuration tuned for modern (SIMD) hardware: `n = 128`.
    ///
    /// The paper's `n = 32` follows Theorem 1, whose model understates
    /// bound widths (see EXPERIMENTS.md); with vectorised scans the extra
    /// table memory (133 KB, still cache-resident) buys a markedly lower
    /// refinement rate and wins wall-clock across dimensionalities.
    pub fn tuned() -> Self {
        Self {
            partitions: 128,
            ..Self::default()
        }
    }
}

enum PointStore<'a> {
    Bytes(ApproxVectors),
    Packed(PackedApproxVectors),
    /// Borrowed byte-format cells — the epoch snapshot layer's base data
    /// owns the quantisation and hands out views ([`Gir::snapshot_view`]).
    BytesRef(&'a ApproxVectors),
}

impl PointStore<'_> {
    /// The flat byte-format cell matrix, when this store has one — the
    /// precondition of the blocked fast scan.
    fn flat_bytes(&self) -> Option<&[u8]> {
        match self {
            PointStore::Bytes(b) => Some(b.as_flat()),
            PointStore::BytesRef(b) => Some(b.as_flat()),
            PointStore::Packed(_) => None,
        }
    }
}

enum WeightStore<'a> {
    Bytes(ApproxVectors),
    Packed(PackedApproxVectors),
    /// Borrowed byte-format cells (see [`PointStore::BytesRef`]).
    BytesRef(&'a ApproxVectors),
}

/// The Grid-index reverse rank algorithm bound to a data set pair.
///
/// Generic over the corner-product table: the paper's equal-width
/// [`Grid`] by default, or the quantile [`crate::AdaptiveGrid`] extension.
///
/// ```
/// use rrq_core::Gir;
/// use rrq_types::{PointSet, WeightSet, QueryStats, RtkQuery, RkrQuery, WeightId};
///
/// let products = PointSet::from_flat(2, 10.0, &[
///     1.0, 9.0,   // cheap, weak battery
///     8.0, 2.0,   // pricey, great battery
/// ])?;
/// let users = WeightSet::from_flat(2, &[
///     0.9, 0.1,   // price-sensitive
///     0.1, 0.9,   // battery-obsessed
/// ])?;
/// let gir = Gir::with_defaults(&products, &users);
/// let mut stats = QueryStats::default();
///
/// // Who shortlists the cheap phone?
/// let fans = gir.reverse_top_k(&[1.0, 9.0], 1, &mut stats);
/// assert!(fans.contains(WeightId(0)));
/// // And the k-ranks query never returns empty:
/// let best = gir.reverse_k_ranks(&[8.0, 2.0], 1, &mut stats);
/// assert_eq!(best.entries()[0].weight, WeightId(1));
/// # Ok::<(), rrq_types::RrqError>(())
/// ```
pub struct Gir<'a, G: GridTable = Grid> {
    points: &'a PointSet,
    weights: &'a WeightSet,
    grid: G,
    p_approx: PointStore<'a>,
    w_approx: WeightStore<'a>,
    /// `Σ pa[k]` per point — the per-point constant of the integer-domain
    /// upper-bound sum used by the equal-width fast path. Owned by the
    /// engine, or borrowed from snapshot base data for views.
    p_cell_sums: Cow<'a, [u32]>,
    /// Dimension-major (column) copy of the approximate point cells:
    /// `p_cols[k · |P| + id] = pa_id[k]`. The blocked scan's
    /// multiply-accumulate reads 64 contiguous bytes per dimension and
    /// multiplies by a broadcast weight cell, which vectorises — the
    /// row-major layout cannot.
    p_cols: Cow<'a, [u8]>,
    config: GirConfig,
    /// Optional materialized per-weight k-th-score table. When present,
    /// RTK membership and RKR skip certification become one threshold
    /// comparison per weight; only straddling candidates fall into the
    /// grid scan. Attached via [`Gir::attach_threshold_index`];
    /// `Arc`-shared so epoch snapshots can hand the same table to many
    /// concurrent views.
    threshold: Option<Arc<ThresholdIndex>>,
    /// Mutation overlay of a snapshot view: tombstone bitmaps plus the
    /// append logs of points and weights inserted after the base build.
    /// `None` for engines built directly over immutable sets — every
    /// static scan compiles down to exactly the pre-update code paths.
    delta: Option<&'a DeltaIndex>,
}

impl<'a> Gir<'a, Grid> {
    /// Builds the (equal-width) Grid-index and pre-quantises both data
    /// sets (the preprocessing step of §3.1).
    ///
    /// # Panics
    ///
    /// Panics if the sets have different dimensionality or the
    /// configuration is invalid (`partitions` outside `2..=255`).
    pub fn new(points: &'a PointSet, weights: &'a WeightSet, config: GirConfig) -> Self {
        // Paper §3.1 quantises each data set over its own value range.
        // Normalised preferences concentrate near 1/d, so scaling the
        // weight axis to the observed maximum component keeps the cells
        // meaningful in high dimensions.
        let w_max = weights
            .as_flat()
            .iter()
            .cloned()
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let grid = Grid::with_ranges(config.partitions, points.value_range(), w_max);
        Self::with_grid(points, weights, grid, config)
    }

    /// With the paper's default configuration (`n = 32`, `Domin` on,
    /// byte-format approximate vectors).
    pub fn with_defaults(points: &'a PointSet, weights: &'a WeightSet) -> Self {
        Self::new(points, weights, GirConfig::default())
    }

    /// Chooses the number of partitions with Theorem 1 for the target
    /// worst-case filter failure rate `epsilon`, rounded up to the next
    /// power of two (cells pack into `log₂ n` bits) and clamped to the
    /// `u8` cell limit of 128.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon < 1` (and on dimensionality mismatch).
    pub fn auto(points: &'a PointSet, weights: &'a WeightSet, epsilon: f64) -> Self {
        let n = crate::model::required_partitions(points.dim(), epsilon);
        let n = crate::model::next_power_of_two(n).clamp(2, 128);
        Self::new(
            points,
            weights,
            GirConfig {
                partitions: n,
                ..GirConfig::default()
            },
        )
    }
}

impl<'a> Gir<'a, &'a Grid> {
    /// Builds a borrowed scan view over an epoch snapshot: the base data
    /// and grid are shared (nothing is re-quantised per view), the delta
    /// overlay drives tombstone skips and append-tail scans, and the
    /// snapshot's threshold table — already repaired to this epoch — is
    /// attached without revalidation.
    pub(crate) fn snapshot_view(state: &'a EngineState) -> Self {
        let base = state.base();
        Self {
            points: base.points(),
            weights: base.weights(),
            grid: base.grid(),
            p_approx: PointStore::BytesRef(base.p_approx()),
            w_approx: WeightStore::BytesRef(base.w_approx()),
            p_cell_sums: Cow::Borrowed(base.p_cell_sums()),
            p_cols: Cow::Borrowed(base.p_cols()),
            config: base.config(),
            threshold: state.threshold_arc(),
            delta: Some(state.delta()),
        }
    }
}

impl<'a, G: GridTable> Gir<'a, G> {
    /// Builds the algorithm around a caller-supplied corner table (used by
    /// the adaptive-grid extension). `config.partitions` is ignored in
    /// favour of `grid.partitions()`.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different dimensionality.
    pub fn with_grid(
        points: &'a PointSet,
        weights: &'a WeightSet,
        grid: G,
        config: GirConfig,
    ) -> Self {
        assert_eq!(
            points.dim(),
            weights.dim(),
            "P and W must share dimensionality"
        );
        let bytes = ApproxVectors::from_points(&grid, points);
        let p_cell_sums: Vec<u32> = bytes
            .iter()
            .map(|row| row.iter().map(|&c| c as u32).sum())
            .collect();
        let n_points = points.len();
        let dim = points.dim();
        let mut p_cols = vec![0u8; n_points * dim];
        for (id, row) in bytes.iter().enumerate() {
            for (k, &c) in row.iter().enumerate() {
                p_cols[k * n_points + id] = c;
            }
        }
        let p_approx = if config.packed {
            let bits = PackedApproxVectors::bits_for_partitions(grid.partitions());
            PointStore::Packed(PackedApproxVectors::pack(&bytes, bits))
        } else {
            PointStore::Bytes(bytes)
        };
        let w_bytes = ApproxVectors::from_weights(&grid, weights);
        let w_approx = if config.packed {
            let bits = PackedApproxVectors::bits_for_partitions(grid.partitions());
            WeightStore::Packed(PackedApproxVectors::pack(&w_bytes, bits))
        } else {
            WeightStore::Bytes(w_bytes)
        };
        Self {
            points,
            weights,
            grid,
            p_approx,
            w_approx,
            p_cell_sums: Cow::Owned(p_cell_sums),
            p_cols: Cow::Owned(p_cols),
            config,
            threshold: None,
            delta: None,
        }
    }

    /// Materializes a [`ThresholdIndex`] for this engine's data sets at
    /// the given k-buckets (one top-k oracle scan of `P` per weight).
    /// Build-only; attach the result with
    /// [`Self::attach_threshold_index`] to serve from it.
    ///
    /// # Errors
    ///
    /// Propagates [`ThresholdIndex::build`] validation failures.
    pub fn build_threshold_index(&self, buckets: &[usize]) -> rrq_types::RrqResult<ThresholdIndex> {
        ThresholdIndex::build(self.points, self.weights, buckets)
    }

    /// Attaches a materialized threshold index after validating it
    /// against the live data sets (dimensions, cardinalities and the
    /// build-time data fingerprint must all match).
    ///
    /// # Errors
    ///
    /// [`rrq_types::RrqError::ArtifactStale`] when the index was built
    /// from different data — a stale artifact is rejected here rather
    /// than silently serving wrong thresholds.
    pub fn attach_threshold_index(&mut self, index: ThresholdIndex) -> rrq_types::RrqResult<()> {
        index.validate_for(self.points, self.weights)?;
        self.threshold = Some(Arc::new(index));
        Ok(())
    }

    /// Detaches and returns the threshold index, if one is attached
    /// (cloning the table when snapshot views still share it).
    pub fn detach_threshold_index(&mut self) -> Option<ThresholdIndex> {
        self.threshold
            .take()
            .map(|a| Arc::try_unwrap(a).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// The attached threshold index, if any.
    pub fn threshold_index(&self) -> Option<&ThresholdIndex> {
        self.threshold.as_deref()
    }

    /// The underlying corner table.
    pub fn grid(&self) -> &G {
        &self.grid
    }

    pub(crate) fn points_ref(&self) -> &'a PointSet {
        self.points
    }

    pub(crate) fn w_approx_row<'s>(&'s self, wid: usize, scratch: &'s mut [u8]) -> &'s [u8] {
        self.w_row(wid, scratch)
    }

    /// Total point-id width of this engine: base points plus the append
    /// tail (tombstoned slots included — ids are never reused within an
    /// epoch). `DominBuffer`s must span this width.
    pub(crate) fn total_points(&self) -> usize {
        self.points.len() + self.delta.map_or(0, |d| d.appended_points_len())
    }

    /// Total weight-id width: base weights plus the append tail.
    pub(crate) fn total_weights(&self) -> usize {
        self.weights.len() + self.delta.map_or(0, |d| d.appended_weights_len())
    }

    /// Per-weight admission check over a mutable snapshot: a tombstoned
    /// weight is booked as a skip and refused; a live appended weight
    /// books its append-tail visit. Static engines admit every id.
    /// Callers book `weights_visited` only for admitted weights — deleted
    /// weights are invisible to the funnel beyond the tombstone count.
    pub(crate) fn admit_weight<S: ExplainSink>(
        &self,
        wid: usize,
        stats: &mut QueryStats,
        sink: &mut S,
    ) -> bool {
        let Some(dx) = self.delta else {
            return true;
        };
        if dx.weight_tombstoned(wid) {
            stats.tombstones_skipped += 1;
            if sink.enabled() {
                sink.tombstone_skip();
            }
            return false;
        }
        if wid >= self.weights.len() {
            stats.appended_scanned += 1;
            if sink.enabled() {
                sink.appended_scan();
            }
        }
        true
    }

    /// The original data row of weight `wid`, serving appended ids from
    /// the delta's append log.
    pub(crate) fn weight_data(&self, wid: usize) -> &[f64] {
        let base = self.weights.len();
        if wid < base {
            self.weights.weight(WeightId(wid))
        } else {
            self.delta
                // rrq-lint: allow(no-unwrap-in-lib) -- an appended id can only come from total_weights(), which counts the delta
                .expect("appended weight id requires a delta overlay")
                .appended_weight(wid - base)
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> GirConfig {
        self.config
    }

    /// Memory used by the index structures (grid table + approximate
    /// vectors), in bytes — the "negligible memory cost" of the paper's
    /// abstract.
    pub fn index_memory_bytes(&self) -> usize {
        let p_mem = match &self.p_approx {
            PointStore::Bytes(b) => b.memory_bytes(),
            PointStore::Packed(p) => p.memory_bytes(),
            PointStore::BytesRef(b) => b.memory_bytes(),
        };
        let w_mem = match &self.w_approx {
            WeightStore::Bytes(b) => b.memory_bytes(),
            WeightStore::Packed(p) => p.memory_bytes(),
            WeightStore::BytesRef(b) => b.memory_bytes(),
        };
        let t_mem = self.threshold.as_ref().map_or(0, |t| t.memory_bytes());
        self.grid.memory_bytes() + p_mem + w_mem + t_mem
    }

    /// Decodes (or borrows) the approximate row of weight `wid` into
    /// `scratch` when packed, serving appended ids from the delta's
    /// pre-quantised append log.
    fn w_row<'s>(&'s self, wid: usize, scratch: &'s mut [u8]) -> &'s [u8] {
        let base = self.weights.len();
        if wid >= base {
            return self
                .delta
                // rrq-lint: allow(no-unwrap-in-lib) -- an appended id can only come from total_weights(), which counts the delta
                .expect("appended weight id requires a delta overlay")
                .appended_weight_cells(wid - base);
        }
        match &self.w_approx {
            WeightStore::Bytes(b) => b.row(wid),
            WeightStore::BytesRef(b) => b.row(wid),
            WeightStore::Packed(p) => {
                p.decode_row(wid, scratch);
                scratch
            }
        }
    }

    /// GInTop-k (Alg. 1): scans `P⁽ᴬ⁾` under weight `w`, counting points
    /// preceding `q`. Returns `None` as soon as the count *exceeds*
    /// `bound` (the paper's `-1`), else `Some(exact rank)`.
    ///
    /// `scratch` buffers avoid per-call allocation; `domin` is the shared
    /// dominating-point buffer. `rec` receives per-refinement leaf timings
    /// and `sink` per-cell classification provenance — a [`NoopRecorder`]
    /// / [`NoopSink`] monomorphises either away entirely.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gin_rank<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        wa: &[u8],
        w: &[f64],
        qa: &[u8],
        fq: f64,
        bound: usize,
        domin: &mut DominBuffer,
        scratch: &mut Scratch,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> Option<usize> {
        let mut rank = domin.len();
        if rank > bound {
            stats.early_terminations += 1;
            if sink.enabled() {
                sink.early_termination();
            }
            return None;
        }
        let n_points = self.points.len();
        // Equal-width grids admit an integer-domain classifier with no
        // per-pair floating point work; irregular tables fall back to the
        // bound-sum classifier.
        let prepared = self.grid.prepare_scan(wa, fq);
        // Fast path: byte-format cells + integer-domain classifier. The
        // scan is blocked: 64 points are classified branchlessly into
        // bitmasks, then only the interesting bits are acted on — whole
        // Case 2 stretches cost nothing beyond the multiply-accumulate.
        //
        // Explained runs take the scalar path instead: the blocked scan is
        // pinned to produce identical results *and* QueryStats (see
        // `blocked_and_scalar_paths_report_identical_stats`), so per-cell
        // provenance recorded here describes the blocked scan faithfully.
        // Snapshots whose delta touches points (tombstones or appends)
        // also take the scalar path, which books the per-entry mutation
        // counters; weight-only deltas keep the fast path.
        if !sink.enabled() && self.delta.is_none_or(|dx| dx.points_unchanged()) {
            if let (Some(flat), Some(ps)) = (self.p_approx.flat_bytes(), &prepared) {
                return self.gin_rank_blocked(flat, ps, wa, w, qa, fq, bound, domin, stats, rec);
            }
        }
        for id in 0..n_points {
            if let Some(dx) = self.delta {
                if dx.point_tombstoned(id) {
                    stats.tombstones_skipped += 1;
                    if sink.enabled() {
                        sink.tombstone_skip();
                    }
                    continue;
                }
            }
            if domin.contains(id) {
                stats.domin_skips += 1;
                if sink.enabled() {
                    sink.domin_skip(self.pa_row(id, scratch));
                }
                continue;
            }
            let pa: &[u8] = match &self.p_approx {
                PointStore::Bytes(b) => b.row(id),
                PointStore::BytesRef(b) => b.row(id),
                PointStore::Packed(p) => {
                    p.decode_row(id, &mut scratch.row);
                    &scratch.row
                }
            };
            let live = self.classify_candidate(
                id,
                pa,
                self.p_cell_sums[id],
                self.points.point(PointId(id)),
                &prepared,
                wa,
                w,
                qa,
                fq,
                bound,
                &mut rank,
                domin,
                stats,
                rec,
                sink,
            );
            if !live {
                return None;
            }
        }
        // Append tail: points inserted after the base build, scanned in
        // insertion order so every engine (and the rebuilt oracle, whose
        // dense ids preserve this order) visits candidates identically.
        if let Some(dx) = self.delta {
            for j in 0..dx.appended_points_len() {
                let id = n_points + j;
                if dx.point_tombstoned(id) {
                    stats.tombstones_skipped += 1;
                    if sink.enabled() {
                        sink.tombstone_skip();
                    }
                    continue;
                }
                if domin.contains(id) {
                    stats.domin_skips += 1;
                    if sink.enabled() {
                        sink.domin_skip(dx.appended_point_cells(j));
                    }
                    continue;
                }
                stats.appended_scanned += 1;
                if sink.enabled() {
                    sink.appended_scan();
                }
                let live = self.classify_candidate(
                    id,
                    dx.appended_point_cells(j),
                    dx.appended_point_cell_sum(j),
                    dx.appended_point(j),
                    &prepared,
                    wa,
                    w,
                    qa,
                    fq,
                    bound,
                    &mut rank,
                    domin,
                    stats,
                    rec,
                    sink,
                );
                if !live {
                    return None;
                }
            }
        }
        Some(rank)
    }

    /// Classifies one live candidate (base or appended) against the query
    /// score and folds the outcome into `rank` — the shared per-point body
    /// of the scalar scan. Returns `false` when the scan terminated early
    /// (`rank` exceeded `bound`, already booked).
    #[allow(clippy::too_many_arguments)]
    fn classify_candidate<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        id: usize,
        pa: &[u8],
        pa_sum: u32,
        p_data: &[f64],
        prepared: &Option<crate::grid::PreparedScan>,
        wa: &[u8],
        w: &[f64],
        qa: &[u8],
        fq: f64,
        bound: usize,
        rank: &mut usize,
        domin: &mut DominBuffer,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> bool {
        stats.points_visited += 1;
        // Eqs. 3-4: both bound sums cost 2d additions (no
        // multiplication on the original data).
        stats.bound_additions += 2 * p_data.len() as u64;
        let case = match prepared {
            Some(ps) => ps.classify(pa, wa, pa_sum),
            None => self.grid.classify(pa, wa, fq),
        };
        if sink.enabled() {
            // The generic bound sums (Eqs. 3/4) that decided the
            // class; the integer-domain classifier is pinned
            // equivalent to them.
            let lower = self.grid.score_lower(pa, wa);
            let upper = self.grid.score_upper(pa, wa);
            let class = match case {
                crate::grid::BoundCase::Precedes => ExplainClass::Precedes,
                crate::grid::BoundCase::Succeeds => ExplainClass::Succeeds,
                crate::grid::BoundCase::Incomparable => ExplainClass::Refined,
            };
            sink.classify(pa, class, lower, upper);
        }
        let preceded = match case {
            crate::grid::BoundCase::Precedes => {
                stats.filtered_case1 += 1;
                // Cell-level dominance test (Alg. 1 line 7): if every
                // approximate cell of p lies strictly below q's cell,
                // then p[i] < α[pa[i]+1] <= α[qa[i]] <= q[i] for all
                // i, i.e. p strictly dominates q. Conservative (same-
                // cell dominators are missed) but touches no original
                // data.
                if self.config.use_domin && cells_dominate(pa, qa) {
                    domin.insert(id);
                    if sink.enabled() {
                        sink.domin_insert(pa);
                    }
                }
                true
            }
            crate::grid::BoundCase::Succeeds => {
                stats.filtered_case2 += 1;
                false
            }
            crate::grid::BoundCase::Incomparable => {
                // Case 3 refinement against the original data.
                // (Alg. 1 defers this to a post-scan pass; refining
                // in place is equivalent and keeps the rank count
                // complete, so early termination fires exactly as
                // early as SIM's.)
                stats.refined += 1;
                timed_leaf(rec, "refine", || dot_counted(w, p_data, stats) < fq)
            }
        };
        if preceded {
            *rank += 1;
            if *rank > bound {
                stats.early_terminations += 1;
                if sink.enabled() {
                    sink.early_termination();
                }
                return false;
            }
        }
        true
    }

    /// Borrows (or decodes into `scratch`) the approximate row of point
    /// `id`.
    fn pa_row<'s>(&'s self, id: usize, scratch: &'s mut Scratch) -> &'s [u8] {
        match &self.p_approx {
            PointStore::Bytes(b) => b.row(id),
            PointStore::BytesRef(b) => b.row(id),
            PointStore::Packed(p) => {
                p.decode_row(id, &mut scratch.row);
                &scratch.row
            }
        }
    }
}

impl<'a, G: GridTable> Gir<'a, G> {
    /// Blocked fast scan (see `gin_rank`): classifies 64 points at a time
    /// into bitmasks with no data-dependent branches, then acts on set
    /// bits in index order (preserving early-termination semantics).
    #[allow(clippy::too_many_arguments)]
    fn gin_rank_blocked<R: Recorder + ?Sized>(
        &self,
        cells: &[u8],
        ps: &crate::grid::PreparedScan,
        wa: &[u8],
        w: &[f64],
        qa: &[u8],
        fq: f64,
        bound: usize,
        domin: &mut DominBuffer,
        stats: &mut QueryStats,
        rec: &R,
    ) -> Option<usize> {
        let d = self.points.dim();
        let threshold = ps.threshold();
        let upper_offset = ps.upper_offset();
        let mut rank = domin.len();
        if rank > bound {
            stats.early_terminations += 1;
            return None;
        }
        let n_points = self.points.len();
        let mut base = 0usize;
        let mut lsums = [0u32; 64];
        while base < n_points {
            let block_len = (n_points - base).min(64);
            // Pass 1a: column-major multiply-accumulate. Each dimension
            // contributes 64 contiguous cells multiplied by one broadcast
            // weight cell — a shape LLVM vectorises.
            lsums[..block_len].fill(0);
            for (k, &wk) in wa.iter().enumerate() {
                let wk = wk as u32;
                let col = &self.p_cols[k * n_points + base..k * n_points + base + block_len];
                for (acc, &c) in lsums[..block_len].iter_mut().zip(col) {
                    *acc += c as u32 * wk;
                }
            }
            // Pass 1b: branchless classification into bitmasks.
            let mut m_case1: u64 = 0;
            let mut m_incomp: u64 = 0;
            let sums = &self.p_cell_sums[base..base + block_len];
            for j in 0..block_len {
                let lsum = lsums[j];
                let usum = lsum + sums[j] + upper_offset;
                let c1 = usum < threshold;
                let inc = !c1 & (lsum < threshold);
                m_case1 |= (c1 as u64) << j;
                m_incomp |= (inc as u64) << j;
            }
            // Mask out known dominators (already counted in `rank`);
            // blocks are 64-aligned, so this is one word load. Bits at or
            // beyond `block_len` are never set: only real point ids are
            // ever inserted.
            let m_domin: u64 = if domin.len() > 0 {
                domin.block_mask(base)
            } else {
                0
            };
            let m_case1 = m_case1 & !m_domin;
            let m_incomp = m_incomp & !m_domin;
            // Block-level counters are applied once the block's outcome is
            // known, so that early termination at bit `j` books exactly
            // the prefix `0..=j` the scalar fallback would have counted —
            // the two paths must produce identical `QueryStats`.
            // Pass 2: act on interesting bits in ascending index order.
            let mut remaining = m_case1 | m_incomp;
            while remaining != 0 {
                let j = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                let id = base + j;
                let bit = 1u64 << j;
                let preceded = if m_case1 & bit != 0 {
                    if self.config.use_domin {
                        let row = &cells[id * d..id * d + d];
                        if cells_dominate(row, qa) {
                            domin.insert(id);
                        }
                    }
                    true
                } else {
                    stats.refined += 1;
                    timed_leaf(rec, "refine", || {
                        let p = self.points.point(PointId(id));
                        dot_counted(w, p, stats) < fq
                    })
                };
                if preceded {
                    rank += 1;
                    if rank > bound {
                        // The scalar loop stops right after classifying
                        // bit `j`: book bits 0..=j only.
                        let upto = u64::MAX >> (63 - j as u32);
                        apply_block_stats(stats, upto, m_case1, m_incomp, m_domin, d);
                        stats.early_terminations += 1;
                        return None;
                    }
                }
            }
            let full = if block_len == 64 {
                u64::MAX
            } else {
                (1u64 << block_len) - 1
            };
            apply_block_stats(stats, full, m_case1, m_incomp, m_domin, d);
            base += block_len;
        }
        Some(rank)
    }
}

/// Reusable per-query buffers (row decode buffer for the packed store).
pub(crate) struct Scratch {
    row: Vec<u8>,
}

impl Scratch {
    pub(crate) fn new(dim: usize) -> Self {
        Self {
            row: vec![0u8; dim],
        }
    }
}

/// Books the blocked scan's per-block counters for the lanes selected by
/// `upto`, reproducing what the scalar loop counts lane by lane: a
/// dominated lane is one `domin_skip` and nothing else (the scalar loop
/// skips it before touching bounds); every other lane is one visited
/// point plus the 2·d bound additions of Eqs. 3–4, classified as Case 1,
/// Case 3 (`m_incomp`, whose refinement cost is booked per-bit in pass
/// 2), or Case 2 (everything else).
///
/// `m_case1` / `m_incomp` must already have dominated lanes masked out.
#[inline]
fn apply_block_stats(
    stats: &mut QueryStats,
    upto: u64,
    m_case1: u64,
    m_incomp: u64,
    m_domin: u64,
    d: usize,
) {
    let visited = (upto & !m_domin).count_ones() as u64;
    stats.points_visited += visited;
    stats.bound_additions += visited * 2 * d as u64;
    stats.domin_skips += (upto & m_domin).count_ones() as u64;
    stats.filtered_case1 += (upto & m_case1).count_ones() as u64;
    stats.filtered_case2 += (upto & !(m_case1 | m_incomp | m_domin)).count_ones() as u64;
}

/// Whether every approximate cell of `pa` lies strictly below the
/// corresponding cell of `qa` — a sufficient condition for strict
/// dominance of the underlying vectors (half-open cells make the upper
/// boundary strict).
#[inline]
fn cells_dominate(pa: &[u8], qa: &[u8]) -> bool {
    pa.iter().zip(qa).all(|(&a, &b)| a < b)
}

/// Dense bitset of dominating points plus a count. Word-aligned with the
/// blocked scan's 64-point blocks so a block's dominator mask is a single
/// word load.
pub(crate) struct DominBuffer {
    words: Vec<u64>,
    len: usize,
}

impl DominBuffer {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0u64; n.div_ceil(64)],
            len: 0,
        }
    }

    #[inline]
    fn contains(&self, id: usize) -> bool {
        self.words[id >> 6] >> (id & 63) & 1 != 0
    }

    /// The dominator mask of the 64-point block starting at `base`
    /// (`base` must be 64-aligned).
    #[inline]
    fn block_mask(&self, base: usize) -> u64 {
        debug_assert_eq!(base % 64, 0);
        self.words[base >> 6]
    }

    fn insert(&mut self, id: usize) {
        let (word, bit) = (id >> 6, 1u64 << (id & 63));
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// Working state of one weight-range scan: the `Domin` bitset plus the
/// row-decode buffers. One per sequential query, one per parallel shard.
pub(crate) struct ScanBuffers {
    domin: DominBuffer,
    scratch: Scratch,
    w_scratch: Vec<u8>,
}

impl ScanBuffers {
    pub(crate) fn new<G: GridTable>(gir: &Gir<'_, G>) -> Self {
        let dim = gir.points.dim();
        Self {
            domin: DominBuffer::new(gir.total_points()),
            scratch: Scratch::new(dim),
            w_scratch: vec![0u8; dim],
        }
    }

    /// Dominators found so far.
    pub(crate) fn dominators(&self) -> usize {
        self.domin.len()
    }
}

impl<G: GridTable> Gir<'_, G> {
    /// GIRTop-k (Alg. 2) around a weight-scan strategy: validates the
    /// query, opens the `rtk → {quantize, scan}` phase tree, quantises
    /// `q` and hands the cells to `scan`, which returns the members it
    /// found and whether `k` dominators saturated it (the result is then
    /// globally empty). The sequential engine scans all of `W` in one
    /// call to [`Self::rtk_scan`]; `ParGir` scans shards on a pool.
    pub(crate) fn rtk_query<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
        scan: impl FnOnce(&[u8], &mut QueryStats, &mut S) -> (Vec<WeightId>, bool),
    ) -> RtkResult {
        assert_eq!(q.len(), self.points.dim(), "query dimensionality");
        if k == 0 {
            return RtkResult::default();
        }
        if sink.enabled() {
            sink.begin_query(ExplainKind::Rtk, q, k as u64, self.grid.partitions() as u64);
        }
        let _query = span(rec, "rtk");
        let qa = timed_leaf(rec, "quantize", || {
            ApproxVectors::quantize_point(&self.grid, q)
        });
        let (members, saturated) = scan(&qa, stats, sink);
        if saturated {
            // Drop result events recorded before the proof landed so the
            // document matches what is returned.
            sink.invalidate_results();
            return RtkResult::default();
        }
        RtkResult::from_weights(members)
    }

    /// GIRk-Rank (Alg. 3) around a weight-scan strategy (see
    /// [`Self::rtk_query`]): `scan` returns the k-best heap of its
    /// weights. The phase tree is `rkr → {quantize, scan}`.
    pub(crate) fn rkr_query<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
        scan: impl FnOnce(&[u8], &mut QueryStats, &mut S) -> KBestHeap,
    ) -> RkrResult {
        assert_eq!(q.len(), self.points.dim(), "query dimensionality");
        if sink.enabled() {
            sink.begin_query(ExplainKind::Rkr, q, k as u64, self.grid.partitions() as u64);
        }
        let _query = span(rec, "rkr");
        let qa = timed_leaf(rec, "quantize", || {
            ApproxVectors::quantize_point(&self.grid, q)
        });
        let result = scan(&qa, stats, sink).into_result();
        if sink.enabled() {
            for e in result.entries() {
                sink.result(e.weight.0 as u64, e.rank as u64);
            }
        }
        result
    }

    /// The sequential GIRTop-k: one scan over every weight.
    pub(crate) fn rtk_impl<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> RtkResult {
        self.rtk_query(q, k, stats, rec, sink, |qa, stats, sink| {
            let _scan = span(rec, "scan");
            let mut members = Vec::new();
            let all = 0..self.total_weights();
            let mut buf = ScanBuffers::new(self);
            let saturated = self.rtk_scan(q, qa, k, all, &mut buf, &mut members, stats, rec, sink);
            (members, saturated)
        })
    }

    /// The sequential GIRk-Rank: one scan over every weight, bounded only
    /// by its own heap.
    pub(crate) fn rkr_impl<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> RkrResult {
        self.rkr_query(q, k, stats, rec, sink, |qa, stats, sink| {
            let _scan = span(rec, "scan");
            let mut heap = KBestHeap::new(k);
            let all = 0..self.total_weights();
            let mut buf = ScanBuffers::new(self);
            self.rkr_scan(
                q,
                qa,
                all,
                usize::MAX,
                &mut buf,
                &mut heap,
                stats,
                rec,
                sink,
            );
            heap
        })
    }

    /// The per-weight loop of GIRTop-k (Alg. 2) over the weight ids
    /// `wids`: admit → `f_w(q)` → threshold decision → GInTop-k, pushing
    /// members onto `members`. Returns `true` as soon as `k` dominators
    /// saturate the scan (Alg. 2 lines 7–8). `Domin` membership depends
    /// only on `(p, q)`, so a saturated shard proves the *global* result
    /// empty.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rtk_scan<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        q: &[f64],
        qa: &[u8],
        k: usize,
        wids: Range<usize>,
        buf: &mut ScanBuffers,
        members: &mut Vec<WeightId>,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) -> bool {
        for wid in wids {
            if !self.admit_weight(wid, stats, sink) {
                continue;
            }
            stats.weights_visited += 1;
            if sink.enabled() {
                sink.weight(wid as u64);
            }
            let w = self.weight_data(wid);
            let wa = self.w_row(wid, &mut buf.w_scratch);
            let fq = dot_counted(w, q, stats);
            if let Some(ti) = &self.threshold {
                // One comparison against the materialized k-th score
                // decides membership exactly (same `dot` kernel, same
                // tie semantics); only straddling candidates scan.
                match ti.decide_rtk(wid, k, fq) {
                    RtkThresholdOutcome::Member => {
                        stats.threshold_hits += 1;
                        if sink.enabled() {
                            sink.threshold_hit(wid as u64, true);
                            sink.result(wid as u64, RANK_CERTIFIED);
                        }
                        members.push(WeightId(wid));
                        continue;
                    }
                    RtkThresholdOutcome::NonMember => {
                        stats.threshold_hits += 1;
                        if sink.enabled() {
                            sink.threshold_hit(wid as u64, false);
                        }
                        continue;
                    }
                    RtkThresholdOutcome::Straddle => {}
                }
            }
            if let Some(rank) = self.gin_rank(
                wa,
                w,
                qa,
                fq,
                k - 1,
                &mut buf.domin,
                &mut buf.scratch,
                stats,
                rec,
                sink,
            ) {
                debug_assert!(rank < k);
                if sink.enabled() {
                    sink.result(wid as u64, rank as u64);
                }
                members.push(WeightId(wid));
            }
            if buf.domin.len() >= k {
                if sink.enabled() {
                    let found = buf.domin.len() as u64;
                    sink.bound_event(BoundSource::LocalScan, wid as u64, found, true);
                }
                return true;
            }
        }
        false
    }

    /// The per-weight loop of GIRk-Rank (Alg. 3) over the weight ids
    /// `wids`, offering exact ranks to `heap`. Each weight is scanned
    /// under the heap's own threshold (`minRank`), tightened by `frozen`
    /// — a cross-shard bound fixed for the whole call (`usize::MAX` =
    /// none). Every shard's heap threshold is at least the global k-th
    /// rank, so their minimum never skips a global top-k entry.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rkr_scan<R: Recorder + ?Sized, S: ExplainSink>(
        &self,
        q: &[f64],
        qa: &[u8],
        wids: Range<usize>,
        frozen: usize,
        buf: &mut ScanBuffers,
        heap: &mut KBestHeap,
        stats: &mut QueryStats,
        rec: &R,
        sink: &mut S,
    ) {
        for wid in wids {
            if !self.admit_weight(wid, stats, sink) {
                continue;
            }
            stats.weights_visited += 1;
            if sink.enabled() {
                sink.weight(wid as u64);
            }
            let w = self.weight_data(wid);
            let wa = self.w_row(wid, &mut buf.w_scratch);
            let fq = dot_counted(w, q, stats);
            let bound = heap.threshold().min(frozen);
            if let Some(ti) = &self.threshold {
                // `rank > bound` certified from the materialized scores
                // means the bounded scan would return `None`: skip it.
                // The heap never sees the weight either way, so results
                // and bound evolution are untouched.
                if ti.certifies_rank_above(wid, bound, fq) {
                    stats.threshold_hits += 1;
                    if sink.enabled() {
                        sink.threshold_hit(wid as u64, false);
                    }
                    continue;
                }
            }
            if let Some(rank) = self.gin_rank(
                wa,
                w,
                qa,
                fq,
                bound,
                &mut buf.domin,
                &mut buf.scratch,
                stats,
                rec,
                sink,
            ) {
                timed_leaf(rec, "heap", || heap.offer(rank, WeightId(wid)));
                if sink.enabled() {
                    // Each `minRank` tightening (Alg. 3's self-refining
                    // bound) enters the timeline with its deciding weight.
                    let after = heap.threshold();
                    if after < bound {
                        sink.bound_event(BoundSource::LocalScan, wid as u64, after as u64, false);
                    }
                }
            }
        }
    }

    /// GIRTop-k with full pruning provenance: records the per-cell
    /// classification map, filter→refine funnel, bound timeline and
    /// result set into `doc`. Results and `QueryStats` are identical to
    /// [`RtkQuery::reverse_top_k`] — only the scan takes the (pinned
    /// equivalent) scalar path so every classification is observable.
    pub fn reverse_top_k_explained(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        doc: &mut ExplainDoc,
    ) -> RtkResult {
        doc.set_engine("GIR");
        self.rtk_impl(q, k, stats, &NoopRecorder, doc)
    }

    /// GIRk-Rank with full pruning provenance (see
    /// [`Self::reverse_top_k_explained`]).
    pub fn reverse_k_ranks_explained(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        doc: &mut ExplainDoc,
    ) -> RkrResult {
        doc.set_engine("GIR");
        self.rkr_impl(q, k, stats, &NoopRecorder, doc)
    }
}

impl<G: GridTable> RtkQuery for Gir<'_, G> {
    fn name(&self) -> &'static str {
        "GIR"
    }

    /// GIRTop-k (Alg. 2).
    fn reverse_top_k(&self, q: &[f64], k: usize, stats: &mut QueryStats) -> RtkResult {
        self.rtk_impl(q, k, stats, &NoopRecorder, &mut NoopSink)
    }

    fn reverse_top_k_traced(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &dyn Recorder,
    ) -> RtkResult {
        self.rtk_impl(q, k, stats, rec, &mut NoopSink)
    }
}

impl<G: GridTable> RkrQuery for Gir<'_, G> {
    fn name(&self) -> &'static str {
        "GIR"
    }

    /// GIRk-Rank (Alg. 3).
    fn reverse_k_ranks(&self, q: &[f64], k: usize, stats: &mut QueryStats) -> RkrResult {
        self.rkr_impl(q, k, stats, &NoopRecorder, &mut NoopSink)
    }

    fn reverse_k_ranks_traced(
        &self,
        q: &[f64],
        k: usize,
        stats: &mut QueryStats,
        rec: &dyn Recorder,
    ) -> RkrResult {
        self.rkr_impl(q, k, stats, rec, &mut NoopSink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_baselines::Naive;
    use rrq_data::synthetic;

    fn workload(dim: usize, np: usize, nw: usize, seed: u64) -> (PointSet, WeightSet) {
        (
            synthetic::uniform_points(dim, np, 10_000.0, seed).unwrap(),
            synthetic::uniform_weights(dim, nw, seed + 1).unwrap(),
        )
    }

    fn configs() -> Vec<GirConfig> {
        vec![
            GirConfig::default(),
            GirConfig {
                partitions: 4,
                ..Default::default()
            },
            GirConfig {
                partitions: 128,
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
            GirConfig {
                partitions: 64,
                packed: true,
                use_domin: false,
            },
        ]
    }

    #[test]
    fn rtk_matches_naive_across_configs() {
        let (p, w) = workload(4, 300, 80, 1);
        let naive = Naive::new(&p, &w);
        for config in configs() {
            let gir = Gir::new(&p, &w, config);
            for qid in [0usize, 50, 150] {
                let q = p.point(PointId(qid)).to_vec();
                for k in [1usize, 5, 25] {
                    let mut s1 = QueryStats::default();
                    let mut s2 = QueryStats::default();
                    assert_eq!(
                        gir.reverse_top_k(&q, k, &mut s1),
                        naive.reverse_top_k(&q, k, &mut s2),
                        "config {config:?} q {qid} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn rkr_matches_naive_across_configs() {
        let (p, w) = workload(4, 300, 80, 2);
        let naive = Naive::new(&p, &w);
        for config in configs() {
            let gir = Gir::new(&p, &w, config);
            for qid in [0usize, 50, 150] {
                let q = p.point(PointId(qid)).to_vec();
                for k in [1usize, 5, 25] {
                    let mut s1 = QueryStats::default();
                    let mut s2 = QueryStats::default();
                    assert_eq!(
                        gir.reverse_k_ranks(&q, k, &mut s1),
                        naive.reverse_k_ranks(&q, k, &mut s2),
                        "config {config:?} q {qid} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_naive_on_clustered_and_anticorrelated_data() {
        for (pp, seed) in [("CL", 3u64), ("AC", 4u64)] {
            let p = if pp == "CL" {
                synthetic::clustered_points(5, 250, 10_000.0, 7, 0.1, seed).unwrap()
            } else {
                synthetic::anticorrelated_points(5, 250, 10_000.0, seed).unwrap()
            };
            let w = synthetic::clustered_weights(5, 60, 4, 0.05, seed + 10).unwrap();
            let gir = Gir::with_defaults(&p, &w);
            let naive = Naive::new(&p, &w);
            let q = p.point(PointId(11)).to_vec();
            let mut s1 = QueryStats::default();
            let mut s2 = QueryStats::default();
            assert_eq!(
                gir.reverse_top_k(&q, 10, &mut s1),
                naive.reverse_top_k(&q, 10, &mut s2),
                "{pp}"
            );
            let mut s3 = QueryStats::default();
            let mut s4 = QueryStats::default();
            assert_eq!(
                gir.reverse_k_ranks(&q, 10, &mut s3),
                naive.reverse_k_ranks(&q, 10, &mut s4),
                "{pp}"
            );
        }
    }

    #[test]
    fn high_dimensional_queries_match_naive() {
        let (p, w) = workload(20, 150, 40, 5);
        let gir = Gir::with_defaults(&p, &w);
        let naive = Naive::new(&p, &w);
        let q = p.point(PointId(9)).to_vec();
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        assert_eq!(
            gir.reverse_top_k(&q, 10, &mut s1),
            naive.reverse_top_k(&q, 10, &mut s2)
        );
        let mut s3 = QueryStats::default();
        let mut s4 = QueryStats::default();
        assert_eq!(
            gir.reverse_k_ranks(&q, 10, &mut s3),
            naive.reverse_k_ranks(&q, 10, &mut s4)
        );
    }

    #[test]
    fn grid_filters_most_pairs() {
        // The paper's headline: GIR decides over 99 % of the data without
        // an exact score computation. The operative metric is refinements
        // per (p, w) pair over a whole realistic query (k ≪ |W|), where
        // Case 1/2 classification, the Domin buffer *and* early
        // termination all contribute.
        let (p, w) = workload(6, 2000, 500, 7);
        let gir = Gir::with_defaults(&p, &w);
        // Average over several query positions: the per-query rate swings
        // by ~0.1 at this deliberately small test scale (2K × 500)
        // depending on where the query ranks. The rate climbs with |W| as
        // the minRank bound sharpens — the benchmark harness
        // (table4/fig15) measures the paper-scale behaviour.
        let mut stats = QueryStats::default();
        for qid in [123usize, 500, 1000, 1500] {
            let q = p.point(PointId(qid)).to_vec();
            gir.reverse_k_ranks(&q, 10, &mut stats);
        }
        let total_pairs = (4 * p.len() * w.len()) as f64;
        let effective = 1.0 - stats.refined as f64 / total_pairs;
        assert!(effective > 0.8, "effective filter rate {effective}");
        // The intrinsic per-pair bound tightness (Case 1/2 over classified
        // pairs) is lower — simplex weights quantise coarsely — but still
        // removes the large majority of exact computations.
        let intrinsic = stats.filter_rate().expect("pairs classified");
        assert!(intrinsic > 0.6, "intrinsic filter rate {intrinsic}");
    }

    #[test]
    fn gir_saves_multiplications_versus_naive() {
        let (p, w) = workload(6, 1000, 300, 8);
        let gir = Gir::with_defaults(&p, &w);
        let naive = Naive::new(&p, &w);
        let q = p.point(PointId(77)).to_vec();
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        gir.reverse_k_ranks(&q, 10, &mut s1);
        naive.reverse_k_ranks(&q, 10, &mut s2);
        assert!(
            s1.multiplications * 4 < s2.multiplications,
            "GIR {} vs NAIVE {}",
            s1.multiplications,
            s2.multiplications
        );
    }

    #[test]
    fn packed_and_byte_modes_agree_exactly() {
        let (p, w) = workload(5, 400, 60, 9);
        let bytes = Gir::new(
            &p,
            &w,
            GirConfig {
                packed: false,
                ..Default::default()
            },
        );
        let packed = Gir::new(
            &p,
            &w,
            GirConfig {
                packed: true,
                ..Default::default()
            },
        );
        let q = p.point(PointId(5)).to_vec();
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        assert_eq!(
            bytes.reverse_top_k(&q, 20, &mut s1),
            packed.reverse_top_k(&q, 20, &mut s2)
        );
        // The blocked byte scan books exactly the per-point work of the
        // scalar packed fallback — including the early-termination prefix
        // — so every counter matches, not just the results.
        assert_eq!(s1, s2);
        // And the packed index is smaller.
        assert!(packed.index_memory_bytes() < bytes.index_memory_bytes());
    }

    #[test]
    fn blocked_and_scalar_paths_report_identical_stats() {
        // Regression: the blocked fast scan booked dominated lanes in
        // `points_visited`/`bound_additions`, credited `domin_skips` only
        // for Case-1 bits, and on early termination had already counted
        // the whole 64-point block — so benchdiff-gated counters diverged
        // between the bytes and packed configurations of the *same*
        // algorithm. The two paths must report identical `QueryStats` on
        // identical workloads, early termination and Domin buffer
        // included.
        let (p, w) = workload(4, 515, 120, 21); // partial final block
        for use_domin in [true, false] {
            let bytes = Gir::new(
                &p,
                &w,
                GirConfig {
                    packed: false,
                    use_domin,
                    ..Default::default()
                },
            );
            let packed = Gir::new(
                &p,
                &w,
                GirConfig {
                    packed: true,
                    use_domin,
                    ..Default::default()
                },
            );
            for qid in [0usize, 250, 514] {
                let q = p.point(PointId(qid)).to_vec();
                // Small k maximises early terminations; large k exercises
                // full scans.
                for k in [1usize, 5, 60] {
                    let mut s1 = QueryStats::default();
                    let mut s2 = QueryStats::default();
                    assert_eq!(
                        bytes.reverse_top_k(&q, k, &mut s1),
                        packed.reverse_top_k(&q, k, &mut s2),
                        "rtk use_domin={use_domin} q={qid} k={k}"
                    );
                    assert_eq!(s1, s2, "rtk stats use_domin={use_domin} q={qid} k={k}");
                    let mut s3 = QueryStats::default();
                    let mut s4 = QueryStats::default();
                    assert_eq!(
                        bytes.reverse_k_ranks(&q, k, &mut s3),
                        packed.reverse_k_ranks(&q, k, &mut s4),
                        "rkr use_domin={use_domin} q={qid} k={k}"
                    );
                    assert_eq!(s3, s4, "rkr stats use_domin={use_domin} q={qid} k={k}");
                }
            }
        }
    }

    #[test]
    fn rtk_with_dominated_query_is_empty() {
        let (p, w) = workload(3, 500, 50, 10);
        let gir = Gir::with_defaults(&p, &w);
        let q = vec![9_999.0, 9_999.0, 9_999.0];
        let mut stats = QueryStats::default();
        assert!(gir.reverse_top_k(&q, 10, &mut stats).is_empty());
    }

    #[test]
    fn k_zero_rtk_is_empty() {
        let (p, w) = workload(3, 50, 10, 11);
        let gir = Gir::with_defaults(&p, &w);
        let q = p.point(PointId(0)).to_vec();
        let mut stats = QueryStats::default();
        assert!(gir.reverse_top_k(&q, 0, &mut stats).is_empty());
    }

    #[test]
    fn rkr_k_exceeding_w_returns_all_with_exact_ranks() {
        let (p, w) = workload(3, 200, 30, 12);
        let gir = Gir::with_defaults(&p, &w);
        let naive = Naive::new(&p, &w);
        let q = p.point(PointId(42)).to_vec();
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        let got = gir.reverse_k_ranks(&q, 100, &mut s1);
        assert_eq!(got.len(), 30);
        assert_eq!(got, naive.reverse_k_ranks(&q, 100, &mut s2));
    }

    #[test]
    fn external_query_point_not_in_p() {
        let (p, w) = workload(4, 300, 60, 13);
        let gir = Gir::with_defaults(&p, &w);
        let naive = Naive::new(&p, &w);
        let q = vec![1_234.5, 6_789.0, 42.0, 5_000.0];
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        assert_eq!(
            gir.reverse_top_k(&q, 15, &mut s1),
            naive.reverse_top_k(&q, 15, &mut s2)
        );
    }

    #[test]
    #[should_panic(expected = "share dimensionality")]
    fn rejects_mismatched_dimensions() {
        let p = synthetic::uniform_points(3, 10, 1.0, 1).unwrap();
        let w = synthetic::uniform_weights(4, 10, 2).unwrap();
        Gir::with_defaults(&p, &w);
    }

    #[test]
    fn blocked_scan_handles_all_block_shapes() {
        // The fast path processes 64-point blocks; exercise sizes around
        // the boundary (partial final block, exact multiple, tiny set).
        let naive_check = |n: usize| {
            let p = synthetic::uniform_points(3, n, 10_000.0, n as u64).unwrap();
            let w = synthetic::uniform_weights(3, 20, n as u64 + 1).unwrap();
            let gir = Gir::with_defaults(&p, &w);
            let naive = Naive::new(&p, &w);
            let q = p.point(PointId(n / 2)).to_vec();
            let mut s1 = QueryStats::default();
            let mut s2 = QueryStats::default();
            assert_eq!(
                gir.reverse_k_ranks(&q, 5, &mut s1),
                naive.reverse_k_ranks(&q, 5, &mut s2),
                "n = {n}"
            );
        };
        for n in [1usize, 63, 64, 65, 127, 128, 129, 200] {
            naive_check(n);
        }
    }

    #[test]
    fn blocked_and_fallback_paths_agree() {
        // The packed store takes the per-point fallback path; results must
        // be identical to the blocked byte path for the same queries.
        let (p, w) = workload(7, 500, 80, 77);
        let blocked = Gir::new(
            &p,
            &w,
            GirConfig {
                packed: false,
                ..Default::default()
            },
        );
        let fallback = Gir::new(
            &p,
            &w,
            GirConfig {
                packed: true,
                ..Default::default()
            },
        );
        for qid in [0usize, 250, 499] {
            let q = p.point(PointId(qid)).to_vec();
            let mut s1 = QueryStats::default();
            let mut s2 = QueryStats::default();
            assert_eq!(
                blocked.reverse_top_k(&q, 25, &mut s1),
                fallback.reverse_top_k(&q, 25, &mut s2)
            );
            let mut s3 = QueryStats::default();
            let mut s4 = QueryStats::default();
            assert_eq!(
                blocked.reverse_k_ranks(&q, 25, &mut s3),
                fallback.reverse_k_ranks(&q, 25, &mut s4)
            );
        }
    }

    #[test]
    fn domin_buffer_counts_are_consistent() {
        // Domin skips only ever grow the saving; results never change.
        let (p, w) = workload(4, 600, 150, 88);
        let with = Gir::with_defaults(&p, &w);
        let without = Gir::new(
            &p,
            &w,
            GirConfig {
                use_domin: false,
                ..Default::default()
            },
        );
        // A query point deep in the data (many dominators).
        let q = vec![8_000.0; 4];
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        assert_eq!(
            with.reverse_k_ranks(&q, 10, &mut s1),
            without.reverse_k_ranks(&q, 10, &mut s2)
        );
        assert!(s1.domin_skips > 0, "dominators must be discovered");
        assert_eq!(s2.domin_skips, 0);
        assert!(s1.points_visited <= s2.points_visited);
    }

    #[test]
    fn index_memory_is_negligible() {
        // The whole point of the paper: index memory ≪ data memory.
        let (p, w) = workload(6, 5000, 5000, 14);
        let gir = Gir::new(
            &p,
            &w,
            GirConfig {
                packed: true,
                ..Default::default()
            },
        );
        let data_bytes = (p.as_flat().len() + w.as_flat().len()) * 8;
        assert!(gir.index_memory_bytes() < data_bytes / 4);
    }
}
