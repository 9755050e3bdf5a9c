//! Query explain: per-cell pruning provenance, filter→refine funnels and
//! bound-evolution timelines.
//!
//! The paper's contribution is *where* work disappears — grid cells
//! classified Precedes/Succeeds/Incomparable (Table 2 cases 1–3), Domin
//! buffer skips, rank-bound tightening — yet aggregate counters cannot say
//! *which cell* or *which weight* two engines disagreed on. This module
//! turns one RTK/RKR execution into an inspectable artifact:
//!
//! * [`ExplainSink`] is the instrumentation trait threaded through the
//!   engine's scan loops. Its no-op impl [`NoopSink`] compiles away:
//!   `enabled()` is a monomorphised constant `false`, every call site
//!   guards event construction behind it, and the existing alloc-track
//!   tests pin the untraced path at zero allocations.
//! * [`ExplainDoc`] is the collecting impl *and* the serialised artifact:
//!   a versioned, hand-rolled-JSON document holding the query header, a
//!   per-cell classification map (counts plus the grid bound values that
//!   decided each class), a filter→refine [`Funnel`] that reconciles
//!   exactly against the engine's `QueryStats`, and a [`BoundEvent`]
//!   timeline recording each RKR `minRank` / RTK saturation tightening
//!   with its source (local scan or epoch exchange).
//! * [`ExplainDoc::diff`] structurally compares two documents and returns
//!   the first [`Divergence`] — the cell, weight or bound event where two
//!   runs parted ways.
//!
//! Determinism contract: for a fixed engine and configuration the document
//! is a pure function of (data, query, shards, epoch), so two same-seed
//! runs serialise byte-identically. Across engines (sequential vs
//! `ParGir`) only the header and results are invariant — per-shard Domin
//! buffers legitimately change coverage — which is what
//! [`ExplainDoc::structural_eq`] checks.

use crate::json::{self, Json};
use std::collections::BTreeMap;

/// Version stamped into every serialised document. Bump on any schema
/// change; [`ExplainDoc::from_json`] rejects other versions loudly.
pub const EXPLAIN_SCHEMA: u64 = 1;

/// Which reverse rank query produced the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainKind {
    /// Reverse top-k (paper Alg. 2, GIRTop-k).
    Rtk,
    /// Reverse k-ranks (paper Alg. 3, GIRk-Ranks).
    Rkr,
}

impl ExplainKind {
    /// Canonical lowercase tag used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            ExplainKind::Rtk => "rtk",
            ExplainKind::Rkr => "rkr",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse_str(s: &str) -> Result<Self, String> {
        match s {
            "rtk" => Ok(ExplainKind::Rtk),
            "rkr" => Ok(ExplainKind::Rkr),
            other => Err(format!("unknown explain kind {other:?}")),
        }
    }
}

/// Outcome of one grid classification (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainClass {
    /// Case 1: the point's upper score bound is strictly below `f_w(q)` —
    /// it precedes the query and is counted without refinement.
    Precedes,
    /// Case 2: the point's lower score bound is at least `f_w(q)` — it
    /// succeeds the query and is discarded without refinement.
    Succeeds,
    /// Case 3: the bounds straddle `f_w(q)` — an exact dot product decided.
    Refined,
}

/// Where a bound tightening came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundSource {
    /// The worker's own scan tightened its local bound (sequential scans
    /// only ever emit this source).
    LocalScan,
    /// A deterministic epoch exchange folded all workers' bounds
    /// (`BoundMode::Epoch`).
    EpochExchange,
}

impl BoundSource {
    /// Canonical lowercase tag used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            BoundSource::LocalScan => "local",
            BoundSource::EpochExchange => "epoch",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse_str(s: &str) -> Result<Self, String> {
        match s {
            "local" => Ok(BoundSource::LocalScan),
            "epoch" => Ok(BoundSource::EpochExchange),
            other => Err(format!("unknown bound source {other:?}")),
        }
    }
}

/// One entry of the bound-evolution timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundEvent {
    /// Provenance of the tightening.
    pub source: BoundSource,
    /// The weight index the event is anchored to — or, for
    /// [`BoundSource::EpochExchange`], the epoch round number.
    pub weight: u64,
    /// The bound value after the event: the RKR `minRank` (heap
    /// threshold), or the dominator count for RTK saturation.
    pub bound: u64,
    /// Whether the event announced RTK saturation (≥ k dominators found,
    /// so the result set is globally empty).
    pub saturated: bool,
}

/// Per-class tally within one cell: how many points landed in the class
/// and the grid bound values that decided the *last* such point (scan
/// order is deterministic, so "last" is reproducible).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassTally {
    /// Number of (point, weight) classifications with this outcome.
    pub count: u64,
    /// `score_lower` (Eq. 3) of the last point decided into this class.
    pub lower: f64,
    /// `score_upper` (Eq. 4) of the last point decided into this class.
    pub upper: f64,
}

impl ClassTally {
    fn observe(&mut self, lower: f64, upper: f64) {
        self.count += 1;
        self.lower = lower;
        self.upper = upper;
    }

    fn merge(&mut self, other: &ClassTally) {
        self.count += other.count;
        if other.count > 0 {
            self.lower = other.lower;
            self.upper = other.upper;
        }
    }
}

/// Aggregated provenance for one grid cell (keyed by the point's
/// quantised coordinate row `P^(A)[p]`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellExplain {
    /// Case 1 classifications (filtered, counted into the rank).
    pub case1: ClassTally,
    /// Case 2 classifications (filtered, discarded).
    pub case2: ClassTally,
    /// Case 3 classifications (refined with an exact dot product).
    pub refined: ClassTally,
    /// Scans that skipped a point in this cell because the Domin buffer
    /// already knew it dominates the query.
    pub domin_skips: u64,
    /// Points in this cell inserted into the Domin buffer (cell-level
    /// domination test passed).
    pub domin_inserts: u64,
}

impl CellExplain {
    fn merge(&mut self, other: &CellExplain) {
        self.case1.merge(&other.case1);
        self.case2.merge(&other.case2);
        self.refined.merge(&other.refined);
        self.domin_skips += other.domin_skips;
        self.domin_inserts += other.domin_inserts;
    }
}

/// The filter→refine funnel: how many candidate pairs entered each stage.
///
/// Reconciles *exactly* against the engine's `QueryStats` counters — see
/// [`Funnel::reconcile`] — which is the self-check that the explain layer
/// observed every event the engine booked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Weight vectors whose scan started (`weights_visited`).
    pub weights: u64,
    /// Points classified by the grid (`points_visited`); always equals
    /// `case1 + case2 + refined`.
    pub scanned: u64,
    /// Case 1 filter hits (`filtered_case1`).
    pub case1: u64,
    /// Case 2 filter hits (`filtered_case2`).
    pub case2: u64,
    /// Case 3 refinements (`refined`).
    pub refined: u64,
    /// Points skipped via the Domin buffer (`domin_skips`).
    pub domin_skips: u64,
    /// Scans cut short by the rank bound (`early_terminations`).
    pub early_terminations: u64,
    /// Weights decided by a materialized k-th-score threshold comparison
    /// without a grid scan (`threshold_hits`). These weights never reach
    /// `classify`, so they are *not* part of `scanned`.
    pub threshold_hits: u64,
    /// Tombstoned entries skipped (`tombstones_skipped`). Tombstoned
    /// points/weights never reach `classify`, so they are not part of
    /// `scanned`.
    pub tombstones: u64,
    /// Live append-log entries examined (`appended_scanned`). Appended
    /// points *do* reach `classify` and are therefore also counted in
    /// `scanned`; this field tallies how many of the scanned entries came
    /// from the append tail.
    pub appended: u64,
    /// Threshold rows repaired (`threshold_rows_repaired`). Write-side:
    /// query scans book zero, so explained queries mirror zero.
    pub rows_repaired: u64,
    /// Epochs published (`epoch_published`). Write-side like
    /// `rows_repaired`.
    pub epochs_published: u64,
}

impl Funnel {
    /// Checks internal consistency and exact agreement with the engine's
    /// counters, given as the `(name, value)` pairs of
    /// `QueryStats::counters()`. Counter names the funnel does not mirror
    /// (multiplications, tree traversal, …) are ignored; a *missing*
    /// mirrored name is an error so schema drift fails loudly.
    pub fn reconcile(&self, counters: &[(&str, u64)]) -> Result<(), String> {
        if self.scanned != self.case1 + self.case2 + self.refined {
            return Err(format!(
                "funnel inconsistent: scanned {} != case1 {} + case2 {} + refined {}",
                self.scanned, self.case1, self.case2, self.refined
            ));
        }
        let expect = [
            ("weights_visited", self.weights),
            ("points_visited", self.scanned),
            ("filtered_case1", self.case1),
            ("filtered_case2", self.case2),
            ("refined", self.refined),
            ("domin_skips", self.domin_skips),
            ("early_terminations", self.early_terminations),
            ("threshold_hits", self.threshold_hits),
            ("tombstones_skipped", self.tombstones),
            ("appended_scanned", self.appended),
            ("threshold_rows_repaired", self.rows_repaired),
            ("epoch_published", self.epochs_published),
        ];
        for (name, want) in expect {
            let got = counters
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("engine counters missing {name:?}"))?;
            if got != want {
                return Err(format!(
                    "funnel/{name} mismatch: explain saw {want}, engine counted {got}"
                ));
            }
        }
        Ok(())
    }
}

/// Sentinel rank recorded with [`ExplainSink::result`] when membership
/// was certified by a threshold comparison without computing the exact
/// rank (the `ThresholdIndex` short-circuit): the weight is in the
/// result, its rank is only known to be `< k`.
pub const RANK_CERTIFIED: u64 = u64::MAX;

/// Instrumentation hooks the engine's scan loops call.
///
/// Mirrors the `Recorder` pattern: generic monomorphisation plus an
/// `enabled()` gate that call sites consult *before* constructing event
/// arguments, so the [`NoopSink`] path is branch-predictable and
/// allocation-free. All event methods default to no-ops — a sink
/// implements only what it cares about.
pub trait ExplainSink {
    /// Whether events should be constructed at all. [`NoopSink`] returns a
    /// constant `false` the optimiser erases.
    fn enabled(&self) -> bool;

    /// A query began: kind, query point, `k` and the grid partition count.
    fn begin_query(&mut self, kind: ExplainKind, q: &[f64], k: u64, partitions: u64) {
        let _ = (kind, q, k, partitions);
    }

    /// A weight vector's scan started.
    fn weight(&mut self, wid: u64) {
        let _ = wid;
    }

    /// One grid classification: the point's quantised cell, the outcome
    /// class and the lower/upper score bounds (Eq. 3/4) that decided it.
    fn classify(&mut self, cell: &[u8], class: ExplainClass, lower: f64, upper: f64) {
        let _ = (cell, class, lower, upper);
    }

    /// A point was skipped because the Domin buffer already holds it.
    fn domin_skip(&mut self, cell: &[u8]) {
        let _ = cell;
    }

    /// A point passed the cell-domination test and entered the Domin
    /// buffer.
    fn domin_insert(&mut self, cell: &[u8]) {
        let _ = cell;
    }

    /// A per-weight scan stopped early because the rank exceeded the
    /// bound.
    fn early_termination(&mut self) {}

    /// A tombstoned (deleted) point or weight was skipped by a scan over
    /// a mutable snapshot.
    fn tombstone_skip(&mut self) {}

    /// A live append-log entry (point or weight inserted after the base
    /// build) was examined by a scan over a mutable snapshot.
    fn appended_scan(&mut self) {}

    /// A weight was decided by the materialized threshold index — one
    /// comparison against the k-th-best score instead of a grid scan.
    /// `member` is whether the comparison certified RTK membership (for
    /// RKR skips it is always `false`).
    fn threshold_hit(&mut self, wid: u64, member: bool) {
        let _ = (wid, member);
    }

    /// The scan bound tightened (or saturation was observed).
    fn bound_event(&mut self, source: BoundSource, weight: u64, bound: u64, saturated: bool) {
        let _ = (source, weight, bound, saturated);
    }

    /// A weight entered the result set with the given exact rank.
    fn result(&mut self, wid: u64, rank: u64) {
        let _ = (wid, rank);
    }

    /// RTK saturation proved the result set globally empty: drop any
    /// result events recorded before the proof landed.
    fn invalidate_results(&mut self) {}

    /// Folds a shard sink produced by a parallel worker into this one.
    /// Callers merge in worker-index order so the outcome is
    /// deterministic.
    fn absorb(&mut self, shard: Self)
    where
        Self: Sized,
    {
        let _ = shard;
    }
}

/// The zero-cost sink threaded through untraced query paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl ExplainSink for NoopSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// A structured, versioned, diffable record of one query execution.
///
/// Doubles as the collecting [`ExplainSink`]: hand a `&mut ExplainDoc` to
/// an `*_explained` entry point and it fills itself. Serialises with
/// [`Self::to_json`] / parses with [`Self::from_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExplainDoc {
    /// Query kind; `None` until a query ran into this document.
    pub kind: Option<ExplainKind>,
    /// Engine label (`"GIR"`, `"ParGir"`, …). Identity metadata: excluded
    /// from [`Self::structural_eq`].
    pub engine: String,
    /// Engine configuration pairs (threads, bound mode, …). Identity
    /// metadata like `engine`.
    pub config: Vec<(String, String)>,
    /// The query's `k`.
    pub k: u64,
    /// Dimensionality of the query point.
    pub dims: u64,
    /// Grid partitions per dimension (`n` in the paper).
    pub partitions: u64,
    /// The query point.
    pub q: Vec<f64>,
    /// The filter→refine funnel.
    pub funnel: Funnel,
    /// Per-cell provenance, keyed by the quantised point row. BTreeMap so
    /// serialisation order is deterministic.
    pub cells: BTreeMap<Vec<u8>, CellExplain>,
    /// Bound-evolution timeline in observation order (shard-merged in
    /// worker-index order for parallel runs).
    pub timeline: Vec<BoundEvent>,
    /// Result set as `(weight_id, exact_rank)` pairs. Exact ranks are an
    /// engine invariant, so this section participates in
    /// [`Self::structural_eq`].
    pub results: Vec<(u64, u64)>,
}

impl ExplainSink for ExplainDoc {
    fn enabled(&self) -> bool {
        true
    }

    fn begin_query(&mut self, kind: ExplainKind, q: &[f64], k: u64, partitions: u64) {
        self.kind = Some(kind);
        self.q = q.to_vec();
        self.dims = q.len() as u64;
        self.k = k;
        self.partitions = partitions;
    }

    fn weight(&mut self, wid: u64) {
        let _ = wid;
        self.funnel.weights += 1;
    }

    fn classify(&mut self, cell: &[u8], class: ExplainClass, lower: f64, upper: f64) {
        self.funnel.scanned += 1;
        let entry = self.cells.entry(cell.to_vec()).or_default();
        match class {
            ExplainClass::Precedes => {
                self.funnel.case1 += 1;
                entry.case1.observe(lower, upper);
            }
            ExplainClass::Succeeds => {
                self.funnel.case2 += 1;
                entry.case2.observe(lower, upper);
            }
            ExplainClass::Refined => {
                self.funnel.refined += 1;
                entry.refined.observe(lower, upper);
            }
        }
    }

    fn domin_skip(&mut self, cell: &[u8]) {
        self.funnel.domin_skips += 1;
        self.cells.entry(cell.to_vec()).or_default().domin_skips += 1;
    }

    fn domin_insert(&mut self, cell: &[u8]) {
        self.cells.entry(cell.to_vec()).or_default().domin_inserts += 1;
    }

    fn early_termination(&mut self) {
        self.funnel.early_terminations += 1;
    }

    fn tombstone_skip(&mut self) {
        self.funnel.tombstones += 1;
    }

    fn appended_scan(&mut self) {
        self.funnel.appended += 1;
    }

    fn threshold_hit(&mut self, wid: u64, member: bool) {
        let _ = (wid, member);
        self.funnel.threshold_hits += 1;
    }

    fn bound_event(&mut self, source: BoundSource, weight: u64, bound: u64, saturated: bool) {
        self.timeline.push(BoundEvent {
            source,
            weight,
            bound,
            saturated,
        });
    }

    fn result(&mut self, wid: u64, rank: u64) {
        self.results.push((wid, rank));
    }

    fn invalidate_results(&mut self) {
        self.results.clear();
    }

    fn absorb(&mut self, shard: Self) {
        self.funnel.weights += shard.funnel.weights;
        self.funnel.scanned += shard.funnel.scanned;
        self.funnel.case1 += shard.funnel.case1;
        self.funnel.case2 += shard.funnel.case2;
        self.funnel.refined += shard.funnel.refined;
        self.funnel.domin_skips += shard.funnel.domin_skips;
        self.funnel.early_terminations += shard.funnel.early_terminations;
        self.funnel.threshold_hits += shard.funnel.threshold_hits;
        self.funnel.tombstones += shard.funnel.tombstones;
        self.funnel.appended += shard.funnel.appended;
        self.funnel.rows_repaired += shard.funnel.rows_repaired;
        self.funnel.epochs_published += shard.funnel.epochs_published;
        for (cell, agg) in shard.cells {
            self.cells.entry(cell).or_default().merge(&agg);
        }
        self.timeline.extend(shard.timeline);
        self.results.extend(shard.results);
    }
}

fn req<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing member {key:?}"))
}

fn req_u64(j: &Json, key: &str) -> Result<u64, String> {
    req(j, key)?
        .as_u64()
        .ok_or_else(|| format!("member {key:?} is not an unsigned integer"))
}

/// An unsigned member that older document versions may omit (defaults to
/// zero); present-but-mistyped is still an error.
fn opt_u64(j: &Json, key: &str) -> Result<u64, String> {
    match j.get(key) {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("member {key:?} is not an unsigned integer")),
        None => Ok(0),
    }
}

fn req_f64(j: &Json, key: &str) -> Result<f64, String> {
    req(j, key)?
        .as_f64()
        .ok_or_else(|| format!("member {key:?} is not a number"))
}

fn req_str(j: &Json, key: &str) -> Result<String, String> {
    Ok(req(j, key)?
        .as_str()
        .ok_or_else(|| format!("member {key:?} is not a string"))?
        .to_string())
}

fn req_bool(j: &Json, key: &str) -> Result<bool, String> {
    match req(j, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("member {key:?} is not a boolean")),
    }
}

fn req_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    req(j, key)?
        .items()
        .ok_or_else(|| format!("member {key:?} is not an array"))
}

/// Renders a quantised cell row as the dotted key used in JSON and diff
/// output, e.g. `[3, 1, 4]` → `"3.1.4"`.
pub fn cell_key(cell: &[u8]) -> String {
    let parts: Vec<String> = cell.iter().map(|c| c.to_string()).collect();
    parts.join(".")
}

fn parse_cell_key(s: &str) -> Result<Vec<u8>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split('.')
        .map(|p| {
            p.parse::<u8>()
                .map_err(|_| format!("bad cell key component {p:?}"))
        })
        .collect()
}

fn tally_to_json(t: &ClassTally) -> Json {
    Json::obj([
        ("count", Json::UInt(t.count)),
        ("lower", Json::Num(t.lower)),
        ("upper", Json::Num(t.upper)),
    ])
}

fn tally_from_json(j: &Json) -> Result<ClassTally, String> {
    Ok(ClassTally {
        count: req_u64(j, "count")?,
        lower: req_f64(j, "lower")?,
        upper: req_f64(j, "upper")?,
    })
}

impl ExplainDoc {
    /// A fresh, empty document ready to record one query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the engine label (identity metadata, not diffed structurally).
    pub fn set_engine(&mut self, engine: &str) {
        self.engine = engine.to_string();
    }

    /// Appends one engine-configuration pair.
    pub fn push_config(&mut self, key: &str, value: &str) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Serialises to the schema-versioned JSON tree.
    pub fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|(cell, agg)| {
                Json::obj([
                    ("cell", Json::str(cell_key(cell))),
                    ("case1", tally_to_json(&agg.case1)),
                    ("case2", tally_to_json(&agg.case2)),
                    ("refined", tally_to_json(&agg.refined)),
                    ("domin_skips", Json::UInt(agg.domin_skips)),
                    ("domin_inserts", Json::UInt(agg.domin_inserts)),
                ])
            })
            .collect();
        let timeline: Vec<Json> = self
            .timeline
            .iter()
            .map(|e| {
                Json::obj([
                    ("source", Json::str(e.source.as_str())),
                    ("weight", Json::UInt(e.weight)),
                    ("bound", Json::UInt(e.bound)),
                    ("saturated", Json::Bool(e.saturated)),
                ])
            })
            .collect();
        let results: Vec<Json> = self
            .results
            .iter()
            .map(|(wid, rank)| Json::Arr(vec![Json::UInt(*wid), Json::UInt(*rank)]))
            .collect();
        Json::obj([
            ("schema", Json::UInt(EXPLAIN_SCHEMA)),
            (
                "kind",
                match self.kind {
                    Some(k) => Json::str(k.as_str()),
                    None => Json::Null,
                },
            ),
            ("engine", Json::str(self.engine.clone())),
            (
                "config",
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                        .collect(),
                ),
            ),
            ("k", Json::UInt(self.k)),
            ("dims", Json::UInt(self.dims)),
            ("partitions", Json::UInt(self.partitions)),
            (
                "q",
                Json::Arr(self.q.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "funnel",
                Json::obj([
                    ("weights", Json::UInt(self.funnel.weights)),
                    ("scanned", Json::UInt(self.funnel.scanned)),
                    ("case1", Json::UInt(self.funnel.case1)),
                    ("case2", Json::UInt(self.funnel.case2)),
                    ("refined", Json::UInt(self.funnel.refined)),
                    ("domin_skips", Json::UInt(self.funnel.domin_skips)),
                    (
                        "early_terminations",
                        Json::UInt(self.funnel.early_terminations),
                    ),
                    ("threshold_hits", Json::UInt(self.funnel.threshold_hits)),
                    ("tombstones", Json::UInt(self.funnel.tombstones)),
                    ("appended", Json::UInt(self.funnel.appended)),
                    ("rows_repaired", Json::UInt(self.funnel.rows_repaired)),
                    ("epochs_published", Json::UInt(self.funnel.epochs_published)),
                ]),
            ),
            ("cells", Json::Arr(cells)),
            ("timeline", Json::Arr(timeline)),
            ("results", Json::Arr(results)),
        ])
    }

    /// Serialises to pretty-printed JSON text (the on-disk format).
    pub fn to_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Decodes a document, rejecting unknown schema versions loudly.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let schema = req_u64(j, "schema")?;
        if schema != EXPLAIN_SCHEMA {
            return Err(format!(
                "unsupported explain schema {schema} (this build reads {EXPLAIN_SCHEMA})"
            ));
        }
        let kind = match req(j, "kind")? {
            Json::Null => None,
            Json::Str(s) => Some(ExplainKind::parse_str(s)?),
            _ => return Err("member \"kind\" is neither null nor a string".to_string()),
        };
        let config = req(j, "config")?
            .entries()
            .ok_or_else(|| "member \"config\" is not an object".to_string())?
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("config value {k:?} is not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let q = req_arr(j, "q")?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| "q entry not a number".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let f = req(j, "funnel")?;
        let funnel = Funnel {
            weights: req_u64(f, "weights")?,
            scanned: req_u64(f, "scanned")?,
            case1: req_u64(f, "case1")?,
            case2: req_u64(f, "case2")?,
            refined: req_u64(f, "refined")?,
            domin_skips: req_u64(f, "domin_skips")?,
            early_terminations: req_u64(f, "early_terminations")?,
            // Absent in documents written before the threshold index
            // existed; those engines could not have short-circuited.
            threshold_hits: match f.get("threshold_hits") {
                Some(v) => v.as_u64().ok_or_else(|| {
                    "member \"threshold_hits\" is not an unsigned integer".to_string()
                })?,
                None => 0,
            },
            // Absent in documents written before the update subsystem
            // existed; immutable engines book none of these.
            tombstones: opt_u64(f, "tombstones")?,
            appended: opt_u64(f, "appended")?,
            rows_repaired: opt_u64(f, "rows_repaired")?,
            epochs_published: opt_u64(f, "epochs_published")?,
        };
        let mut cells = BTreeMap::new();
        for c in req_arr(j, "cells")? {
            let key = parse_cell_key(&req_str(c, "cell")?)?;
            let agg = CellExplain {
                case1: tally_from_json(req(c, "case1")?)?,
                case2: tally_from_json(req(c, "case2")?)?,
                refined: tally_from_json(req(c, "refined")?)?,
                domin_skips: req_u64(c, "domin_skips")?,
                domin_inserts: req_u64(c, "domin_inserts")?,
            };
            if cells.insert(key.clone(), agg).is_some() {
                return Err(format!("duplicate cell {:?}", cell_key(&key)));
            }
        }
        let timeline = req_arr(j, "timeline")?
            .iter()
            .map(|e| {
                Ok(BoundEvent {
                    source: BoundSource::parse_str(&req_str(e, "source")?)?,
                    weight: req_u64(e, "weight")?,
                    bound: req_u64(e, "bound")?,
                    saturated: req_bool(e, "saturated")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let results = req_arr(j, "results")?
            .iter()
            .map(|r| {
                let pair = r
                    .items()
                    .filter(|it| it.len() == 2)
                    .ok_or_else(|| "result entry is not a [wid, rank] pair".to_string())?;
                let wid = pair[0]
                    .as_u64()
                    .ok_or_else(|| "result wid not an integer".to_string())?;
                let rank = pair[1]
                    .as_u64()
                    .ok_or_else(|| "result rank not an integer".to_string())?;
                Ok((wid, rank))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ExplainDoc {
            kind,
            engine: req_str(j, "engine")?,
            config,
            k: req_u64(j, "k")?,
            dims: req_u64(j, "dims")?,
            partitions: req_u64(j, "partitions")?,
            q,
            funnel,
            cells,
            timeline,
            results,
        })
    }

    /// Parses a serialised document from JSON text.
    pub fn parse(input: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(input)?)
    }

    /// Structural equality: header (kind, k, dims, partitions, q) and the
    /// result set — the parts every correct engine must agree on
    /// regardless of coverage differences.
    pub fn structural_eq(&self, other: &ExplainDoc) -> bool {
        self.diff(other, true).is_none()
    }

    /// Returns the first divergence between two documents, or `None` if
    /// they agree.
    ///
    /// With `structural` set, only the header and results are compared
    /// (the cross-engine contract). A full diff additionally walks the
    /// funnel, the cell map (BTreeMap order, so "first" is the smallest
    /// divergent cell key) and the bound timeline — the run-vs-run
    /// determinism contract for a fixed engine and configuration.
    pub fn diff(&self, other: &ExplainDoc, structural: bool) -> Option<Divergence> {
        fn d(
            section: &'static str,
            key: impl Into<String>,
            a: impl Into<String>,
            b: impl Into<String>,
        ) -> Option<Divergence> {
            Some(Divergence {
                section,
                key: key.into(),
                a: a.into(),
                b: b.into(),
            })
        }
        let kind_str = |k: Option<ExplainKind>| k.map(|k| k.as_str()).unwrap_or("unset");
        if self.kind != other.kind {
            return d("header", "kind", kind_str(self.kind), kind_str(other.kind));
        }
        for (key, a, b) in [
            ("k", self.k, other.k),
            ("dims", self.dims, other.dims),
            ("partitions", self.partitions, other.partitions),
        ] {
            if a != b {
                return d("header", key, a.to_string(), b.to_string());
            }
        }
        if self.q.len() != other.q.len() {
            return d(
                "header",
                "q.len",
                self.q.len().to_string(),
                other.q.len().to_string(),
            );
        }
        for (i, (a, b)) in self.q.iter().zip(&other.q).enumerate() {
            if a.to_bits() != b.to_bits() {
                return d(
                    "header",
                    format!("q[{i}]"),
                    format!("{a:?}"),
                    format!("{b:?}"),
                );
            }
        }
        if self.results != other.results {
            let n = self.results.len().min(other.results.len());
            for i in 0..n {
                if self.results[i] != other.results[i] {
                    let (aw, ar) = self.results[i];
                    let (bw, br) = other.results[i];
                    return d(
                        "results",
                        format!("[{i}]"),
                        format!("w{aw} rank {ar}"),
                        format!("w{bw} rank {br}"),
                    );
                }
            }
            return d(
                "results",
                "len",
                self.results.len().to_string(),
                other.results.len().to_string(),
            );
        }
        if structural {
            return None;
        }
        if self.engine != other.engine {
            return d("header", "engine", &self.engine, &other.engine);
        }
        if self.config != other.config {
            return d(
                "header",
                "config",
                format!("{:?}", self.config),
                format!("{:?}", other.config),
            );
        }
        for (key, a, b) in [
            ("weights", self.funnel.weights, other.funnel.weights),
            ("scanned", self.funnel.scanned, other.funnel.scanned),
            ("case1", self.funnel.case1, other.funnel.case1),
            ("case2", self.funnel.case2, other.funnel.case2),
            ("refined", self.funnel.refined, other.funnel.refined),
            (
                "domin_skips",
                self.funnel.domin_skips,
                other.funnel.domin_skips,
            ),
            (
                "early_terminations",
                self.funnel.early_terminations,
                other.funnel.early_terminations,
            ),
            (
                "threshold_hits",
                self.funnel.threshold_hits,
                other.funnel.threshold_hits,
            ),
            (
                "tombstones",
                self.funnel.tombstones,
                other.funnel.tombstones,
            ),
            ("appended", self.funnel.appended, other.funnel.appended),
            (
                "rows_repaired",
                self.funnel.rows_repaired,
                other.funnel.rows_repaired,
            ),
            (
                "epochs_published",
                self.funnel.epochs_published,
                other.funnel.epochs_published,
            ),
        ] {
            if a != b {
                return d("funnel", key, a.to_string(), b.to_string());
            }
        }
        let keys: std::collections::BTreeSet<&Vec<u8>> =
            self.cells.keys().chain(other.cells.keys()).collect();
        for cell in keys {
            let key = cell_key(cell);
            match (self.cells.get(cell), other.cells.get(cell)) {
                (Some(_), None) => return d("cell", key, "present", "absent"),
                (None, Some(_)) => return d("cell", key, "absent", "present"),
                (Some(a), Some(b)) if a != b => {
                    for (field, ta, tb) in [
                        ("case1", &a.case1, &b.case1),
                        ("case2", &a.case2, &b.case2),
                        ("refined", &a.refined, &b.refined),
                    ] {
                        if ta.count != tb.count {
                            return d(
                                "cell",
                                key,
                                format!("{field}.count={}", ta.count),
                                format!("{field}.count={}", tb.count),
                            );
                        }
                        if ta.lower.to_bits() != tb.lower.to_bits()
                            || ta.upper.to_bits() != tb.upper.to_bits()
                        {
                            return d(
                                "cell",
                                key,
                                format!("{field} bounds [{:?}, {:?}]", ta.lower, ta.upper),
                                format!("{field} bounds [{:?}, {:?}]", tb.lower, tb.upper),
                            );
                        }
                    }
                    if a.domin_skips != b.domin_skips {
                        return d(
                            "cell",
                            key,
                            format!("domin_skips={}", a.domin_skips),
                            format!("domin_skips={}", b.domin_skips),
                        );
                    }
                    return d(
                        "cell",
                        key,
                        format!("domin_inserts={}", a.domin_inserts),
                        format!("domin_inserts={}", b.domin_inserts),
                    );
                }
                _ => {}
            }
        }
        let n = self.timeline.len().min(other.timeline.len());
        for i in 0..n {
            let (a, b) = (&self.timeline[i], &other.timeline[i]);
            if a != b {
                let fmt = |e: &BoundEvent| {
                    format!(
                        "{} w{} bound {}{}",
                        e.source.as_str(),
                        e.weight,
                        e.bound,
                        if e.saturated { " saturated" } else { "" }
                    )
                };
                return d("timeline", format!("[{i}]"), fmt(a), fmt(b));
            }
        }
        if self.timeline.len() != other.timeline.len() {
            return d(
                "timeline",
                "len",
                self.timeline.len().to_string(),
                other.timeline.len().to_string(),
            );
        }
        None
    }

    /// Pretty-prints the document as a funnel bar chart plus an ASCII
    /// heatmap of refinement concentration over the first two grid
    /// dimensions.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let kind = self.kind.map(|k| k.as_str()).unwrap_or("unset");
        out.push_str(&format!(
            "explain {kind} k={} dims={} n={} engine={}",
            self.k, self.dims, self.partitions, self.engine
        ));
        if !self.config.is_empty() {
            let pairs: Vec<String> = self
                .config
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!(" ({})", pairs.join(", ")));
        }
        out.push('\n');
        let qs: Vec<String> = self.q.iter().map(|v| format!("{v:.4}")).collect();
        out.push_str(&format!("q = [{}]\n\nfunnel\n", qs.join(", ")));
        let rows = [
            ("weights", self.funnel.weights),
            ("scanned", self.funnel.scanned),
            ("case1 (precede)", self.funnel.case1),
            ("case2 (succeed)", self.funnel.case2),
            ("refined", self.funnel.refined),
            ("domin skips", self.funnel.domin_skips),
            ("early terms", self.funnel.early_terminations),
            ("threshold hits", self.funnel.threshold_hits),
            ("tombstones", self.funnel.tombstones),
            ("appended", self.funnel.appended),
            ("rows repaired", self.funnel.rows_repaired),
            ("epochs", self.funnel.epochs_published),
        ];
        let max = rows.iter().map(|(_, v)| *v).max().unwrap_or(0).max(1);
        for (label, value) in rows {
            let width = ((value as u128 * 40) / max as u128) as usize;
            out.push_str(&format!(
                "  {label:<16} {value:>12} |{}|\n",
                "#".repeat(width)
            ));
        }
        out.push('\n');
        out.push_str(&self.render_heatmap());
        out.push_str(&format!(
            "\ntimeline: {} events (local={}, epoch={})\n",
            self.timeline.len(),
            self.count_source(BoundSource::LocalScan),
            self.count_source(BoundSource::EpochExchange),
        ));
        out.push_str(&format!("results: {}\n", self.results.len()));
        out
    }

    fn count_source(&self, s: BoundSource) -> usize {
        self.timeline.iter().filter(|e| e.source == s).count()
    }

    fn render_heatmap(&self) -> String {
        if self.cells.is_empty() || self.partitions == 0 {
            return "cells: none scanned\n".to_string();
        }
        let n = self.partitions as usize;
        // Downsample grids wider than 64 cells so rows stay terminal-sized.
        let scale = n.div_ceil(64);
        let side = n.div_ceil(scale);
        let project = |cell: &[u8], dim: usize| -> usize {
            (cell.get(dim).copied().unwrap_or(0) as usize / scale).min(side - 1)
        };
        let mut grid = vec![0u64; side * side];
        for (cell, agg) in &self.cells {
            let (r, c) = (project(cell, 0), project(cell, 1));
            grid[r * side + c] += agg.refined.count;
        }
        let max = grid.iter().copied().max().unwrap_or(0);
        let ramp: &[u8] = b" .:-=+*#%@";
        let mut out = format!(
            "cells: {} distinct; refined-count heatmap over dims 0x1 ({side}x{side}, scale {scale}):\n",
            self.cells.len()
        );
        for r in 0..side {
            out.push_str("  |");
            for c in 0..side {
                let v = grid[r * side + c];
                let idx = if max == 0 {
                    0
                } else {
                    ((v as u128 * (ramp.len() - 1) as u128) / max as u128) as usize
                };
                out.push(ramp[idx] as char);
            }
            out.push_str("|\n");
        }
        out
    }
}

/// The first point where two [`ExplainDoc`]s disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Which section diverged: `"header"`, `"results"`, `"funnel"`,
    /// `"cell"` or `"timeline"`.
    pub section: &'static str,
    /// The diverging key within the section (field name, dotted cell key,
    /// or `[index]`).
    pub key: String,
    /// Rendering of the left document's value.
    pub a: String,
    /// Rendering of the right document's value.
    pub b: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first divergence at {} {}: {} != {}",
            self.section, self.key, self.a, self.b
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> ExplainDoc {
        let mut doc = ExplainDoc::new();
        doc.set_engine("GIR");
        doc.push_config("mode", "seq");
        doc.begin_query(ExplainKind::Rkr, &[0.25, 0.5], 3, 8);
        doc.weight(0);
        doc.classify(&[1, 2], ExplainClass::Precedes, 0.1, 0.2);
        doc.classify(&[1, 2], ExplainClass::Refined, 0.2, 0.4);
        doc.classify(&[7, 0], ExplainClass::Succeeds, 0.9, 1.1);
        doc.domin_skip(&[1, 2]);
        doc.domin_insert(&[1, 2]);
        doc.weight(1);
        doc.early_termination();
        doc.bound_event(BoundSource::LocalScan, 0, 5, false);
        doc.bound_event(BoundSource::EpochExchange, 1, 4, false);
        doc.result(0, 5);
        doc
    }

    #[test]
    fn json_round_trip_is_exact() {
        let doc = sample_doc();
        let text = doc.to_pretty();
        let back = ExplainDoc::parse(&text).expect("parse back");
        assert_eq!(back, doc);
        // Serialisation is deterministic: byte-identical on re-export.
        assert_eq!(back.to_pretty(), text);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut j = sample_doc().to_json();
        if let Json::Obj(pairs) = &mut j {
            for (k, v) in pairs.iter_mut() {
                if k == "schema" {
                    *v = Json::UInt(99);
                }
            }
        }
        let err = ExplainDoc::from_json(&j).unwrap_err();
        assert!(err.contains("schema 99"), "got {err}");
        // Every timeline source is deterministic; a document naming any
        // other ("shared") is rejected.
        let text = sample_doc().to_pretty();
        let shared = text.replacen("\"source\": \"epoch\"", "\"source\": \"shared\"", 1);
        assert_ne!(shared, text, "sample timeline carries an epoch event");
        let err = ExplainDoc::parse(&shared).unwrap_err();
        assert!(err.contains("unknown bound source \"shared\""), "got {err}");
    }

    #[test]
    fn funnel_reconciles_against_matching_counters() {
        let doc = sample_doc();
        let counters = [
            ("multiplications", 17u64),
            ("weights_visited", 2),
            ("points_visited", 3),
            ("filtered_case1", 1),
            ("filtered_case2", 1),
            ("refined", 1),
            ("domin_skips", 1),
            ("early_terminations", 1),
            ("threshold_hits", 0),
            ("tombstones_skipped", 0),
            ("appended_scanned", 0),
            ("threshold_rows_repaired", 0),
            ("epoch_published", 0),
        ];
        doc.funnel.reconcile(&counters).expect("reconciles");
        let mut bad = counters;
        bad[4].1 = 9; // filtered_case2
        let err = doc.funnel.reconcile(&bad).unwrap_err();
        assert!(err.contains("filtered_case2"), "got {err}");
        let missing = [("weights_visited", 2u64)];
        assert!(doc.funnel.reconcile(&missing).is_err());
    }

    #[test]
    fn funnel_internal_inconsistency_is_loud() {
        let mut doc = sample_doc();
        doc.funnel.scanned += 1;
        let err = doc.funnel.reconcile(&[]).unwrap_err();
        assert!(err.contains("funnel inconsistent"), "got {err}");
    }

    #[test]
    fn diff_reports_identical_docs_as_clean() {
        let doc = sample_doc();
        assert_eq!(doc.diff(&doc.clone(), false), None);
        assert!(doc.structural_eq(&doc.clone()));
    }

    #[test]
    fn diff_localizes_injected_cell_divergence() {
        let a = sample_doc();
        let mut b = a.clone();
        b.cells.get_mut(&vec![1, 2]).unwrap().refined.count += 1;
        // Funnel still matches, so the cell map is the first divergence.
        let div = a.diff(&b, false).expect("diverges");
        assert_eq!(div.section, "cell");
        assert_eq!(div.key, "1.2");
        assert!(div.a.contains("refined.count=1"), "got {div}");
        assert!(div.b.contains("refined.count=2"), "got {div}");
        // Structurally they still agree: header and results untouched.
        assert!(a.structural_eq(&b));
    }

    #[test]
    fn diff_orders_header_before_everything() {
        let a = sample_doc();
        let mut b = a.clone();
        b.k = 7;
        b.funnel.weights += 1; // would also diverge, but header wins
        let div = a.diff(&b, false).expect("diverges");
        assert_eq!((div.section, div.key.as_str()), ("header", "k"));
    }

    #[test]
    fn diff_catches_missing_cell_and_timeline_drift() {
        let a = sample_doc();
        let mut b = a.clone();
        b.cells.remove(&vec![7, 0]);
        let div = a.diff(&b, false).expect("diverges");
        assert_eq!((div.section, div.key.as_str()), ("cell", "7.0"));
        assert_eq!((div.a.as_str(), div.b.as_str()), ("present", "absent"));

        let mut c = a.clone();
        c.timeline[1].bound = 3;
        let div = a.diff(&c, false).expect("diverges");
        assert_eq!((div.section, div.key.as_str()), ("timeline", "[1]"));
        assert!(div.a.contains("epoch w1 bound 4"), "got {div}");
    }

    #[test]
    fn structural_diff_ignores_coverage_but_not_results() {
        let a = sample_doc();
        let mut b = a.clone();
        b.set_engine("ParGir");
        b.funnel.domin_skips += 5;
        b.cells.clear();
        b.timeline.clear();
        assert!(a.structural_eq(&b), "coverage is engine-specific");
        b.results[0].1 = 6;
        let div = a.diff(&b, true).expect("rank diverged");
        assert_eq!(div.section, "results");
        assert!(
            div.a.contains("rank 5") && div.b.contains("rank 6"),
            "{div}"
        );
    }

    #[test]
    fn absorb_merges_shards_in_order() {
        let mut main = ExplainDoc::new();
        main.begin_query(ExplainKind::Rtk, &[0.5], 2, 4);
        let mut s1 = ExplainDoc::new();
        s1.weight(0);
        s1.classify(&[1], ExplainClass::Precedes, 0.1, 0.3);
        s1.result(0, 0);
        let mut s2 = ExplainDoc::new();
        s2.weight(1);
        s2.classify(&[1], ExplainClass::Precedes, 0.2, 0.4);
        s2.domin_skip(&[2]);
        s2.bound_event(BoundSource::EpochExchange, 1, 2, true);
        main.absorb(s1);
        main.absorb(s2);
        assert_eq!(main.funnel.weights, 2);
        assert_eq!(main.funnel.case1, 2);
        assert_eq!(main.funnel.domin_skips, 1);
        let cell = &main.cells[&vec![1u8]];
        assert_eq!(cell.case1.count, 2);
        // Last-absorbed shard's deciding bounds win.
        assert_eq!((cell.case1.lower, cell.case1.upper), (0.2, 0.4));
        assert_eq!(main.timeline.len(), 1);
        assert_eq!(main.results, vec![(0, 0)]);
    }

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        let mut sink = NoopSink;
        assert!(!sink.enabled());
        // Default methods are no-ops; just exercise them.
        sink.begin_query(ExplainKind::Rtk, &[0.1], 1, 4);
        sink.weight(0);
        sink.classify(&[0], ExplainClass::Refined, 0.0, 1.0);
        sink.domin_skip(&[0]);
        sink.domin_insert(&[0]);
        sink.early_termination();
        sink.bound_event(BoundSource::LocalScan, 0, 1, false);
        sink.result(0, 0);
        sink.absorb(NoopSink);
    }

    #[test]
    fn render_smoke_contains_funnel_and_heatmap() {
        let doc = sample_doc();
        let text = doc.render();
        assert!(text.contains("explain rkr k=3"), "{text}");
        assert!(text.contains("funnel"), "{text}");
        assert!(text.contains("case1 (precede)"), "{text}");
        assert!(text.contains("heatmap"), "{text}");
        assert!(text.contains("timeline: 2 events (local=1, epoch=1)"));
        // Empty doc renders without panicking.
        assert!(ExplainDoc::new().render().contains("cells: none scanned"));
    }

    #[test]
    fn cell_keys_round_trip() {
        for cell in [vec![], vec![0u8], vec![3, 1, 4], vec![255, 0, 255]] {
            assert_eq!(parse_cell_key(&cell_key(&cell)).unwrap(), cell);
        }
        assert!(parse_cell_key("1.x.2").is_err());
        assert!(parse_cell_key("300").is_err());
    }
}
