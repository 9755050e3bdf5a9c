//! Workload definitions, the shared closed loop of the two static
//! workloads, and the metric helpers all three use.
//!
//! Every workload is a closed loop with one client thread: the next
//! query is sent only after the previous answer came back. The only
//! other threads are the two pool workers of `pool-ac-packed`, during
//! whose jobs the client blocks.

use crate::check;
use crate::trace::Tracer;
use rrq_core::{pool_scope, Gir, GirConfig, ParConfig, ParGir, WorkerPool};
use rrq_data::synthetic;
use rrq_data::{Rng, SplitMix64, Xoshiro256PlusPlus};
use rrq_types::{
    PointId, PointSet, QueryStats, RkrQuery, RkrResult, RtkQuery, RtkResult, WeightSet,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Dimensionality of every workload.
pub const D: usize = 6;
/// `k` of every RTK and RKR query.
pub const K: usize = 100;
/// Value range of generated points.
pub const RANGE: f64 = 10_000.0;
/// A time-bounded phase runs on until it holds this many samples of each
/// latency, so that its p90 has at least ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;
/// Every n-th step's answers are checked against `Naive` after the phase.
const ORACLE_EVERY: usize = 10;
/// Untimed work, in seconds, run before anything is timed, so that
/// nothing is timed on a CPU that has just left idle.
pub const WARMUP_S: f64 = 1.0;
/// Untimed steps of the measured engine before its timed phase.
const WARMUP_STEPS: usize = 3;

/// The workload names. `BENCHMARK.json` lists the last two; `scan-un`
/// is run by hand (see `README.md`).
pub const WORKLOADS: [&str; 3] = ["scan-un", "pool-ac-packed", "churn-indexed"];

/// End-to-end metrics: printed by the untraced run, on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("rkr_p50_ms", "ms"),
    ("rkr_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("index_bytes_per_data_byte", "ratio"),
];

/// Per-layer metrics: printed by the traced run, on every workload. A
/// layer that does not run on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("approx.build_ms", "ms"),
    ("gir.rtk_ms", "ms"),
    ("gir.rkr_ms", "ms"),
    ("gir.points_visited_per_query", "count"),
    ("gir.refined_per_query", "count"),
    ("gir.multiplications_per_query", "count"),
    ("gir.domin_skips_per_query", "count"),
    ("gir.early_terminations_per_query", "count"),
    ("gir.filter_rate", "ratio"),
    ("gir.ns_per_point_visited", "ns"),
    ("par.points_visited_vs_seq", "ratio"),
    ("par.speedup_vs_seq", "ratio"),
    ("pool.jobs_per_query", "count"),
    ("threshold.build_ms", "ms"),
    ("threshold.hit_ratio", "ratio"),
    ("threshold.rtk_us", "us"),
    ("threshold.rows_repaired_per_publish", "count"),
    ("threshold.repair_fraction", "ratio"),
    ("snapshot.publish_ms", "ms"),
    ("snapshot.compact_ms", "ms"),
    ("snapshot.stage_us_per_op", "us"),
    ("snapshot.view_us", "us"),
    ("snapshot.tombstones_skipped_per_query", "count"),
    ("snapshot.appended_scanned_per_query", "count"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metrics derived from work counters alone: a pure function
/// of the seed and the run length, identical across same-seed runs.
#[cfg(test)]
pub const COUNTER_DERIVED: [&str; 13] = [
    "gir.points_visited_per_query",
    "gir.refined_per_query",
    "gir.multiplications_per_query",
    "gir.domin_skips_per_query",
    "gir.early_terminations_per_query",
    "gir.filter_rate",
    "par.points_visited_vs_seq",
    "pool.jobs_per_query",
    "threshold.hit_ratio",
    "threshold.rows_repaired_per_publish",
    "threshold.repair_fraction",
    "snapshot.tombstones_skipped_per_query",
    "snapshot.appended_scanned_per_query",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ScanUn,
    PoolAcPacked,
    ChurnIndexed,
}

/// One workload's sizes and set-up schedule.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub points: usize,
    pub weights: usize,
    /// Engine builds timed together in one set-up slot: tens of
    /// milliseconds of building per slot.
    pub builds_per_slot: usize,
    /// Seconds of the timed phase from one set-up slot to the next.
    pub slot_every_s: f64,
    /// Set-up samples; `setup_s` is their median (see [`Setup`]).
    pub setup_samples: usize,
    /// Steps per second the traced run budgets for. The traced run
    /// measures a step count fixed by this and `--seconds` (not a
    /// duration), so that its counters repeat exactly.
    pub trace_steps_per_s: f64,
}

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        let spec = match name {
            "scan-un" => Spec {
                name: "scan-un",
                kind: Kind::ScanUn,
                points: 3_000,
                weights: 3_000,
                builds_per_slot: 128,
                slot_every_s: 1.0,
                setup_samples: 12,
                trace_steps_per_s: 13.0,
            },
            "pool-ac-packed" => Spec {
                name: "pool-ac-packed",
                kind: Kind::PoolAcPacked,
                points: 12_000,
                weights: 256,
                builds_per_slot: 48,
                slot_every_s: 1.0,
                setup_samples: 12,
                trace_steps_per_s: 10.0,
            },
            "churn-indexed" => Spec {
                name: "churn-indexed",
                kind: Kind::ChurnIndexed,
                points: 2_000,
                weights: 800,
                builds_per_slot: 1,
                slot_every_s: 2.5,
                setup_samples: 10,
                trace_steps_per_s: 7.0,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Steps of each half of the traced run.
    pub fn trace_steps(&self, seconds: f64) -> usize {
        ((seconds * self.trace_steps_per_s / 2.0).ceil() as usize).max(4)
    }
}

/// Benchmark arguments after parsing.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run reports: operation counts, named metrics and, for the
/// traced run, its spans.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Option<Tracer>,
}

/// Independent sub-seeds of one `--seed`, one per input stream.
pub mod stream {
    pub const POINTS: u64 = 1;
    pub const WEIGHTS: u64 = 2;
    pub const QUERIES: u64 = 3;
    pub const OPS: u64 = 4;
    pub const WARMUP: u64 = 5;
}

pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Seeded, stratified choice of query points from the current rows.
///
/// RKR latency depends mostly on how good the query point is: on
/// `scan-un` it spans 15–165 ms, nearly flat, so the median of a few
/// hundred independent draws moves by several percent between seeds.
/// Step `i` therefore takes the row at quantile `frac(u + i·φ)` of the
/// rows ordered by coordinate sum (a proxy of the rank under an average
/// weight), with `u` drawn from the seed. Every prefix of the stream
/// covers the quality range evenly, and every query is still a row of P.
pub struct QueryStream(f64);

/// Fractional part of the golden ratio: the most even additive sequence.
const PHI_FRAC: f64 = 0.618_033_988_749_894_9;

impl QueryStream {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(Xoshiro256PlusPlus::seed_from_u64(sub_seed(seed, stream)).gen_f64())
    }

    /// The next query's position in `order` (see [`by_quality`]).
    pub fn next(&mut self, order: &[usize]) -> usize {
        self.0 = (self.0 + PHI_FRAC).fract();
        order[((self.0 * order.len() as f64) as usize).min(order.len() - 1)]
    }
}

/// Row indices sorted by coordinate sum, ties by index.
pub fn by_quality<'r>(rows: impl Iterator<Item = &'r [f64]>) -> Vec<usize> {
    let sums: Vec<f64> = rows.map(|r| r.iter().sum()).collect();
    let mut order: Vec<usize> = (0..sums.len()).collect();
    order.sort_by(|&a, &b| sums[a].total_cmp(&sums[b]).then(a.cmp(&b)));
    order
}

/// Runs `f` inside span `name`, returning its result and wall time.
pub fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let id = tracer.enter(name);
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    tracer.exit(id);
    (out, ns)
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set-up samples taken in slots spread over a timed phase.
///
/// The machine alternates between a fast and a slow state, each lasting
/// from a fraction of a second to a few seconds, and an engine build runs
/// up to 1.6 times slower in the slow one. A window of builds before or
/// after the phase falls into one state, so its median flips between the
/// two from run to run. Here slot `i` of the phase adds its builds to
/// sample `i mod setup_samples`: every sample averages builds from the
/// whole run, and `setup_s` is the median of the samples. Slot time is
/// taken out of the phase's clock.
pub struct Setup<'a> {
    /// One construction; returns the seconds it took.
    build: Box<dyn FnMut() -> Result<f64, String> + 'a>,
    builds_per_slot: usize,
    every_s: f64,
    slots: usize,
    /// Wall time spent in slots.
    spent_s: f64,
    /// Per sample: seconds of building and number of builds.
    sums: Vec<(f64, usize)>,
    error: Option<String>,
}

impl<'a> Setup<'a> {
    pub fn new(spec: &Spec, build: impl FnMut() -> Result<f64, String> + 'a) -> Self {
        Self {
            build: Box::new(build),
            builds_per_slot: spec.builds_per_slot,
            every_s: spec.slot_every_s,
            slots: 0,
            spent_s: 0.0,
            sums: vec![(0.0, 0); spec.setup_samples],
            error: None,
        }
    }

    /// Seconds of phase time at `wall_s` seconds since the phase began,
    /// after running the slot that is due by then, if any.
    pub fn tick(&mut self, wall_s: f64) -> f64 {
        let phase_s = wall_s - self.spent_s;
        if phase_s >= self.slots as f64 * self.every_s {
            self.slot();
        }
        phase_s
    }

    fn slot(&mut self) {
        if self.error.is_some() {
            return;
        }
        let t = Instant::now();
        let mut built_s = 0.0;
        for _ in 0..self.builds_per_slot {
            match (self.build)() {
                Ok(s) => built_s += s,
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
        }
        let n = self.sums.len();
        let sample = &mut self.sums[self.slots % n];
        sample.0 += built_s;
        sample.1 += self.builds_per_slot;
        self.slots += 1;
        self.spent_s += t.elapsed().as_secs_f64();
    }

    /// The median over the samples of seconds per build, after giving
    /// every sample a slot when the phase was too short to.
    pub fn finish(mut self) -> Result<f64, String> {
        while self.slots < self.sums.len() && self.error.is_none() {
            self.slot();
        }
        if let Some(e) = self.error {
            return Err(e);
        }
        let per_build: Vec<f64> = self.sums.iter().map(|&(s, n)| s / n as f64).collect();
        Ok(percentile(&per_build, 0.5))
    }
}

/// Wall seconds since `start` as phase time: less the set-up slots
/// taken so far, after running the one that is due.
pub fn phase_clock(start: Instant, setup: &mut Option<&mut Setup<'_>>) -> f64 {
    let wall_s = start.elapsed().as_secs_f64();
    match setup {
        Some(s) => s.tick(wall_s),
        None => wall_s,
    }
}

/// Phase time at the end of a phase: the wall time less all slots.
pub fn phase_end(start: Instant, setup: &Option<&mut Setup<'_>>) -> f64 {
    start.elapsed().as_secs_f64() - setup.as_ref().map_or(0.0, |s| s.spent_s)
}

/// Counter-derived and span-derived metrics of the scan driver.
pub fn gir_layer(
    m: &mut BTreeMap<&'static str, f64>,
    tracer: &Tracer,
    stats: &QueryStats,
    queries: u64,
) {
    let q = queries as f64;
    let rtk = tracer.durations("rtk");
    let rkr = tracer.durations("rkr");
    m.insert("gir.rtk_ms", mean(&rtk) / 1e6);
    m.insert("gir.rkr_ms", mean(&rkr) / 1e6);
    m.insert(
        "gir.points_visited_per_query",
        ratio(stats.points_visited as f64, q),
    );
    m.insert("gir.refined_per_query", ratio(stats.refined as f64, q));
    m.insert(
        "gir.multiplications_per_query",
        ratio(stats.multiplications as f64, q),
    );
    m.insert(
        "gir.domin_skips_per_query",
        ratio(stats.domin_skips as f64, q),
    );
    m.insert(
        "gir.early_terminations_per_query",
        ratio(stats.early_terminations as f64, q),
    );
    let filtered = (stats.filtered_case1 + stats.filtered_case2) as f64;
    m.insert(
        "gir.filter_rate",
        ratio(filtered, filtered + stats.refined as f64),
    );
    let busy: u64 = rtk.iter().chain(&rkr).sum();
    m.insert(
        "gir.ns_per_point_visited",
        ratio(busy as f64, stats.points_visited as f64),
    );
}

/// One closed-loop step of a static workload.
struct Step {
    point: usize,
    stats: QueryStats,
    engine_ns: u64,
    ok: [bool; 2],
}

/// How long a phase runs: a duration extended to a least number of
/// steps, or a fixed number of steps.
pub enum Budget {
    Seconds(f64, usize),
    Steps(usize),
}

impl Budget {
    /// Whether a phase at `phase_s` seconds with `done` steps goes on.
    pub fn more(&self, phase_s: f64, done: usize) -> bool {
        match *self {
            Budget::Seconds(s, min) => phase_s < s || done < min,
            Budget::Steps(n) => done < n,
        }
    }
}

#[derive(Default)]
struct Phase {
    rkr_ms: Vec<f64>,
    steps: Vec<Step>,
    wall_s: f64,
    /// `(step, rtk, rkr)` of the steps checked against `Naive` later.
    sampled: Vec<(usize, RtkResult, RkrResult)>,
}

impl Phase {
    fn queries(&self) -> u64 {
        2 * self.steps.len() as u64
    }

    fn stats(&self) -> QueryStats {
        QueryStats::merged(self.steps.iter().map(|s| &s.stats))
    }

    /// Checks the sampled steps against `Naive`, marking failures.
    fn verify(&mut self, p: &PointSet, w: &WeightSet) {
        for (i, rtk, rkr) in &self.sampled {
            let q = p.point(PointId(self.steps[*i].point));
            let (rtk_ok, rkr_ok) = check::against_naive(p, w, q, K, rtk, rkr);
            let ok = &mut self.steps[*i].ok;
            ok[0] &= rtk_ok;
            ok[1] &= rkr_ok;
        }
    }

    fn tally(&self, out: &mut Outcome) {
        for s in &self.steps {
            out.attempted += 2;
            out.failed += s.ok.iter().filter(|ok| !**ok).count() as u64;
        }
    }
}

/// The RTK+RKR loop over P-sampled query points. RTK and RKR alternate
/// which goes first, so that neither always runs on the other's warm
/// cache. `setup` takes its slots between steps.
fn static_phase<E: RtkQuery + RkrQuery>(
    engine: &E,
    p: &PointSet,
    queries: &mut QueryStream,
    budget: Budget,
    tracer: &mut Tracer,
    mut setup: Option<&mut Setup<'_>>,
) -> Phase {
    let mut ph = Phase::default();
    let order = by_quality(p.iter().map(|(_, row)| row));
    let start = Instant::now();
    loop {
        let i = ph.steps.len();
        if !budget.more(phase_clock(start, &mut setup), i) {
            break;
        }
        let point = queries.next(&order);
        let q = p.point(PointId(point));
        let step = tracer.enter("step");
        let mut stats = QueryStats::default();
        let (rtk, rkr, rtk_ns, rkr_ns);
        if i % 2 == 0 {
            (rtk, rtk_ns) = timed(tracer, "rtk", || engine.reverse_top_k(q, K, &mut stats));
            (rkr, rkr_ns) = timed(tracer, "rkr", || engine.reverse_k_ranks(q, K, &mut stats));
        } else {
            (rkr, rkr_ns) = timed(tracer, "rkr", || engine.reverse_k_ranks(q, K, &mut stats));
            (rtk, rtk_ns) = timed(tracer, "rtk", || engine.reverse_top_k(q, K, &mut stats));
        }
        let ok = check::consistent(&rtk, &rkr, K);
        if i % ORACLE_EVERY == 0 {
            ph.sampled.push((i, rtk, rkr));
        }
        tracer.exit(step);
        ph.rkr_ms.push(rkr_ns as f64 / 1e6);
        ph.steps.push(Step {
            point,
            stats,
            engine_ns: rtk_ns + rkr_ns,
            ok: [ok, ok],
        });
    }
    ph.wall_s = phase_end(start, &setup);
    ph
}

/// Generated data of a static workload: UN or AC points, UN weights.
fn static_data(spec: &Spec, seed: u64) -> Result<(PointSet, WeightSet), String> {
    let p_seed = sub_seed(seed, stream::POINTS);
    let p = match spec.kind {
        Kind::PoolAcPacked => synthetic::anticorrelated_points(D, spec.points, RANGE, p_seed),
        _ => synthetic::uniform_points(D, spec.points, RANGE, p_seed),
    }
    .map_err(|e| format!("point generation: {e:?}"))?;
    let w = synthetic::uniform_weights(D, spec.weights, sub_seed(seed, stream::WEIGHTS))
        .map_err(|e| format!("weight generation: {e:?}"))?;
    Ok((p, w))
}

/// `scan-un` (sequential `Gir`, byte cells) and `pool-ac-packed`
/// (`ParGir` in epoch mode on a 2-worker pool, packed cells).
pub fn run_static(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let (p, w) = static_data(spec, args.seed)?;
    let config = GirConfig {
        packed: spec.kind == Kind::PoolAcPacked,
        ..GirConfig::default()
    };
    let mut tracer = Tracer::new(args.trace);
    static_phase(
        &Gir::new(&p, &w, config),
        &p,
        &mut QueryStream::new(args.seed, stream::WARMUP),
        Budget::Seconds(WARMUP_S, 1),
        &mut Tracer::new(false),
        None,
    );
    // The traced run times a slot's worth of builds in spans; the last
    // build serves the run.
    let build = |tracer: &mut Tracer| {
        let id = tracer.enter("build.engine");
        let gir = Gir::new(&p, &w, config);
        tracer.exit(id);
        gir
    };
    let builds = if args.trace { spec.builds_per_slot } else { 1 };
    (1..builds).for_each(|_| drop(build(&mut tracer)));
    let gir = build(&mut tracer);
    let data_bytes = ((p.len() + w.len()) * D * std::mem::size_of::<f64>()) as f64;
    let index_ratio = gir.index_memory_bytes() as f64 / data_bytes;
    let mut setup = Setup::new(spec, || {
        let t = Instant::now();
        let gir = Gir::new(&p, &w, config);
        let s = t.elapsed().as_secs_f64();
        drop(gir);
        Ok(s)
    });

    let mut out = match spec.kind {
        Kind::PoolAcPacked => pool_scope(2, |pool: &WorkerPool<'_>| {
            let engine = ParGir::new(&gir, ParConfig::epoch(2, 64)).with_pool(pool);
            let seq = Some((&gir, pool));
            measure_static(&engine, seq, &p, &w, spec, args, &mut tracer, &mut setup)
        }),
        _ => measure_static(&gir, None, &p, &w, spec, args, &mut tracer, &mut setup),
    };
    if args.trace {
        out.metrics.insert(
            "approx.build_ms",
            mean(&tracer.durations("build.engine")) / 1e6,
        );
        out.spans = Some(tracer);
    } else {
        out.metrics.insert("setup_s", setup.finish()?);
        out.metrics.insert("index_bytes_per_data_byte", index_ratio);
    }
    Ok(out)
}

/// The measured phases of a static workload. `seq` carries the
/// sequential engine and the pool when `engine` is the pooled one;
/// `setup` takes its slots in the timed phase of the untraced run.
#[allow(clippy::too_many_arguments)]
fn measure_static<E: RtkQuery + RkrQuery>(
    engine: &E,
    seq: Option<(&Gir<'_>, &WorkerPool<'_>)>,
    p: &PointSet,
    w: &WeightSet,
    spec: &Spec,
    args: &Args,
    tracer: &mut Tracer,
    setup: &mut Setup<'_>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    static_phase(
        engine,
        p,
        &mut QueryStream::new(args.seed, stream::WARMUP),
        Budget::Steps(WARMUP_STEPS),
        &mut off,
        None,
    );
    if !args.trace {
        let mut ph = static_phase(
            engine,
            p,
            &mut QueryStream::new(args.seed, stream::QUERIES),
            Budget::Seconds(args.seconds, MIN_SAMPLES),
            &mut off,
            Some(setup),
        );
        ph.verify(p, w);
        ph.tally(&mut out);
        eprintln!(
            "timed phase: {} steps, {} RKR samples in {:.2} s",
            ph.steps.len(),
            ph.rkr_ms.len(),
            ph.wall_s
        );
        out.metrics
            .insert("rkr_p50_ms", percentile(&ph.rkr_ms, 0.5));
        out.metrics
            .insert("rkr_p90_ms", percentile(&ph.rkr_ms, 0.9));
        out.metrics
            .insert("queries_per_s", ph.queries() as f64 / ph.wall_s);
        return out;
    }

    // Traced run: the same fixed steps untraced, then traced.
    let n = spec.trace_steps(args.seconds);
    let mut plain = static_phase(
        engine,
        p,
        &mut QueryStream::new(args.seed, stream::QUERIES),
        Budget::Steps(n),
        &mut off,
        None,
    );
    let jobs_before = seq.map(|(_, pool)| pool.stats());
    let mut traced = static_phase(
        engine,
        p,
        &mut QueryStream::new(args.seed, stream::QUERIES),
        Budget::Steps(n),
        tracer,
        None,
    );
    let m = &mut out.metrics;
    gir_layer(m, tracer, &traced.stats(), traced.queries());
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced.wall_s / plain.wall_s - 1.0),
    );
    if let (Some((gir, pool)), Some(before)) = (seq, jobs_before) {
        let after = pool.stats();
        m.insert(
            "pool.jobs_per_query",
            ratio(
                (after.jobs - before.jobs) as f64,
                (after.queries - before.queries) as f64,
            ),
        );
        par_vs_seq(m, gir, p, &traced, tracer);
    }
    for ph in [&mut plain, &mut traced] {
        ph.verify(p, w);
        ph.tally(&mut out);
    }
    out
}

/// Steps of the traced phase re-run on the sequential engine.
const SEQ_STEPS: usize = 8;

/// Pooled against sequential work and span time on the same queries.
fn par_vs_seq(
    m: &mut BTreeMap<&'static str, f64>,
    gir: &Gir<'_>,
    p: &PointSet,
    pooled: &Phase,
    tracer: &mut Tracer,
) {
    let steps = &pooled.steps[..pooled.steps.len().min(SEQ_STEPS)];
    let (mut seq_points, mut seq_ns) = (0u64, 0u64);
    for s in steps {
        let q = p.point(PointId(s.point));
        let mut stats = QueryStats::default();
        let step = tracer.enter("seq.step");
        let (_, a) = timed(tracer, "seq.rtk", || gir.reverse_top_k(q, K, &mut stats));
        let (_, b) = timed(tracer, "seq.rkr", || gir.reverse_k_ranks(q, K, &mut stats));
        tracer.exit(step);
        seq_points += stats.points_visited;
        seq_ns += a + b;
    }
    let par_points: u64 = steps.iter().map(|s| s.stats.points_visited).sum();
    let par_ns: u64 = steps.iter().map(|s| s.engine_ns).sum();
    m.insert(
        "par.points_visited_vs_seq",
        ratio(par_points as f64, seq_points as f64),
    );
    m.insert("par.speedup_vs_seq", ratio(seq_ns as f64, par_ns as f64));
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A workload shrunk so that a debug build runs it in well under a
    /// second: four steps per phase of the traced run.
    pub fn tiny(name: &str, points: usize, weights: usize) -> Spec {
        Spec {
            points,
            weights,
            builds_per_slot: 1,
            setup_samples: 4,
            ..Spec::named(name).expect("known workload")
        }
    }

    /// Runs the traced run twice per seed and checks that the counter
    /// metrics repeat exactly and every answer checked out.
    pub fn assert_counters_repeat(spec: &Spec) {
        let args = Args {
            seed: 7,
            seconds: 0.0,
            trace: true,
        };
        let a = crate::run(spec, &args).expect("first run");
        let b = crate::run(spec, &args).expect("second run");
        assert_eq!(a.failed, 0, "{} failed answers", spec.name);
        assert!(a.attempted > 0);
        for name in COUNTER_DERIVED {
            assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name} drifted");
        }
        let visited = a.metrics["gir.points_visited_per_query"];
        assert!(visited > 0.0, "{} visited no points", spec.name);
    }

    #[test]
    fn setup_samples_take_slots_round_robin() {
        let spec = Spec {
            slot_every_s: 1.0,
            setup_samples: 2,
            ..tiny("scan-un", 10, 10)
        };
        let mut built = 0.0;
        let mut setup = Setup::new(&spec, || {
            built += 1.0;
            Ok(built)
        });
        // Slots fall due at phase seconds 0, 1, 2 and 3, and build 1..=4:
        // sample 0 averages 1 and 3, sample 1 averages 2 and 4.
        for wall_s in [0.0, 0.5, 1.5, 2.5, 3.5] {
            setup.tick(wall_s);
        }
        assert_eq!(setup.finish(), Ok(2.0));

        let mut calls = 0;
        let short = Setup::new(&spec, || {
            calls += 1;
            Ok(1.0)
        });
        assert_eq!(short.finish(), Ok(1.0), "a phase without slots");
        assert_eq!(calls, 2, "every sample gets a slot");
        let failing = Setup::new(&spec, || Err("no engine".to_string()));
        assert_eq!(failing.finish(), Err("no engine".to_string()));
    }

    #[test]
    fn query_stream_repeats_per_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let order: Vec<usize> = (0..1_000).rev().collect();
            let mut s = QueryStream::new(seed, stream::QUERIES);
            (0..64).map(|_| s.next(&order)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn scan_counters_repeat_for_a_seed() {
        assert_counters_repeat(&tiny("scan-un", 400, 300));
    }

    #[test]
    fn pool_counters_repeat_for_a_seed() {
        let spec = tiny("pool-ac-packed", 2_000, 64);
        assert_counters_repeat(&spec);
        let args = Args {
            seed: 7,
            seconds: 0.0,
            trace: true,
        };
        let out = crate::run(&spec, &args).expect("pooled run");
        assert_eq!(
            out.metrics["pool.jobs_per_query"], 2.0,
            "one job per worker"
        );
        assert!(out.metrics["par.points_visited_vs_seq"] > 0.0);
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let args = Args {
            seed: 3,
            seconds: 0.0,
            trace: false,
        };
        let out = crate::run(&tiny("scan-un", 300, 200), &args).expect("run");
        assert_eq!(out.failed, 0);
        assert_eq!(out.attempted, 2 * MIN_SAMPLES as u64);
        for (name, _) in END_TO_END {
            assert!(out.metrics[name] > 0.0, "{name} is not positive");
        }
    }
}
