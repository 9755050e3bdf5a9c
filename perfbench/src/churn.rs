//! `churn-indexed`: writes beside reads on a `DynamicEngine` with a
//! threshold index. Each round stages a seeded batch of point and weight
//! inserts and deletes, publishes it, and runs one RTK and one RKR on
//! the fresh snapshot view; every few rounds it requests a compaction.

use crate::check;
use crate::trace::Tracer;
use crate::workload::{
    by_quality, gir_layer, mean, percentile, phase_clock, phase_end, ratio, stream, sub_seed,
    timed, Args, Budget, Outcome, QueryStream, Setup, Spec, D, K, MIN_SAMPLES, RANGE, WARMUP_S,
};
use rrq_core::{DynamicEngine, EngineState, Gir, GirConfig};
use rrq_data::{synthetic, Rng, Xoshiro256PlusPlus};
use rrq_types::{
    PointSet, QueryStats, RkrQuery, RkrResult, RrqResult, RtkQuery, RtkResult, WeightSet,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Draws from the op mix per round; some draws stage nothing.
const DRAWS_PER_ROUND: usize = 8;
/// A compaction is requested every this many rounds.
const COMPACT_EVERY: usize = 8;
/// Every n-th round is a checkpoint verified against a rebuild.
const CHECK_EVERY: usize = 10;

pub type Row = [f64; D];

/// One staged write, with the external id the engine must assign.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    InsertPoint(u64, Row),
    DeletePoint(u64),
    InsertWeight(u64, Row),
    DeleteWeight(u64),
}

/// The published live rows in engine order: the rebuild oracle's input
/// and its external-id map.
#[derive(Debug, Clone, Default)]
pub struct Shadow {
    pub points: Vec<(u64, Row)>,
    pub weights: Vec<(u64, Row)>,
}

impl Shadow {
    fn new(p: &PointSet, w: &WeightSet) -> Self {
        let row = |r: &[f64]| -> Row { r.try_into().expect("rows have D components") };
        Self {
            points: p.iter().map(|(id, r)| (id.0 as u64, row(r))).collect(),
            weights: w.iter().map(|(id, r)| (id.0 as u64, row(r))).collect(),
        }
    }

    pub fn apply(&mut self, ops: &[Op]) {
        for op in ops {
            match op {
                Op::InsertPoint(e, row) => self.points.push((*e, *row)),
                Op::DeletePoint(e) => self.points.retain(|(x, _)| x != e),
                Op::InsertWeight(e, row) => self.weights.push((*e, *row)),
                Op::DeleteWeight(e) => self.weights.retain(|(x, _)| x != e),
            }
        }
    }

    fn sets(&self) -> RrqResult<(PointSet, WeightSet)> {
        let mut p = PointSet::with_capacity(D, RANGE, self.points.len())?;
        for (_, row) in &self.points {
            p.push_slice(row)?;
        }
        let mut w = WeightSet::with_capacity(D, self.weights.len())?;
        for (_, row) in &self.weights {
            w.push_slice(row)?;
        }
        Ok((p, w))
    }
}

/// Seeded write batches with the op mix of the `rrq-exp --mutate`
/// runner: 30 % point inserts (a third of them duplicating a live row),
/// 20 % point deletes, 25 % weight inserts, 15 % weight deletes.
pub struct OpStream {
    rng: Xoshiro256PlusPlus,
    next_point: u64,
    next_weight: u64,
    deletable_points: Vec<u64>,
    deletable_weights: Vec<u64>,
}

impl OpStream {
    pub fn new(seed: u64, shadow: &Shadow) -> Self {
        let ids = |rows: &[(u64, Row)]| rows.iter().map(|(e, _)| *e).collect::<Vec<_>>();
        Self {
            rng: Xoshiro256PlusPlus::seed_from_u64(sub_seed(seed, stream::OPS)),
            next_point: shadow.points.len() as u64,
            next_weight: shadow.weights.len() as u64,
            deletable_points: ids(&shadow.points),
            deletable_weights: ids(&shadow.weights),
        }
    }

    fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n.max(1))
    }

    fn point(&mut self) -> Row {
        std::array::from_fn(|_| self.rng.gen_f64() * RANGE * 0.999)
    }

    fn weight(&mut self) -> Row {
        let mut row: Row = std::array::from_fn(|_| self.rng.gen_f64() + 1e-6);
        let sum: f64 = row.iter().sum();
        row.iter_mut().for_each(|v| *v /= sum);
        row
    }

    /// The next round's batch; `live` is the published point rows.
    pub fn batch(&mut self, live: &[(u64, Row)]) -> Vec<Op> {
        let mut ops = Vec::with_capacity(DRAWS_PER_ROUND);
        for _ in 0..DRAWS_PER_ROUND {
            match self.below(100) {
                0..=29 => {
                    let row = if self.below(3) == 0 && !live.is_empty() {
                        live[self.below(live.len())].1
                    } else {
                        self.point()
                    };
                    let ext = self.next_point;
                    self.next_point += 1;
                    self.deletable_points.push(ext);
                    ops.push(Op::InsertPoint(ext, row));
                }
                30..=49 if self.deletable_points.len() > 8 => {
                    let j = self.below(self.deletable_points.len());
                    ops.push(Op::DeletePoint(self.deletable_points.swap_remove(j)));
                }
                50..=74 => {
                    let row = self.weight();
                    let ext = self.next_weight;
                    self.next_weight += 1;
                    self.deletable_weights.push(ext);
                    ops.push(Op::InsertWeight(ext, row));
                }
                75..=89 if self.deletable_weights.len() > 4 => {
                    let j = self.below(self.deletable_weights.len());
                    ops.push(Op::DeleteWeight(self.deletable_weights.swap_remove(j)));
                }
                _ => {}
            }
        }
        ops
    }
}

/// Stages `op`; an engine error or an unexpected external id fails it.
fn stage(engine: &mut DynamicEngine, op: &Op) -> bool {
    match op {
        Op::InsertPoint(ext, row) => engine.insert_point(row).is_ok_and(|e| e == *ext),
        Op::DeletePoint(ext) => engine.delete_point(*ext).is_ok(),
        Op::InsertWeight(ext, row) => engine.insert_weight(row).is_ok_and(|e| e == *ext),
        Op::DeleteWeight(ext) => engine.delete_weight(*ext).is_ok(),
    }
}

/// A round's published state and answers, verified after the phase.
struct Checkpoint {
    round: usize,
    state: Arc<EngineState>,
    shadow: Shadow,
    q: Row,
    rtk: RtkResult,
    rkr: RkrResult,
}

impl Checkpoint {
    /// The view's answers, mapped to external ids, against a `Gir`
    /// rebuilt from the shadow rows and against `Naive`.
    fn verify(&self) -> [bool; 2] {
        let Ok((p, w)) = self.shadow.sets() else {
            return [false, false];
        };
        let ext: Vec<u64> = self.shadow.weights.iter().map(|(e, _)| *e).collect();
        let index: BTreeMap<u64, usize> = ext.iter().enumerate().map(|(i, e)| (*e, i)).collect();
        let to_rebuilt = |wid: usize| index.get(&self.state.weight_external(wid)).copied();
        let rtk: Option<Vec<usize>> = self.rtk.weights().iter().map(|w| to_rebuilt(w.0)).collect();
        let rkr: Option<Vec<(usize, usize)>> = self
            .rkr
            .entries()
            .iter()
            .map(|e| to_rebuilt(e.weight.0).map(|i| (i, e.rank)))
            .collect();
        let (Some(mut rtk), Some(rkr)) = (rtk, rkr) else {
            return [false, false];
        };
        rtk.sort_unstable();

        let rebuilt = Gir::new(&p, &w, GirConfig::default());
        let mut stats = QueryStats::default();
        let r_rtk: Vec<usize> = rebuilt
            .reverse_top_k(&self.q, K, &mut stats)
            .weights()
            .iter()
            .map(|w| w.0)
            .collect();
        let r_rkr: Vec<(usize, usize)> = rebuilt
            .reverse_k_ranks(&self.q, K, &mut stats)
            .entries()
            .iter()
            .map(|e| (e.weight.0, e.rank))
            .collect();
        let ranks = check::naive_ranks(&p, &w, &self.q);
        [
            rtk == r_rtk && check::rtk_matches(&ranks, &rtk, K),
            rkr == r_rkr && check::rkr_matches(&ranks, &rkr, K),
        ]
    }
}

#[derive(Default)]
struct ChurnPhase {
    rkr_ms: Vec<f64>,
    wall_s: f64,
    rounds: usize,
    /// Per round: the RTK and RKR answers passed their checks.
    ok: Vec<[bool; 2]>,
    writes: u64,
    failed_writes: u64,
    queries: QueryStats,
    writer: QueryStats,
    repair_fractions: Vec<f64>,
    checkpoints: Vec<Checkpoint>,
}

impl ChurnPhase {
    fn verify(&mut self) {
        for cp in &self.checkpoints {
            let [a, b] = cp.verify();
            self.ok[cp.round][0] &= a;
            self.ok[cp.round][1] &= b;
        }
    }

    fn tally(&self, out: &mut Outcome) {
        out.attempted += self.writes + 2 * self.ok.len() as u64;
        out.failed += self.failed_writes;
        out.failed += self.ok.iter().flatten().filter(|ok| !**ok).count() as u64;
    }
}

fn churn_phase(
    engine: &mut DynamicEngine,
    initial: &Shadow,
    seed: u64,
    budget: Budget,
    tracer: &mut Tracer,
    mut setup: Option<&mut Setup<'_>>,
) -> ChurnPhase {
    let mut shadow = initial.clone();
    let mut ops = OpStream::new(seed, &shadow);
    let mut queries = QueryStream::new(seed, stream::QUERIES);
    let mut ph = ChurnPhase::default();
    let start = Instant::now();
    loop {
        let round = ph.rounds;
        if !budget.more(phase_clock(start, &mut setup), round) {
            break;
        }
        let step = tracer.enter("step");
        let batch = ops.batch(&shadow.points);
        for op in &batch {
            let (ok, _) = timed(tracer, "stage", || stage(engine, op));
            ph.writes += 1;
            ph.failed_writes += u64::from(!ok);
        }
        let compact = round % COMPACT_EVERY == COMPACT_EVERY - 1;
        if compact {
            engine.request_compaction();
        }
        let mut writer = QueryStats::default();
        let name = if compact { "compact" } else { "publish" };
        let (published, _) = timed(tracer, name, || engine.publish(&mut writer));
        ph.writes += 1;
        ph.failed_writes += u64::from(published.is_err());
        shadow.apply(&batch);

        let span = tracer.enter("view");
        let state = engine.snapshot();
        let view = state.view();
        tracer.exit(span);
        ph.repair_fractions.push(ratio(
            writer.threshold_rows_repaired as f64,
            state.live_weight_count() as f64,
        ));
        ph.writer.merge(&writer);

        let order = by_quality(shadow.points.iter().map(|(_, row)| &row[..]));
        let q = shadow.points[queries.next(&order)].1;
        let (rtk, rkr, rkr_ns);
        if round % 2 == 0 {
            (rtk, _) = timed(tracer, "rtk", || view.reverse_top_k(&q, K, &mut ph.queries));
            (rkr, rkr_ns) = timed(tracer, "rkr", || {
                view.reverse_k_ranks(&q, K, &mut ph.queries)
            });
        } else {
            (rkr, rkr_ns) = timed(tracer, "rkr", || {
                view.reverse_k_ranks(&q, K, &mut ph.queries)
            });
            (rtk, _) = timed(tracer, "rtk", || view.reverse_top_k(&q, K, &mut ph.queries));
        }
        let ok = check::consistent(&rtk, &rkr, K);
        ph.ok.push([ok, ok]);
        ph.rkr_ms.push(rkr_ns as f64 / 1e6);
        if round % CHECK_EVERY == 0 {
            ph.checkpoints.push(Checkpoint {
                round,
                state: Arc::clone(&state),
                shadow: shadow.clone(),
                q,
                rtk,
                rkr,
            });
        }
        tracer.exit(step);
        ph.rounds += 1;
    }
    ph.wall_s = phase_end(start, &setup);
    ph
}

/// Builds one engine with its threshold index, in spans.
fn build(p: PointSet, w: WeightSet, tracer: &mut Tracer) -> RrqResult<DynamicEngine> {
    let id = tracer.enter("build.engine");
    let engine = DynamicEngine::new(p, w, GirConfig::default());
    tracer.exit(id);
    let mut engine = engine?;
    let id = tracer.enter("build.threshold");
    let enabled = engine.enable_threshold_index(&[1, K, 8 * K]);
    tracer.exit(id);
    enabled.map(|()| engine)
}

pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let p0 = synthetic::uniform_points(D, spec.points, RANGE, sub_seed(args.seed, stream::POINTS))
        .map_err(|e| format!("point generation: {e:?}"))?;
    let w0 = synthetic::uniform_weights(D, spec.weights, sub_seed(args.seed, stream::WEIGHTS))
        .map_err(|e| format!("weight generation: {e:?}"))?;
    let initial = Shadow::new(&p0, &w0);
    let mut tracer = Tracer::new(args.trace);
    let mut off = Tracer::new(false);
    let fail = |e| format!("engine set-up: {e:?}");
    churn_phase(
        &mut build(p0.clone(), w0.clone(), &mut off).map_err(fail)?,
        &initial,
        sub_seed(args.seed, stream::WARMUP),
        Budget::Seconds(WARMUP_S, 1),
        &mut off,
        None,
    );
    let mut out = Outcome::default();
    if !args.trace {
        let mut engine = build(p0.clone(), w0.clone(), &mut off).map_err(fail)?;
        let mut setup = Setup::new(spec, || {
            let (p, w) = (p0.clone(), w0.clone());
            let t = Instant::now();
            let engine = build(p, w, &mut Tracer::new(false)).map_err(fail)?;
            let s = t.elapsed().as_secs_f64();
            drop(engine);
            Ok(s)
        });
        let mut ph = churn_phase(
            &mut engine,
            &initial,
            args.seed,
            Budget::Seconds(args.seconds, MIN_SAMPLES),
            &mut off,
            Some(&mut setup),
        );
        let setup_s = setup.finish()?;
        ph.verify();
        ph.tally(&mut out);
        eprintln!("timed phase: {} rounds in {:.2} s", ph.rounds, ph.wall_s);
        let state = engine.snapshot();
        let live = state.live_point_count() + state.live_weight_count();
        let m = &mut out.metrics;
        m.insert("rkr_p50_ms", percentile(&ph.rkr_ms, 0.5));
        m.insert("rkr_p90_ms", percentile(&ph.rkr_ms, 0.9));
        m.insert("queries_per_s", 2.0 * ph.rounds as f64 / ph.wall_s);
        m.insert("setup_s", setup_s);
        m.insert(
            "index_bytes_per_data_byte",
            state.view().index_memory_bytes() as f64
                / (live * D * std::mem::size_of::<f64>()) as f64,
        );
        return Ok(out);
    }

    // Traced run: the same fixed rounds untraced, then traced, each on a
    // fresh engine built in spans.
    let n = spec.trace_steps(args.seconds);
    let mut plain = churn_phase(
        &mut build(p0.clone(), w0.clone(), &mut tracer).map_err(fail)?,
        &initial,
        args.seed,
        Budget::Steps(n),
        &mut off,
        None,
    );
    let mut traced = churn_phase(
        &mut build(p0.clone(), w0.clone(), &mut tracer).map_err(fail)?,
        &initial,
        args.seed,
        Budget::Steps(n),
        &mut tracer,
        None,
    );
    let queries = 2 * traced.rounds as u64;
    let m = &mut out.metrics;
    gir_layer(m, &tracer, &traced.queries, queries);
    let us = |name: &str| mean(&tracer.durations(name)) / 1e3;
    let st = &traced.queries;
    m.insert("approx.build_ms", us("build.engine") / 1e3);
    m.insert("threshold.build_ms", us("build.threshold") / 1e3);
    m.insert(
        "threshold.hit_ratio",
        ratio(st.threshold_hits as f64, st.weights_visited as f64),
    );
    m.insert("threshold.rtk_us", us("rtk"));
    m.insert(
        "threshold.rows_repaired_per_publish",
        ratio(
            traced.writer.threshold_rows_repaired as f64,
            traced.writer.epoch_published as f64,
        ),
    );
    let fractions = &traced.repair_fractions;
    m.insert(
        "threshold.repair_fraction",
        ratio(fractions.iter().sum(), fractions.len() as f64),
    );
    m.insert("snapshot.publish_ms", us("publish") / 1e3);
    m.insert("snapshot.compact_ms", us("compact") / 1e3);
    m.insert("snapshot.stage_us_per_op", us("stage"));
    m.insert("snapshot.view_us", us("view"));
    m.insert(
        "snapshot.tombstones_skipped_per_query",
        ratio(st.tombstones_skipped as f64, queries as f64),
    );
    m.insert(
        "snapshot.appended_scanned_per_query",
        ratio(st.appended_scanned as f64, queries as f64),
    );
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced.wall_s / plain.wall_s - 1.0),
    );
    for ph in [&mut plain, &mut traced] {
        ph.verify();
        ph.tally(&mut out);
    }
    out.spans = Some(tracer);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::{assert_counters_repeat, tiny};

    fn op_stream(seed: u64) -> Vec<Op> {
        let p = synthetic::uniform_points(D, 50, RANGE, 1).expect("points");
        let w = synthetic::uniform_weights(D, 20, 2).expect("weights");
        let mut shadow = Shadow::new(&p, &w);
        let mut ops = OpStream::new(seed, &shadow);
        let mut all = Vec::new();
        for _ in 0..40 {
            let batch = ops.batch(&shadow.points);
            shadow.apply(&batch);
            all.extend(batch);
        }
        all
    }

    #[test]
    fn op_stream_repeats_per_seed_and_differs_across_seeds() {
        let a = op_stream(11);
        assert!(a.iter().any(|op| matches!(op, Op::DeletePoint(_))));
        assert!(a.iter().any(|op| matches!(op, Op::DeleteWeight(_))));
        assert_eq!(a, op_stream(11));
        assert_ne!(a, op_stream(12));
    }

    #[test]
    fn churn_counters_repeat_for_a_seed() {
        assert_counters_repeat(&tiny("churn-indexed", 900, 150));
    }
}
