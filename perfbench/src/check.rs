//! Answer checks. Every RTK/RKR pair is checked for mutual consistency
//! inside the timed loop; a seeded sample is checked exactly against the
//! definition-level `Naive` oracle after it.

use rrq_baselines::Naive;
use rrq_types::{PointSet, QueryStats, RkrResult, RtkResult, WeightSet};

/// The pair answers one query point: every RKR entry ranked below `k`
/// is an RTK member, so `|RTK|` is at least their number.
pub fn consistent(rtk: &RtkResult, rkr: &RkrResult, k: usize) -> bool {
    let mut below = 0;
    for e in rkr.entries().iter().filter(|e| e.rank < k) {
        if !rtk.contains(e.weight) {
            return false;
        }
        below += 1;
    }
    rtk.len() >= below
}

/// Exact ranks of `q` under every weight, in weight-id order.
pub fn naive_ranks(points: &PointSet, weights: &WeightSet, q: &[f64]) -> Vec<usize> {
    Naive::new(points, weights).all_ranks(q, &mut QueryStats::default())
}

/// RTK answer (weight ids) equals `{w : rank(w, q) < k}`.
pub fn rtk_matches(ranks: &[usize], rtk: &[usize], k: usize) -> bool {
    let want: Vec<usize> = (0..ranks.len()).filter(|&w| ranks[w] < k).collect();
    want == rtk
}

/// RKR answer `(weight id, rank)` reports true ranks, and those ranks are
/// the `min(k, |W|)` smallest. Ties at the cut-off may pick any weight.
pub fn rkr_matches(ranks: &[usize], rkr: &[(usize, usize)], k: usize) -> bool {
    let mut smallest = ranks.to_vec();
    smallest.sort_unstable();
    smallest.truncate(k);
    let mut got: Vec<usize> = Vec::with_capacity(rkr.len());
    for &(w, r) in rkr {
        if ranks.get(w) != Some(&r) {
            return false;
        }
        got.push(r);
    }
    got.sort_unstable();
    got == smallest
}

/// Checks a static engine's answers for `q` against `Naive`.
pub fn against_naive(
    points: &PointSet,
    weights: &WeightSet,
    q: &[f64],
    k: usize,
    rtk: &RtkResult,
    rkr: &RkrResult,
) -> (bool, bool) {
    let ranks = naive_ranks(points, weights, q);
    let rtk_ids: Vec<usize> = rtk.weights().iter().map(|w| w.0).collect();
    let rkr_pairs: Vec<(usize, usize)> =
        rkr.entries().iter().map(|e| (e.weight.0, e.rank)).collect();
    (
        rtk_matches(&ranks, &rtk_ids, k),
        rkr_matches(&ranks, &rkr_pairs, k),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrq_types::{RkrEntry, WeightId};

    #[test]
    fn oracle_checks_reject_wrong_answers() {
        let ranks = [3, 0, 7, 0, 2];
        assert!(rtk_matches(&ranks, &[0, 1, 3, 4], 4));
        assert!(!rtk_matches(&ranks, &[1, 3, 4], 4));
        assert!(rkr_matches(&ranks, &[(1, 0), (3, 0), (4, 2)], 3));
        assert!(
            !rkr_matches(&ranks, &[(1, 0), (3, 0), (0, 2)], 3),
            "wrong rank"
        );
        assert!(
            !rkr_matches(&ranks, &[(1, 0), (3, 0), (0, 3)], 3),
            "not smallest"
        );
    }

    #[test]
    fn consistency_needs_low_ranked_rkr_entries_in_rtk() {
        let rkr = RkrResult::from_entries(vec![
            RkrEntry {
                weight: WeightId(2),
                rank: 0,
            },
            RkrEntry {
                weight: WeightId(5),
                rank: 9,
            },
        ]);
        let good = RtkResult::from_weights(vec![WeightId(2)]);
        let bad = RtkResult::from_weights(vec![WeightId(5)]);
        assert!(consistent(&good, &rkr, 3));
        assert!(!consistent(&bad, &rkr, 3));
    }
}
