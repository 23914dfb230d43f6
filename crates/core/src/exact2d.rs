//! Exact MWK in two dimensions — the quality oracle for the sampler.
//!
//! The paper's MWK trades answer quality for running time through
//! sampling (§4.3). In 2-D the trade can be avoided entirely: the weight
//! space is one-dimensional (`w = (x, 1 − x)`), `MRTOPk′(q)` is an exact
//! union of closed intervals for every candidate `k′` (see
//! `wqrtq_query::mrtopk`), and the optimal modified vector for a fixed
//! `k′` is simply the nearest point of those intervals to the original
//! vector. Enumerating the (at most `k′max − k + 1`) candidate `k′`
//! values therefore yields the *globally optimal* `(Wm′, k′)`.
//!
//! This module exists to (a) answer 2-D why-not questions exactly, and
//! (b) measure how close the sampling-based MWK gets to the optimum
//! (`ablation_sampled_vs_exact` bench and the quality tests).

use crate::penalty::{preference_penalty, Tolerances};
use wqrtq_geom::Weight;
use wqrtq_query::mrtopk::{monochromatic_reverse_topk_2d, WeightInterval};
use wqrtq_query::rank::rank_of_point_scan;

/// Result of the exact 2-D preference refinement.
#[derive(Clone, Debug)]
pub struct Exact2dResult {
    /// The optimal refined vectors (aligned with the input order).
    pub refined: Vec<Weight>,
    /// The optimal refined `k′`.
    pub k_prime: usize,
    /// The minimum penalty (Eq. 4).
    pub penalty: f64,
    /// `k′max` (Lemma 4).
    pub k_max: usize,
    /// Candidate `k′` values that were evaluated.
    pub candidates_evaluated: usize,
}

/// Distance from `x` to the nearest point of a closed interval union;
/// returns the nearest point too. `None` when the union is empty.
fn nearest_in_intervals(intervals: &[WeightInterval], x: f64) -> Option<(f64, f64)> {
    intervals
        .iter()
        .map(|iv| {
            let nearest = x.clamp(iv.lo, iv.hi);
            ((nearest - x).abs(), nearest)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
}

/// Makes a nearest-interval point *actually feasible* (`rank(q) ≤ k`).
///
/// Interval endpoints are intersection roots computed in floating
/// point; the computed endpoint can sit one ulp on the wrong side of
/// the true boundary, where `q` ranks `k + 1` — an answer that would
/// fail strict verification. When that happens, walk the point toward
/// the interior of its interval in geometrically growing steps until
/// the rank test passes (the penalty cost of the walk is at most
/// ~1e-3 of the interval's width, far below any sampling error).
/// Returns `None` when no nudge inside the interval is feasible —
/// the candidate `k` is then skipped entirely.
fn feasible_nearest(
    points: &[f64],
    q: &[f64],
    k: usize,
    intervals: &[WeightInterval],
    x: f64,
) -> Option<f64> {
    let in_topk = |x: f64| rank_of_point_scan(points, &Weight::from_first_2d(x), q) <= k;
    if in_topk(x) {
        return Some(x);
    }
    let iv = intervals.iter().find(|iv| x >= iv.lo && x <= iv.hi)?;
    let mid = 0.5 * (iv.lo + iv.hi);
    let mut t = x;
    let mut step = 1e-15;
    while step <= 1e-3 {
        let next = t + (mid - t) * step;
        step *= 4.0;
        if next == t {
            // Movement below one ulp at this step size (or a degenerate
            // lo == hi interval, where no interior exists at all): skip
            // the redundant rank scan and try a larger step.
            continue;
        }
        t = next;
        if in_topk(t) {
            return Some(t);
        }
    }
    None
}

/// Exact minimum-penalty modification of `(Wm, k)` over 2-D data.
///
/// `points` is the flat `n × 2` dataset buffer (the full dataset — the
/// oracle intentionally avoids the R-tree so it shares no code with the
/// implementation it validates).
///
/// # Panics
/// Panics if inputs are empty, not two-dimensional, or no why-not vector
/// excludes `q` at all (`k′max ≤ k` — nothing to refine).
pub fn mwk_exact_2d(
    points: &[f64],
    q: &[f64],
    k: usize,
    why_not: &[Weight],
    tol: &Tolerances,
) -> Exact2dResult {
    assert!(!why_not.is_empty(), "why-not set must be non-empty");
    assert_eq!(q.len(), 2, "exact oracle is 2-D only");
    assert!(why_not.iter().all(|w| w.dim() == 2), "weights must be 2-D");

    // Ranks of q under the originals give k′max (Lemma 4).
    let ranks: Vec<usize> = why_not
        .iter()
        .map(|w| rank_of_point_scan(points, w, q))
        .collect();
    let k_max = *ranks.iter().max().expect("non-empty");
    assert!(k_max > k, "nothing to refine: every vector admits q");

    let mut best_refined = why_not.to_vec();
    let mut best_k = k_max;
    let mut best_pen = preference_penalty(tol, why_not, why_not, k, k_max, k_max);
    let mut evaluated = 0;

    // Enumerate candidate k′ ∈ [k, k′max]; for each, the optimal vector
    // per position is the nearest point of MRTOPk′(q).
    for k_cand in k..=k_max {
        let intervals = monochromatic_reverse_topk_2d(points, q, k_cand);
        if intervals.is_empty() {
            continue;
        }
        evaluated += 1;
        let mut refined = Vec::with_capacity(why_not.len());
        let mut feasible = true;
        for (w, &r) in why_not.iter().zip(&ranks) {
            if r <= k_cand {
                refined.push(w.clone()); // already inside at this k′
                continue;
            }
            let (_, x) = nearest_in_intervals(&intervals, w[0]).expect("non-empty interval union");
            match feasible_nearest(points, q, k_cand, &intervals, x) {
                Some(x) => refined.push(Weight::from_first_2d(x)),
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if !feasible {
            continue;
        }
        let pen = preference_penalty(tol, why_not, &refined, k, k_cand, k_max);
        if pen < best_pen {
            best_pen = pen;
            best_k = k_cand;
            best_refined = refined;
        }
    }

    Exact2dResult {
        refined: best_refined,
        k_prime: best_k,
        penalty: best_pen,
        k_max,
        candidates_evaluated: evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwk::mwk_view;
    use crate::test_support::{fig_points, indexed, kevin_julia};
    use wqrtq_query::rank::rank_of_point_scan as rank_scan;

    #[test]
    fn paper_example_exact_optimum() {
        // The analytically optimal refinement keeps k = 3 and moves
        // Kevin → (1/6, 5/6), Julia → (3/4, 1/4): penalty
        // 0.5·(0.0667 + 0.15)·√2/√2 = 0.10833.
        let res = mwk_exact_2d(
            &fig_points(),
            &[4.0, 4.0],
            3,
            &kevin_julia(),
            &Tolerances::paper_default(),
        );
        assert_eq!(res.k_max, 4);
        assert!((res.penalty - 0.10833333).abs() < 1e-6, "{}", res.penalty);
        assert_eq!(res.k_prime, 3);
        assert!((res.refined[0][0] - 1.0 / 6.0).abs() < 1e-9);
        assert!((res.refined[1][0] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn exact_answer_is_feasible() {
        let pts = fig_points();
        let res = mwk_exact_2d(
            &pts,
            &[4.0, 4.0],
            3,
            &kevin_julia(),
            &Tolerances::paper_default(),
        );
        for w in &res.refined {
            assert!(rank_scan(&pts, w, &[4.0, 4.0]) <= res.k_prime);
        }
    }

    #[test]
    fn sampled_mwk_converges_to_exact_on_paper_example() {
        let pts = fig_points();
        let (tree, view) = indexed(2, &pts);
        let tol = Tolerances::paper_default();
        let exact = mwk_exact_2d(&pts, &[4.0, 4.0], 3, &kevin_julia(), &tol);
        let sampled = mwk_view(&tree, &view, &[4.0, 4.0], 3, &kevin_julia(), 800, &tol, 9).unwrap();
        assert!(sampled.penalty >= exact.penalty - 1e-9, "oracle beaten?");
        assert!(
            sampled.penalty <= exact.penalty + 1e-6,
            "sampled {} vs exact {}",
            sampled.penalty,
            exact.penalty
        );
    }

    #[test]
    fn sampled_mwk_near_exact_on_random_data() {
        // On a 2-D uniform dataset the sampler should land within a small
        // factor of the oracle at |S| = 400.
        let mut pts = Vec::new();
        let mut state = 0xABCDu64;
        for _ in 0..3000 {
            for _ in 0..2 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(97);
                pts.push((state >> 11) as f64 / (1u64 << 53) as f64);
            }
        }
        let (tree, view) = indexed(2, &pts);
        let tol = Tolerances::paper_default();
        // A competitive q, why-not under a top-heavy weight.
        let q = [0.02, 0.2];
        let w = Weight::new(vec![0.05, 0.95]);
        let rank = rank_scan(&pts, &w, &q);
        assert!(rank > 10, "setup: rank {rank}");
        let wm = vec![w];
        let exact = mwk_exact_2d(&pts, &q, 10, &wm, &tol);
        let sampled = mwk_view(&tree, &view, &q, 10, &wm, 400, &tol, 3).unwrap();
        assert!(sampled.penalty + 1e-9 >= exact.penalty);
        assert!(
            sampled.penalty <= exact.penalty * 1.5 + 0.02,
            "sampled {} too far above exact {}",
            sampled.penalty,
            exact.penalty
        );
    }

    #[test]
    #[should_panic(expected = "nothing to refine")]
    fn rejects_satisfied_vectors() {
        let _ = mwk_exact_2d(
            &fig_points(),
            &[4.0, 4.0],
            3,
            &[Weight::new(vec![0.5, 0.5])],
            &Tolerances::paper_default(),
        );
    }

    #[test]
    fn nearest_interval_point_logic() {
        let ivs = [
            WeightInterval { lo: 0.2, hi: 0.3 },
            WeightInterval { lo: 0.6, hi: 0.8 },
        ];
        assert_eq!(nearest_in_intervals(&ivs, 0.25), Some((0.0, 0.25)));
        assert_eq!(nearest_in_intervals(&ivs, 0.1), Some((0.1, 0.2)));
        let (d, x) = nearest_in_intervals(&ivs, 0.5).unwrap();
        assert!((d - 0.1).abs() < 1e-12 && (x - 0.6).abs() < 1e-12);
        assert_eq!(nearest_in_intervals(&[], 0.5), None);
    }
}
