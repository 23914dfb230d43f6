//! Why-not workload construction.
//!
//! The experiments of §5 control the *actual ranking of q under Wm*
//! (Table 1: 11 / 101 / 501 / 1001). This module builds such cases
//! deterministically, matching the paper's narrative: the query product
//! is *competitive* — it ranks near the top under some preference — but
//! the why-not customers rank it around the target (so refinement is
//! meaningful rather than hopeless):
//!
//! 1. pick a pivot preference `w_good` and take its top-5th point as the
//!    query `q` (scaled by `1 + 1e-6` so `q ∉ P`);
//! 2. for each why-not vector, walk the weight simplex away from
//!    `w_good` by bisection until the rank of `q` lands in the target
//!    window — these are preferences that genuinely exclude `q`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wqrtq_geom::{score, Weight};
use wqrtq_rtree::RTree;

/// Parameters of a why-not case to generate.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// The reverse top-k parameter of the original query.
    pub k: usize,
    /// Number of why-not weighting vectors `|Wm|`.
    pub num_why_not: usize,
    /// Target actual rank of `q` under each why-not vector (must exceed
    /// `k`, otherwise the vectors would not be why-not).
    pub target_rank: usize,
    /// Acceptable relative deviation of achieved ranks from the target
    /// (e.g. `0.5` accepts ranks in `[target/2, 3·target/2]`).
    pub rank_tolerance: f64,
}

impl WorkloadSpec {
    /// The paper's default setting: k = 10, |Wm| = 1, rank = 101.
    pub fn paper_default() -> Self {
        Self {
            k: 10,
            num_why_not: 1,
            target_rank: 101,
            rank_tolerance: 0.5,
        }
    }
}

/// A generated why-not case.
#[derive(Clone, Debug)]
pub struct WhyNotCase {
    /// The query point (not a member of the indexed dataset).
    pub q: Vec<f64>,
    /// The why-not weighting vectors, none of which admit `q` at rank ≤ k.
    pub why_not: Vec<Weight>,
    /// The achieved actual rank of `q` under each why-not vector.
    pub actual_ranks: Vec<usize>,
    /// The original query's `k`.
    pub k: usize,
}

/// Uniform sample from the standard simplex via exponential spacings.
fn sample_simplex(rng: &mut StdRng, dim: usize) -> Vec<f64> {
    let mut w: Vec<f64> = (0..dim)
        .map(|_| -rng.gen_range(f64::EPSILON..1.0f64).ln())
        .collect();
    let total: f64 = w.iter().sum();
    for x in &mut w {
        *x /= total;
    }
    w
}

/// Convex interpolation on the simplex (renormalised for safety).
fn lerp_simplex(a: &[f64], b: &[f64], t: f64) -> Vec<f64> {
    let mut w: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| ((1.0 - t) * x + t * y).max(1e-6))
        .collect();
    let s: f64 = w.iter().sum();
    for x in &mut w {
        *x /= s;
    }
    w
}

/// Exact rank of `q` under `w`: one counted R-tree pass.
fn rank_of(tree: &RTree, w: &[f64], q: &[f64]) -> usize {
    tree.count_score_below(w, score(w, q), true) + 1
}

/// Builds a why-not case on an indexed dataset.
///
/// # Panics
/// Panics if the spec is inconsistent (`target_rank ≤ k`,
/// `num_why_not == 0`), the dataset is smaller than the target rank, or
/// (pathologically) no pivot yields ranks in the window after many
/// attempts.
pub fn build_case(tree: &RTree, spec: &WorkloadSpec, seed: u64) -> WhyNotCase {
    assert!(spec.target_rank > spec.k, "target rank must exceed k");
    assert!(spec.num_why_not > 0, "need at least one why-not vector");
    assert!(
        tree.len() > spec.target_rank,
        "dataset smaller than target rank"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = tree.dim();

    let lo = ((spec.target_rank as f64) * (1.0 - spec.rank_tolerance)).ceil() as usize;
    let lo = lo.max(spec.k + 1);
    let hi = ((spec.target_rank as f64) * (1.0 + spec.rank_tolerance)).ceil() as usize;

    for pivot_attempt in 0..32 {
        // A competitive query point: the top-5th product of a random
        // pivot preference (rank ≤ 5 under it), nudged off the dataset.
        // On strongly correlated data a top-5 point can be near the top
        // under *every* weight, making the target rank unreachable — the
        // landmark is progressively deepened in that case.
        let landmark_rank = match pivot_attempt {
            0..=7 => 5,
            8..=15 => (spec.target_rank / 4).max(6),
            16..=23 => (spec.target_rank / 2).max(10),
            _ => (3 * spec.target_rank / 4).max(20),
        }
        .min(tree.len());
        let w_good = sample_simplex(&mut rng, dim);
        let mut bf = tree.best_first(&w_good);
        let mut landmark = None;
        for _ in 0..landmark_rank {
            landmark = bf.next_entry();
        }
        let Some(landmark) = landmark else { continue };
        let q: Vec<f64> = landmark.coords.iter().map(|c| c * (1.0 + 1e-6)).collect();

        let mut why_not: Vec<Weight> = Vec::new();
        let mut ranks: Vec<usize> = Vec::new();
        let mut tries = 0;
        while why_not.len() < spec.num_why_not && tries < 600 {
            tries += 1;
            let w_far = sample_simplex(&mut rng, dim);
            let far_rank = rank_of(tree, &w_far, &q);
            if far_rank < lo {
                continue; // cannot bracket the window along this ray
            }
            if (lo..=hi).contains(&far_rank) {
                why_not.push(Weight::new(w_far));
                ranks.push(far_rank);
                continue;
            }
            // Bisect t ∈ [0, 1]: rank(w(0)) ≤ 5 < lo ≤ … ≤ rank(w(1)).
            let (mut t_lo, mut t_hi) = (0.0f64, 1.0f64);
            let mut found = None;
            for _ in 0..40 {
                let t = 0.5 * (t_lo + t_hi);
                let w = lerp_simplex(&w_good, &w_far, t);
                let r = rank_of(tree, &w, &q);
                if (lo..=hi).contains(&r) {
                    found = Some((w, r));
                    break;
                }
                if r < lo {
                    t_lo = t;
                } else {
                    t_hi = t;
                }
            }
            if let Some((w, r)) = found {
                why_not.push(Weight::new(w));
                ranks.push(r);
            }
        }
        if why_not.len() == spec.num_why_not {
            return WhyNotCase {
                q,
                why_not,
                actual_ranks: ranks,
                k: spec.k,
            };
        }
    }
    panic!("failed to generate a why-not case in the rank window after 32 pivots");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{anticorrelated, independent};
    use wqrtq_query::rank::rank_of_point_scan;

    fn tree_20k() -> RTree {
        RTree::bulk_load(3, &coords_20k())
    }

    fn coords_20k() -> Vec<f64> {
        independent(20_000, 3, 77).coords
    }

    #[test]
    fn case_ranks_are_in_window_and_exceed_k() {
        let coords = coords_20k();
        let tree = RTree::bulk_load(3, &coords);
        let spec = WorkloadSpec {
            k: 10,
            num_why_not: 3,
            target_rank: 101,
            rank_tolerance: 0.5,
        };
        let case = build_case(&tree, &spec, 1);
        assert_eq!(case.why_not.len(), 3);
        assert_eq!(case.k, 10);
        for (w, &r) in case.why_not.iter().zip(&case.actual_ranks) {
            let actual = rank_of_point_scan(&coords, w, &case.q);
            assert_eq!(actual, r);
            assert!(r > spec.k, "rank {r} must exceed k");
            assert!((51..=152).contains(&r), "rank {r} outside window");
        }
    }

    #[test]
    fn query_point_is_competitive_under_some_weight() {
        // The construction guarantees a preference exists that ranks q
        // in the top handful — the paper's "good product" narrative.
        let tree = tree_20k();
        let case = build_case(&tree, &WorkloadSpec::paper_default(), 3);
        // Probe a grid of weights for the best rank of q.
        let mut best = usize::MAX;
        for i in 1..10 {
            for j in 1..(10 - i) {
                let w = [i as f64 / 10.0, j as f64 / 10.0, (10 - i - j) as f64 / 10.0];
                best = best.min(rank_of(&tree, &w, &case.q));
            }
        }
        assert!(best <= 60, "q should be competitive somewhere, best {best}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let tree = tree_20k();
        let spec = WorkloadSpec::paper_default();
        let a = build_case(&tree, &spec, 42);
        let b = build_case(&tree, &spec, 42);
        assert_eq!(a.q, b.q);
        assert_eq!(a.actual_ranks, b.actual_ranks);
    }

    #[test]
    fn high_rank_targets_work() {
        let tree = tree_20k();
        let spec = WorkloadSpec {
            k: 10,
            num_why_not: 1,
            target_rank: 1001,
            rank_tolerance: 0.5,
        };
        let case = build_case(&tree, &spec, 5);
        assert!(case.actual_ranks[0] > 500);
    }

    #[test]
    fn anticorrelated_datasets_supported() {
        let ds = anticorrelated(10_000, 3, 9);
        let tree = RTree::bulk_load(3, &ds.coords);
        let case = build_case(&tree, &WorkloadSpec::paper_default(), 7);
        assert_eq!(case.why_not.len(), 1);
        assert!(case.actual_ranks[0] > 10);
    }

    #[test]
    #[should_panic(expected = "target rank must exceed k")]
    fn rejects_rank_below_k() {
        let tree = tree_20k();
        let spec = WorkloadSpec {
            k: 50,
            num_why_not: 1,
            target_rank: 20,
            rank_tolerance: 0.5,
        };
        let _ = build_case(&tree, &spec, 1);
    }

    #[test]
    fn paper_default_spec() {
        let s = WorkloadSpec::paper_default();
        assert_eq!((s.k, s.num_why_not, s.target_rank), (10, 1, 101));
    }
}
