//! Rank queries: where would `q` place under a weighting vector?
//!
//! `rank(q, w) = 1 + |{p ∈ P : f(w, p) < f(w, q)}|`, so `q ∈ TOPk(w)` iff
//! `rank(q, w) ≤ k` — the membership rule of Definitions 2/3 with the
//! paper's tie semantics (`f(w, q) ≤ f(w, p)` keeps `q` in on a tie).
//!
//! Over a [`DeltaView`] (a plain view for an unmutated dataset):
//!
//! * [`rank_of_point_view`] — exact counting over the R-tree (subtree
//!   counts make it sub-linear) plus the `O(Δ)` overlay corrections;
//! * [`is_in_topk_view_masked_with_stats`] — the *early-exit* membership
//!   probe: a best-first descent that stops the moment enough better
//!   points are known **or** the smallest remaining MBR lower bound
//!   reaches `f(w, q)`, optionally consulting a [`DominanceIndex`];
//! * [`rank_of_point_scan`] — the naive row-major scan every index path
//!   is validated against.

use wqrtq_geom::{score, DeltaView};
use wqrtq_rtree::{DominanceIndex, ProbeScratch, RTree};

/// Linear-scan rank baseline over a flat row-major `n × dim` buffer —
/// the correctness oracle for the tree and kernel paths. The query score
/// is hoisted out of the per-point loop.
///
/// # Panics
/// Panics if the buffer length is not a multiple of `w.len()`.
pub fn rank_of_point_scan(points: &[f64], w: &[f64], q: &[f64]) -> usize {
    let dim = w.len();
    assert_eq!(points.len() % dim, 0, "coordinate buffer length mismatch");
    let s = score(w, q);
    points.chunks_exact(dim).filter(|p| score(w, p) < s).count() + 1
}

/// Exact rank of `q` over a delta overlay: the base R-tree's counted
/// pruning plus the `O(Δ)` overlay corrections (appended rows add,
/// tombstoned rows subtract). `tree` must be the index of `view`'s base.
pub fn rank_of_point_view(tree: &RTree, view: &DeltaView, w: &[f64], q: &[f64]) -> usize {
    let s = score(w, q);
    let base_all = tree.count_score_below(w, s, true);
    base_all - view.count_better_dead(w, s) + view.count_better_delta(w, s) + 1
}

/// Decides `q ∈ TOPk(w)` over a delta overlay without an exact rank,
/// reporting the index nodes the probe expanded (the paper's `|RT|`
/// cost term). `scratch` is the reusable traversal queue: zero
/// allocations per call once it has grown to the tree's depth.
///
/// `q` is a live member ⟺ `live_better < k` where
/// `live_better = base_all − dead_better + delta_better`; substituting
/// gives `base_all < k − delta_better + dead_better`, which is precisely
/// the base probe with an adjusted count target. When the delta alone
/// already supplies `k` better points the verdict is known without
/// touching the index.
///
/// With `dom` (a [`DominanceIndex`] built from the view's *base* tree)
/// the verdict is bit-identical, with masked points and all-masked
/// subtrees skipped. Deletes inflate the exclusion threshold
/// (`k_eff = adjusted cap + tombstones`, so every exclusion still has
/// cap-many live dominators); appends never join the mask. The probe
/// falls back to the unmasked traversal when the mask's build cap
/// cannot certify exclusion at `k_eff`.
pub fn is_in_topk_view_masked_with_stats(
    tree: &RTree,
    view: &DeltaView,
    dom: Option<&DominanceIndex>,
    w: &[f64],
    q: &[f64],
    k: usize,
    scratch: &mut ProbeScratch,
) -> (bool, usize) {
    if k == 0 {
        return (false, 0);
    }
    let s = score(w, q);
    let d_add = view.count_better_delta(w, s);
    if d_add >= k {
        return (false, 0);
    }
    let cap = k - d_add + view.count_better_dead(w, s);
    // Culprit-plane fast path over the base: dead better points are
    // counted by the plane too, so the inflated cap decides the live
    // verdict exactly (see `rta_over_order_view_masked`).
    if let Some(outranked) = dom.and_then(|d| d.plane_outranked(w, s, cap)) {
        return (!outranked, 0);
    }
    let k_eff = k - d_add + view.tombstone_len();
    let probe = match dom.filter(|d| d.usable_for(k_eff)) {
        Some(d) => tree.probe_topk_membership_masked(w, s, cap, k_eff, d, scratch, None),
        None => tree.probe_topk_membership(w, s, cap, scratch, None),
    };
    (probe.in_topk, probe.nodes_visited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{fig_points, fig_views, indexed};
    use proptest::prelude::*;

    const FIG_WEIGHTS: [[f64; 2]; 4] = [[0.1, 0.9], [0.5, 0.5], [0.3, 0.7], [0.9, 0.1]];

    fn member(tree: &RTree, view: &DeltaView, w: &[f64], q: &[f64], k: usize) -> bool {
        let mut scratch = ProbeScratch::new();
        is_in_topk_view_masked_with_stats(tree, view, None, w, q, k, &mut scratch).0
    }

    #[test]
    fn ranks_match_figure_1c() {
        let [(t, v), _] = fig_views();
        let q = [4.0, 4.0];
        // Kevin (0.1,0.9): p1,p2,p4 better → rank 4 (why-not!).
        assert_eq!(rank_of_point_view(&t, &v, &[0.1, 0.9], &q), 4);
        // Tony (0.5,0.5): only p1 (1.5) beats q (4.0); p2 scores 4.5.
        // TOP3(w2) = {p1, q, p2} per Figure 1(c) → rank 2 → in BRTOP3.
        assert_eq!(rank_of_point_view(&t, &v, &[0.5, 0.5], &q), 2);
        // Anna (0.3,0.7): scores 1.3,3.9,6.6,4.8,5.6,7.1,5.8 vs q=4 → rank 3.
        assert_eq!(rank_of_point_view(&t, &v, &[0.3, 0.7], &q), 3);
        // Julia (0.9,0.1): p1,p3,p7 better → rank 4 (why-not!).
        assert_eq!(rank_of_point_view(&t, &v, &[0.9, 0.1], &q), 4);
    }

    #[test]
    fn membership_matches_paper_reverse_top3() {
        let [(t, v), _] = fig_views();
        let q = [4.0, 4.0];
        assert!(!member(&t, &v, &[0.1, 0.9], &q, 3)); // Kevin
        assert!(member(&t, &v, &[0.5, 0.5], &q, 3)); // Tony
        assert!(member(&t, &v, &[0.3, 0.7], &q, 3)); // Anna
        assert!(!member(&t, &v, &[0.9, 0.1], &q, 3)); // Julia

        // Everyone admits q at k = 4 (Lemma 4: k'max = 4 in the example).
        for w in FIG_WEIGHTS {
            assert!(member(&t, &v, &w, &q, 4));
        }
    }

    #[test]
    fn tie_keeps_query_in_topk() {
        // A point tying with q does not push q out (≤ semantics).
        let pts = vec![1.0, 1.0, 2.0, 2.0];
        let (t, v) = indexed(2, &pts, &[], 1, false);
        let q = [2.0, 2.0]; // ties with the second point under any weight
        assert_eq!(rank_of_point_view(&t, &v, &[0.5, 0.5], &q), 2);
        assert!(member(&t, &v, &[0.5, 0.5], &q, 2));
        assert_eq!(v.rank_of(&[0.5, 0.5], &q), 2);
    }

    #[test]
    fn stats_variant_reports_nodes() {
        let [(t, v), _] = fig_views();
        let mut scratch = ProbeScratch::new();
        let (member, nodes) = is_in_topk_view_masked_with_stats(
            &t,
            &v,
            None,
            &[0.1, 0.9],
            &[4.0, 4.0],
            3,
            &mut scratch,
        );
        assert!(!member);
        assert!(nodes > 0);
    }

    /// Every rank engine agrees with the scan over the live rows, on the
    /// plain paper dataset and on an overlay of it, for every dataset
    /// point and a few off-dataset queries, at every `k` (including 0).
    #[test]
    fn view_rank_and_membership_match_rebuilt_scan() {
        let mut queries: Vec<[f64; 2]> =
            fig_points().chunks_exact(2).map(|p| [p[0], p[1]]).collect();
        queries.extend([[4.0, 4.0], [1.0, 1.0], [0.4, 0.6], [9.0, 9.0]]);
        for (tree, view) in fig_views() {
            let (live, _) = view.materialize_row_major();
            for w in FIG_WEIGHTS {
                for q in &queries {
                    let oracle = rank_of_point_scan(&live, &w, q);
                    assert_eq!(rank_of_point_view(&tree, &view, &w, q), oracle);
                    assert_eq!(view.rank_of(&w, q), oracle, "flat kernel {w:?} {q:?}");
                    for k in 0..=9 {
                        assert_eq!(
                            member(&tree, &view, &w, q, k),
                            k > 0 && oracle <= k,
                            "w {w:?} q {q:?} k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn masked_view_membership_matches_unmasked() {
        for (tree, view) in fig_views() {
            let (live, _) = view.materialize_row_major();
            let dom = DominanceIndex::build(&tree);
            let mut scratch = ProbeScratch::new();
            for w in FIG_WEIGHTS {
                for q in [[4.0, 4.0], [1.0, 1.0], [0.4, 0.6], [9.0, 9.0]] {
                    let oracle = rank_of_point_scan(&live, &w, &q);
                    for k in 0..=9 {
                        let (got, _) = is_in_topk_view_masked_with_stats(
                            &tree,
                            &view,
                            Some(&dom),
                            &w,
                            &q,
                            k,
                            &mut scratch,
                        );
                        assert_eq!(got, k > 0 && oracle <= k, "w {w:?} q {q:?} k {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn masked_membership_falls_back_when_cap_too_small() {
        // A mask built with cap = 1 cannot certify exclusion for k ≥ 2;
        // the probe must fall back to the unmasked traversal, never
        // panic or misclassify.
        let [(t, v), _] = fig_views();
        let dom = DominanceIndex::build_with_cap(&t, 1);
        let mut scratch = ProbeScratch::new();
        for k in 1..=6 {
            for w in [[0.5, 0.5], [0.1, 0.9]] {
                let q = [4.0, 4.0];
                assert_eq!(
                    is_in_topk_view_masked_with_stats(&t, &v, Some(&dom), &w, &q, k, &mut scratch)
                        .0,
                    member(&t, &v, &w, &q, k),
                );
            }
        }
    }

    /// Appends `copies` exact copies of `q` to `pts`: they tie with q
    /// under every weight, right at the k boundary.
    fn with_boundary_ties(mut pts: Vec<(f64, f64)>, q: (f64, f64), copies: usize) -> Vec<f64> {
        for _ in 0..copies {
            pts.push(q);
        }
        pts.iter().flat_map(|(a, b)| [*a, *b]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Rank and membership against a scan of the live rows, on a
        /// plain view (`mutate` false) or an overlay that tombstones
        /// every `del_stride`-th base row and appends `extra`. Copies of
        /// q in the base put exact ties at the k boundary; under the
        /// strict semantics they never count against q.
        #[test]
        fn view_primitives_match_rebuilt_oracle(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 4..200),
            extra in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..12),
            q in (0.0f64..10.0, 0.0f64..10.0),
            raw in (0.01f64..1.0, 0.01f64..1.0),
            k in 1usize..12,
            del_stride in 2usize..6,
            tie_copies in 0usize..4,
            mutate in proptest::bool::ANY,
        ) {
            let flat = with_boundary_ties(pts, q, tie_copies);
            let extra: Vec<f64> = extra.iter().flat_map(|(a, b)| [*a, *b]).collect();
            let (tree, view) = indexed(2, &flat, &extra, del_stride, mutate);
            let (live, _) = view.materialize_row_major();
            let s = raw.0 + raw.1;
            let w = [raw.0 / s, raw.1 / s];
            let qv = [q.0, q.1];
            let oracle = rank_of_point_scan(&live, &w, &qv);
            prop_assert_eq!(rank_of_point_view(&tree, &view, &w, &qv), oracle);
            prop_assert_eq!(view.rank_of(&w, &qv), oracle);
            prop_assert_eq!(member(&tree, &view, &w, &qv, k), oracle <= k);
            prop_assert_eq!(view.is_in_topk(&w, &qv, k), oracle <= k);
        }

        #[test]
        fn masked_view_membership_matches_unmasked_under_mutation(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 4..200),
            extra in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..12),
            q in (0.0f64..10.0, 0.0f64..10.0),
            raw in (0.01f64..1.0, 0.01f64..1.0),
            k in 1usize..12,
            del_stride in 2usize..6,
            tie_copies in 0usize..4,
            mutate in proptest::bool::ANY,
        ) {
            // Same overlay construction as view_primitives_match_rebuilt_oracle,
            // plus exact copies of q in the base so ties sit right at the
            // masked/unmasked boundary.
            let flat = with_boundary_ties(pts, q, tie_copies);
            let extra: Vec<f64> = extra.iter().flat_map(|(a, b)| [*a, *b]).collect();
            let (tree, view) = indexed(2, &flat, &extra, del_stride, mutate);
            let dom = DominanceIndex::build(&tree);
            let s = raw.0 + raw.1;
            let w = [raw.0 / s, raw.1 / s];
            let mut scratch = ProbeScratch::new();
            // The query point itself probes the tie boundary; also probe a
            // handful of dataset points.
            let mut queries = vec![[q.0, q.1]];
            for p in flat.chunks_exact(2).take(6) {
                queries.push([p[0], p[1]]);
            }
            for qq in &queries {
                let unmasked = member(&tree, &view, &w, qq, k);
                let (masked, _) = is_in_topk_view_masked_with_stats(
                    &tree, &view, Some(&dom), &w, qq, k, &mut scratch,
                );
                prop_assert_eq!(masked, unmasked, "masked vs unmasked, q {:?} k {}", qq, k);
            }
        }
    }
}
