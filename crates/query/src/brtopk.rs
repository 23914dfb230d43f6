//! Bichromatic reverse top-k queries (Definition 3 of the paper).
//!
//! Given products `P`, customer weighting vectors `W`, a query product `q`
//! and `k`, return every `w ∈ W` with `q ∈ TOPk(w)`.
//!
//! Implementations, from oracle to hot path:
//!
//! * [`bichromatic_reverse_topk_naive`] — an independent rank scan per
//!   weight over the raw points (the correctness oracle);
//! * [`rta_over_order_view_masked`] — the RTA hot path over a
//!   [`DeltaView`]: weights are processed in similarity order; a rolling
//!   *culprit pool* (points recently proven strictly better than `q`)
//!   provides the threshold test via the fused [`count_better_rows`]
//!   kernel, and weights that survive it go to the early-exit membership
//!   probe, which refills the pool with the culprits it encounters — no
//!   per-weight top-k, no per-weight allocation. The pool test is sound
//!   for *any* pool contents: pool members are dataset points, so `k` of
//!   them scoring strictly below `f(w, q)` proves `rank(q, w) > k`
//!   regardless of how the pool was assembled.
//!
//! The hot path is shardable: a serving engine computes the similarity
//! order once ([`rta_sorted_order`]), splits it into contiguous chunks,
//! and runs each chunk on a different worker with its own scratch —
//! results merge by concatenation because every chunk's verdicts are
//! independent.

use wqrtq_geom::{count_better_rows, DeltaView, Point, Weight};
use wqrtq_rtree::{search::CulpritBuf, DominanceIndex, ProbeScratch, RTree};

/// Work counters exposed by the RTA implementations for the ablation
/// benchmarks (`ablation_rta_vs_naive`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtaStats {
    /// Weights rejected purely by the reused threshold buffer/pool.
    pub buffer_prunes: usize,
    /// Weights that needed an index probe.
    pub tree_verifications: usize,
}

impl RtaStats {
    /// Merges another shard's counters into this one.
    pub fn merge(&mut self, other: RtaStats) {
        self.buffer_prunes += other.buffer_prunes;
        self.tree_verifications += other.tree_verifications;
    }
}

/// Reusable buffers for the RTA hot path: the membership probe's
/// traversal queue, the rolling culprit pool, and the per-probe culprit
/// collector. One instance per serving worker; zero allocations per
/// request after warm-up.
#[derive(Debug, Default)]
pub struct RtaScratch {
    probe: ProbeScratch,
    /// Flat row-major coordinates of recently-seen culprit points.
    pool: Vec<f64>,
    /// Ids parallel to `pool` — the prune counts *distinct* dataset
    /// points, so the same point must never enter the pool twice.
    pool_ids: Vec<u32>,
    /// Culprits collected by the current probe (merged into the pool).
    fresh: CulpritBuf,
    /// Whether any RTA has run on this scratch (culprit-plane requests
    /// allocate nothing at all, so capacity alone can't signal warmth).
    warm: bool,
}

impl RtaScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the scratch has already served a request — subsequent
    /// requests reuse its buffers instead of allocating (serving
    /// metrics count these as buffer-reuse hits).
    pub fn is_warm(&self) -> bool {
        self.warm || self.pool.capacity() > 0
    }
}

/// Naive bichromatic reverse top-k: a full rank scan per weight.
/// Returns the indices (into `weights`) of the qualifying vectors, in
/// ascending order.
pub fn bichromatic_reverse_topk_naive(
    points: &[Point],
    weights: &[Weight],
    q: &[f64],
    k: usize,
) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, w) in weights.iter().enumerate() {
        let sq = w.score(q);
        let better = points.iter().filter(|p| w.score(p) < sq).count();
        if better < k {
            out.push(i);
        }
    }
    out
}

/// The similarity order RTA processes weights in: lexicographic over the
/// entries, so adjacent weights are close and their culprit sets
/// transfer well (and engines shard [`rta_over_order_view_masked`] over
/// contiguous chunks of it).
pub fn rta_sorted_order(weights: &[Weight]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        weights[a]
            .as_slice()
            .iter()
            .zip(weights[b].as_slice())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

/// The RTA body of a plain view (no appends, no tombstones): the seed
/// traversal's exact top-k fills the culprit pool, which each probe
/// refills with the culprits it meets.
///
/// With a [`DominanceIndex`] the seed traversal and every membership
/// probe skip points (and whole subtrees) that `k` other points dominate.
/// Verdicts are bit-identical to the unmasked run — masked points can
/// never flip a membership outcome — though the prune/verify split in
/// [`RtaStats`] may shift (the culprit pool is filled from whichever
/// points the probes actually visit). `None`, a mask whose build cap is
/// below `k`, or weights with negative entries degrade gracefully to the
/// unmasked path.
fn rta_over_order_masked(
    tree: &RTree,
    weights: &[Weight],
    order: &[usize],
    q: &[f64],
    k: usize,
    dom: Option<&DominanceIndex>,
    scratch: &mut RtaScratch,
) -> (Vec<usize>, RtaStats) {
    let mut stats = RtaStats::default();
    let mut result = Vec::new();
    if order.is_empty() || k == 0 {
        return (result, stats);
    }
    scratch.warm = true;
    let dom = dom.filter(|d| d.usable_for(k));
    // Culprit-plane fast path: a point with ≥ k dominators can never be
    // a top-k member or a culprit, so every verdict is a capped count
    // over the compact k-skyband — no tree probes at all. A rolling
    // culprit pool still fronts the plane: most outranked weights are
    // rejected by re-scoring ~2k recent culprit rows (a dozen FLOPs),
    // and whenever the plane does rule a weight out, the pool is
    // refreshed with culprits sampled from the same skyband, so it
    // tracks the sorted weight walk. Weights with negative entries
    // (where the dominance argument fails) fall back to an exact
    // unmasked probe individually.
    if let Some(d) = dom {
        if d.plane_usable_for(k) {
            let dim = tree.dim();
            let pool_points_cap = 2 * k;
            scratch.pool.clear();
            scratch.pool_ids.clear();
            for &idx in order {
                let w = &weights[idx];
                let sq = w.score(q);
                // Pool rows are distinct dataset points (ids here are
                // plane-local indices, never mixed with the tree path's
                // dataset ids — both pools are per-request), so k of
                // them beating q prove it out.
                if scratch.pool_ids.len() >= k && count_better_rows(&scratch.pool, w, sq) >= k {
                    stats.buffer_prunes += 1;
                    continue;
                }
                match d.plane_outranked(w.as_slice(), sq, k) {
                    Some(outranked) => {
                        stats.buffer_prunes += 1;
                        if outranked {
                            // Refresh the pool with culprits sampled
                            // from the same skyband (id-deduplicated,
                            // recency-bounded — the exact discipline of
                            // the tree path's probe-fed pool).
                            scratch.fresh.clear();
                            d.plane_culprits_into(w.as_slice(), sq, k, 2 * k, &mut scratch.fresh);
                            for (i, &id) in scratch.fresh.ids.iter().enumerate() {
                                if scratch.pool_ids.contains(&id) {
                                    continue;
                                }
                                scratch.pool_ids.push(id);
                                scratch.pool.extend_from_slice(
                                    &scratch.fresh.coords[i * dim..(i + 1) * dim],
                                );
                            }
                            if scratch.pool_ids.len() > pool_points_cap {
                                let excess = scratch.pool_ids.len() - pool_points_cap;
                                scratch.pool_ids.drain(0..excess);
                                scratch.pool.drain(0..excess * dim);
                            }
                        } else {
                            result.push(idx);
                        }
                    }
                    None => {
                        stats.tree_verifications += 1;
                        if tree
                            .probe_topk_membership(w.as_slice(), sq, k, &mut scratch.probe, None)
                            .in_topk
                        {
                            result.push(idx);
                        }
                    }
                }
            }
            return (result, stats);
        }
    }
    let dim = tree.dim();
    // The pool keeps at most 2k recent culprits: enough slack that the
    // k needed for a prune survive drift across the sorted weights,
    // small enough that the fused count kernel stays in L1.
    let pool_points_cap = 2 * k;
    scratch.pool.clear();
    scratch.pool_ids.clear();

    // Seed: the first weight's exact top-k both decides its membership
    // (q is in iff fewer than k of the k best strictly beat it — every
    // other point scores no better than the k-th) and fills the pool.
    // A masked traversal emits the same k scores bit-for-bit, so the
    // seeded verdict is unchanged.
    let first = order[0];
    let w0 = &weights[first];
    let sq0 = w0.score(q);
    stats.tree_verifications += 1;
    let mut seeded_better = 0usize;
    let mut bf = match dom {
        Some(d) if !w0.as_slice().iter().any(|&x| x < 0.0) => {
            tree.best_first_masked(w0.as_slice(), d, k)
        }
        _ => tree.best_first(w0),
    };
    for _ in 0..k {
        match bf.next_entry() {
            Some(r) => {
                if r.score < sq0 {
                    seeded_better += 1;
                }
                scratch.pool_ids.push(r.id);
                scratch.pool.extend_from_slice(r.coords);
            }
            None => break,
        }
    }
    if seeded_better < k {
        result.push(first);
    }

    for &idx in &order[1..] {
        let w = &weights[idx];
        let sq = w.score(q);

        // Pool threshold test: k *distinct* dataset points strictly
        // better than q under this weight prove q out with zero index
        // work (sound for any pool contents — they are dataset points).
        if scratch.pool_ids.len() >= k && count_better_rows(&scratch.pool, w, sq) >= k {
            stats.buffer_prunes += 1;
            continue;
        }

        stats.tree_verifications += 1;
        scratch.fresh.clear();
        let probe = match dom {
            Some(d) => tree.probe_topk_membership_masked(
                w.as_slice(),
                sq,
                k,
                k,
                d,
                &mut scratch.probe,
                Some(&mut scratch.fresh),
            ),
            None => {
                tree.probe_topk_membership(w, sq, k, &mut scratch.probe, Some(&mut scratch.fresh))
            }
        };
        if probe.in_topk {
            result.push(idx);
        }
        // Merge the probe's culprits into the pool (id-deduplicated),
        // recency-bounded so stale evidence ages out.
        for (i, &id) in scratch.fresh.ids.iter().enumerate() {
            if scratch.pool_ids.contains(&id) {
                continue;
            }
            scratch.pool_ids.push(id);
            scratch
                .pool
                .extend_from_slice(&scratch.fresh.coords[i * dim..(i + 1) * dim]);
        }
        if scratch.pool_ids.len() > pool_points_cap {
            let excess = scratch.pool_ids.len() - pool_points_cap;
            scratch.pool_ids.drain(0..excess);
            scratch.pool.drain(0..excess * dim);
        }
    }
    (result, stats)
}

/// Runs RTA over one contiguous slice of a similarity order (see
/// [`rta_sorted_order`]) against a delta overlay. Returns the qualifying
/// original indices in traversal order (callers sort after merging
/// shards) plus the shard's pruning counters.
///
/// Sharding-safe: each call maintains its own culprit pool inside
/// `scratch`, so verdicts never depend on other shards.
///
/// Every weight's verdict is corrected by the `O(Δ)` appended and
/// tombstoned sweeps, the culprit pool keeps only *live* base points (a
/// tombstoned culprit would prune unsoundly), and the base probe's count
/// target shifts by the overlay corrections — so the verdicts are
/// exactly those of a dataset rebuilt from the live rows. Plain views
/// take a separate body that also seeds and refills the culprit pool
/// from the base's exact top-k and the mask's skyband.
///
/// Soundness of the pruning ladder, per weight with `sq = f(w, q)`:
///
/// 1. `d_add` live appended rows beat `q`; if `d_add ≥ k`, `q` is out.
/// 2. The pool holds live base points; `pool_better ≥ k − d_add` proves
///    at least `k` live points beat `q` — out, no index work.
/// 3. Otherwise probe the base index for target `k − d_add + d_dead`:
///    the probe decides `base_all < k − d_add + d_dead`, which is
///    exactly `live_better < k`.
///
/// With a [`DominanceIndex`] pre-filter over the *base* index, the
/// exclusion threshold per weight is the probe's count target plus the
/// view's tombstone count, so each skipped point keeps enough *live*
/// dominators to make the verdict bit-identical (see `DominanceIndex`'s
/// module docs for the deletion argument). `None` or an insufficient
/// build cap degrades to the unmasked path per weight.
#[allow(clippy::too_many_arguments)]
pub fn rta_over_order_view_masked(
    tree: &RTree,
    view: &DeltaView,
    weights: &[Weight],
    order: &[usize],
    q: &[f64],
    k: usize,
    dom: Option<&DominanceIndex>,
    scratch: &mut RtaScratch,
) -> (Vec<usize>, RtaStats) {
    if view.is_plain() {
        return rta_over_order_masked(tree, weights, order, q, k, dom, scratch);
    }
    let mut stats = RtaStats::default();
    let mut result = Vec::new();
    if order.is_empty() || k == 0 {
        return (result, stats);
    }
    scratch.warm = true;
    let dim = tree.dim();
    let pool_points_cap = 2 * k;
    scratch.pool.clear();
    scratch.pool_ids.clear();

    for &idx in order {
        let w = &weights[idx];
        let sq = w.score(q);
        let d_add = view.count_better_delta(w.as_slice(), sq);
        if d_add >= k {
            // The appended rows alone outrank q.
            stats.buffer_prunes += 1;
            continue;
        }
        let need_live_base = k - d_add;
        if scratch.pool_ids.len() >= need_live_base
            && count_better_rows(&scratch.pool, w.as_slice(), sq) >= need_live_base
        {
            stats.buffer_prunes += 1;
            continue;
        }

        let d_dead = view.count_better_dead(w.as_slice(), sq);
        // Culprit-plane fast path: every base point better than q —
        // live or tombstoned — either sits in the k-skyband plane or
        // has `cap` dominators that do, so a capped plane count with
        // `cap = need_live_base + d_dead` decides the verdict exactly.
        if let Some(d) = dom {
            let cap = need_live_base + d_dead;
            if let Some(outranked) = d.plane_outranked(w.as_slice(), sq, cap) {
                stats.buffer_prunes += 1;
                if !outranked {
                    result.push(idx);
                }
                continue;
            }
        }

        stats.tree_verifications += 1;
        scratch.fresh.clear();
        let k_eff = need_live_base + view.tombstone_len();
        let probe = match dom.filter(|d| d.usable_for(k_eff)) {
            Some(d) => tree.probe_topk_membership_masked(
                w.as_slice(),
                sq,
                need_live_base + d_dead,
                k_eff,
                d,
                &mut scratch.probe,
                Some(&mut scratch.fresh),
            ),
            None => tree.probe_topk_membership(
                w.as_slice(),
                sq,
                need_live_base + d_dead,
                &mut scratch.probe,
                Some(&mut scratch.fresh),
            ),
        };
        if probe.in_topk {
            result.push(idx);
        }
        // Merge the probe's culprits into the pool — live, deduplicated.
        for (i, &id) in scratch.fresh.ids.iter().enumerate() {
            if view.is_deleted(id) || scratch.pool_ids.contains(&id) {
                continue;
            }
            scratch.pool_ids.push(id);
            scratch
                .pool
                .extend_from_slice(&scratch.fresh.coords[i * dim..(i + 1) * dim]);
        }
        if scratch.pool_ids.len() > pool_points_cap {
            let excess = scratch.pool_ids.len() - pool_points_cap;
            scratch.pool_ids.drain(0..excess);
            scratch.pool.drain(0..excess * dim);
        }
    }
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{fig_points, fig_views, indexed};
    use proptest::prelude::*;

    fn fig_products() -> Vec<Point> {
        fig_points()
            .chunks_exact(2)
            .map(|p| Point::from([p[0], p[1]]))
            .collect()
    }

    fn fig_customers() -> Vec<Weight> {
        vec![
            Weight::new(vec![0.1, 0.9]), // Kevin
            Weight::new(vec![0.5, 0.5]), // Tony
            Weight::new(vec![0.3, 0.7]), // Anna
            Weight::new(vec![0.9, 0.1]), // Julia
        ]
    }

    /// One-shot RTA over the whole population, members ascending.
    fn rta(
        tree: &RTree,
        view: &DeltaView,
        weights: &[Weight],
        q: &[f64],
        k: usize,
        dom: Option<&DominanceIndex>,
    ) -> (Vec<usize>, RtaStats) {
        let order = rta_sorted_order(weights);
        let mut scratch = RtaScratch::new();
        let (mut members, stats) =
            rta_over_order_view_masked(tree, view, weights, &order, q, k, dom, &mut scratch);
        members.sort_unstable();
        (members, stats)
    }

    /// `n` pseudo-random 2-D points in `[0, scale)²`.
    fn lcg_points(n: usize, mut state: u64, inc: u64, scale: f64) -> Vec<f64> {
        (0..2 * n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(inc);
                (state >> 11) as f64 / (1u64 << 53) as f64 * scale
            })
            .collect()
    }

    #[test]
    fn paper_example_brtop3_is_tony_and_anna() {
        let res = bichromatic_reverse_topk_naive(&fig_products(), &fig_customers(), &[4.0, 4.0], 3);
        assert_eq!(res, vec![1, 2]); // Tony, Anna
    }

    #[test]
    fn rta_matches_naive_on_paper_example() {
        let [(tree, view), _] = fig_views();
        let dom = DominanceIndex::build(&tree);
        for mask in [None, Some(&dom)] {
            let (res, stats) = rta(&tree, &view, &fig_customers(), &[4.0, 4.0], 3, mask);
            assert_eq!(res, vec![1, 2]); // Tony, Anna
            assert_eq!(stats.buffer_prunes + stats.tree_verifications, 4);
        }
    }

    #[test]
    fn k_larger_than_dataset_returns_everyone() {
        let res =
            bichromatic_reverse_topk_naive(&fig_products(), &fig_customers(), &[4.0, 4.0], 100);
        assert_eq!(res, vec![0, 1, 2, 3]);
        let [(tree, view), _] = fig_views();
        let (res, _) = rta(&tree, &view, &fig_customers(), &[4.0, 4.0], 100, None);
        assert_eq!(res, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_weights_and_k_zero() {
        assert!(bichromatic_reverse_topk_naive(&fig_products(), &[], &[4.0, 4.0], 3).is_empty());
        for (tree, view) in fig_views() {
            assert!(rta(&tree, &view, &fig_customers(), &[4.0, 4.0], 0, None)
                .0
                .is_empty());
            assert!(rta(&tree, &view, &[], &[4.0, 4.0], 3, None).0.is_empty());
        }
    }

    #[test]
    fn rta_prunes_with_many_similar_weights() {
        // A dense fan of weights on a dataset where q is far from the top:
        // most weights should be rejected by the culprit pool alone.
        let (tree, view) = indexed(2, &lcg_points(500, 12345, 7, 1.0), &[], 1, false);
        let weights: Vec<Weight> = (1..100)
            .map(|i| Weight::from_first_2d(i as f64 / 100.0))
            .collect();
        let q = [0.9, 0.9]; // dominated by many points: never in top-k
        let (res, stats) = rta(&tree, &view, &weights, &q, 5, None);
        assert!(res.is_empty());
        assert!(
            stats.buffer_prunes > stats.tree_verifications,
            "expected the pool to do most of the work: {stats:?}"
        );
    }

    #[test]
    fn sharded_order_matches_full_run() {
        // Chunking the sorted order and merging must reproduce the
        // one-shot result — the contract the engine's parallel path
        // relies on.
        let (tree, view) = indexed(2, &lcg_points(400, 99, 17, 10.0), &[], 1, false);
        let weights: Vec<Weight> = (1..120)
            .map(|i| Weight::from_first_2d(i as f64 / 120.0))
            .collect();
        let q = [3.0, 3.5];
        for k in [1, 4, 9] {
            let (full, _) = rta(&tree, &view, &weights, &q, k, None);
            let order = rta_sorted_order(&weights);
            for shards in [2, 3, 7] {
                let chunk = order.len().div_ceil(shards);
                let mut merged = Vec::new();
                let mut stats = RtaStats::default();
                for piece in order.chunks(chunk) {
                    let mut scratch = RtaScratch::new();
                    let (part, s) = rta_over_order_view_masked(
                        &tree,
                        &view,
                        &weights,
                        piece,
                        &q,
                        k,
                        None,
                        &mut scratch,
                    );
                    merged.extend(part);
                    stats.merge(s);
                }
                merged.sort_unstable();
                assert_eq!(merged, full, "k={k} shards={shards}");
                assert_eq!(
                    stats.buffer_prunes + stats.tree_verifications,
                    weights.len(),
                    "every weight decided exactly once"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_preserves_results() {
        let [(tree, view), _] = fig_views();
        let weights = fig_customers();
        let order = rta_sorted_order(&weights);
        let mut scratch = RtaScratch::new();
        assert!(!scratch.is_warm());
        let run = |q: &[f64], scratch: &mut RtaScratch| {
            let (mut members, _) =
                rta_over_order_view_masked(&tree, &view, &weights, &order, q, 3, None, scratch);
            members.sort_unstable();
            members
        };
        let a = run(&[4.0, 4.0], &mut scratch);
        assert!(scratch.is_warm());
        // Reuse the same scratch for a different query: must not leak
        // pool state into wrong answers.
        let b = run(&[1.0, 1.0], &mut scratch);
        let naive_b = bichromatic_reverse_topk_naive(&fig_products(), &weights, &[1.0, 1.0], 3);
        assert_eq!(b, naive_b);
        assert_eq!(a, run(&[4.0, 4.0], &mut scratch));
    }

    /// The base rows `pts` plus `tie_copies` exact copies of `q`, which
    /// tie with it under every weight.
    fn with_ties(pts: &[(f64, f64)], q: (f64, f64), tie_copies: usize) -> Vec<f64> {
        pts.iter()
            .chain(std::iter::repeat_n(&q, tie_copies))
            .flat_map(|(a, b)| [*a, *b])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn masked_rta_matches_unmasked_with_ties_and_mutation(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 5..120),
            extra in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..10),
            q in (0.0f64..10.0, 0.0f64..10.0),
            k in 1usize..8,
            nw in 1usize..16,
            del_stride in 2usize..5,
            tie_copies in 0usize..4,
            mutate in proptest::bool::ANY,
        ) {
            // Duplicates of q tie at the boundary under every weight.
            let flat = with_ties(&pts, q, tie_copies);
            let extra: Vec<f64> = extra.iter().flat_map(|(a, b)| [*a, *b]).collect();
            let (tree, view) = indexed(2, &flat, &extra, del_stride, mutate);
            let dom = DominanceIndex::build(&tree);
            let weights: Vec<Weight> = (0..nw)
                .map(|i| Weight::from_first_2d((i as f64 + 0.5) / nw as f64))
                .collect();
            let qv = [q.0, q.1];
            let (unmasked, _) = rta(&tree, &view, &weights, &qv, k, None);
            let (masked, _) = rta(&tree, &view, &weights, &qv, k, Some(&dom));
            prop_assert_eq!(&unmasked, &masked);
        }

        /// RTA over a plain view (`mutate` false) or an overlay against
        /// the naive scan of the live rows, whole and sharded. Copies of
        /// q in the base tie with it under every weight; the strict-count
        /// semantics must keep q in regardless.
        #[test]
        fn view_rta_matches_rebuilt_naive(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 5..120),
            extra in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 0..10),
            q in (0.0f64..10.0, 0.0f64..10.0),
            k in 1usize..8,
            nw in 1usize..16,
            del_stride in 2usize..5,
            tie_copies in 0usize..4,
            mutate in proptest::bool::ANY,
        ) {
            let flat = with_ties(&pts, q, tie_copies);
            let extra: Vec<f64> = extra.iter().flat_map(|(a, b)| [*a, *b]).collect();
            let (tree, view) = indexed(2, &flat, &extra, del_stride, mutate);
            let (live, _) = view.materialize_row_major();
            let live_points: Vec<Point> = live
                .chunks_exact(2)
                .map(|p| Point::from([p[0], p[1]]))
                .collect();
            let weights: Vec<Weight> = (0..nw)
                .map(|i| Weight::from_first_2d((i as f64 + 0.5) / nw as f64))
                .collect();
            let qv = [q.0, q.1];
            let naive = bichromatic_reverse_topk_naive(&live_points, &weights, &qv, k);
            let (got, _) = rta(&tree, &view, &weights, &qv, k, None);
            prop_assert_eq!(&naive, &got);
            // Sharding the order must reproduce the same verdicts.
            let order = rta_sorted_order(&weights);
            let mut merged = Vec::new();
            for piece in order.chunks(order.len().div_ceil(3).max(1)) {
                let mut scratch = RtaScratch::new();
                let (part, _) = rta_over_order_view_masked(
                    &tree, &view, &weights, piece, &qv, k, None, &mut scratch,
                );
                merged.extend(part);
            }
            merged.sort_unstable();
            prop_assert_eq!(&naive, &merged);
        }
    }
}
