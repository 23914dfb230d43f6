//! Top-k queries (Definition 1 of the paper).
//!
//! `TOPk(w)` is the set of `k` points with the smallest scores under `w`.
//! The branch-and-bound implementation, [`ViewBestFirst`], rides the
//! R-tree's best-first traversal (BRS \[29\]) over the live points of a
//! [`DeltaView`]; taking its first `k` entries is `TOPk(w)`. The scan
//! implementation, [`topk_scan`], is the baseline used to cross-check it
//! and to quantify the index's benefit in the ablation benchmarks.

use wqrtq_geom::{score, DeltaView};
use wqrtq_rtree::{search::BestFirst, RTree};

/// The top `k`-th point of a weighting vector — the constraint generator
/// of MQP (Lemma 2/3: a refined `q′` with `f(w, q′) ≤ f(w, p_k)` enters
/// `TOPk(w)`).
#[derive(Clone, Debug, PartialEq)]
pub struct KthPoint {
    /// Point id in the indexed dataset.
    pub id: u32,
    /// Its score under the weighting vector.
    pub score: f64,
    /// Its coordinates.
    pub coords: Vec<f64>,
}

/// Linear-scan top-k baseline over a flat `n × dim` buffer.
///
/// # Panics
/// Panics if the buffer length is not a multiple of `w.len()`.
pub fn topk_scan(points: &[f64], w: &[f64], k: usize) -> Vec<(u32, f64)> {
    let dim = w.len();
    assert_eq!(points.len() % dim, 0, "coordinate buffer length mismatch");
    let n = points.len() / dim;
    let mut scored: Vec<(u32, f64)> = (0..n)
        .map(|i| (i as u32, score(w, &points[i * dim..(i + 1) * dim])))
        .collect();
    // Partial selection: full sort is fine at the sizes this baseline is
    // benchmarked on, and keeps ties deterministic (by id).
    scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// One live point produced by [`ViewBestFirst`] in ascending score order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ViewRanked<'a> {
    /// The point's stable id (base id, or overlay-assigned delta id).
    pub id: u32,
    /// Its score under the traversal's weighting vector.
    pub score: f64,
    /// Its coordinates (borrowed from the tree or the overlay).
    pub coords: &'a [f64],
}

/// Best-first enumeration of the *live* points of a delta overlay: the
/// base index's incremental ranking with tombstoned rows skipped, merged
/// with the (pre-scored, sorted) appended rows. Progressive consumers —
/// top-k, k-th point, the why-not culprit scan — drive it exactly like
/// a plain [`RTree::best_first`] traversal.
///
/// Ties: a base point and an appended row with the exact same score are
/// emitted base-first (appended ids always sit above base ids, so this
/// is ascending-id order); ties *within* the base keep the index's
/// traversal order, as ever.
pub struct ViewBestFirst<'a> {
    bf: BestFirst<'a>,
    view: &'a DeltaView,
    /// `(score, delta slot)` of the live appended rows, ascending by
    /// score then append order.
    delta: Vec<(f64, u32)>,
    next_delta: usize,
    /// The next not-yet-emitted live base point, if already pulled.
    pending: Option<wqrtq_rtree::search::RankedPoint<'a>>,
}

impl<'a> ViewBestFirst<'a> {
    /// Starts a merged traversal. `tree` must be the index built over
    /// `view`'s base rows.
    pub fn new(tree: &'a RTree, view: &'a DeltaView, w: &[f64]) -> Self {
        let dim = view.dim();
        let mut delta: Vec<(f64, u32)> = view
            .delta_rows()
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| (score(w, row), i as u32))
            .collect();
        delta.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        Self {
            bf: tree.best_first(w),
            view,
            delta,
            next_delta: 0,
            pending: None,
        }
    }

    /// Index nodes expanded by the base traversal so far.
    pub fn nodes_visited(&self) -> usize {
        self.bf.nodes_visited()
    }

    /// Returns the next live point in ascending score order.
    pub fn next_entry(&mut self) -> Option<ViewRanked<'a>> {
        if self.pending.is_none() {
            // Pull the next live base point, skipping tombstones.
            while let Some(p) = self.bf.next_entry() {
                if !self.view.is_deleted(p.id) {
                    self.pending = Some(p);
                    break;
                }
            }
        }
        let delta_head = self.delta.get(self.next_delta).copied();
        let take_base = match (&self.pending, delta_head) {
            (Some(p), Some((ds, _))) => p.score <= ds, // tie: base first
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_base {
            // lint: allow(no-panic) — `take_base` is only true in match
            // arms where `self.pending` is `Some`.
            let p = self.pending.take().expect("pending base entry");
            Some(ViewRanked {
                id: p.id,
                score: p.score,
                coords: p.coords,
            })
        } else {
            // lint: allow(no-panic) — `take_base` is only false in match
            // arms where `delta_head` is `Some`.
            let (ds, slot) = delta_head.expect("pending delta entry");
            self.next_delta += 1;
            Some(ViewRanked {
                id: self.view.delta_ids()[slot as usize],
                score: ds,
                coords: self.view.delta_row(slot as usize),
            })
        }
    }
}

/// The top `k`-th live point of a delta overlay (1-based: `k = 1` is
/// the best point). Returns `None` when fewer than `k` live points exist.
///
/// # Panics
/// Panics if `k` is zero.
pub fn kth_point_view(tree: &RTree, view: &DeltaView, w: &[f64], k: usize) -> Option<KthPoint> {
    assert!(k >= 1, "k must be at least 1");
    let mut it = ViewBestFirst::new(tree, view, w);
    let mut last = None;
    for _ in 0..k {
        last = Some(it.next_entry()?);
    }
    last.map(|r| KthPoint {
        id: r.id,
        score: r.score,
        coords: r.coords.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{fig_views, indexed, view_of};
    use proptest::prelude::*;

    /// `TOPk(w)` as `(id, score)`: the first `k` entries of the merged
    /// traversal.
    fn topk(tree: &RTree, view: &DeltaView, w: &[f64], k: usize) -> Vec<(u32, f64)> {
        let mut it = ViewBestFirst::new(tree, view, w);
        std::iter::from_fn(|| it.next_entry())
            .take(k)
            .map(|p| (p.id, p.score))
            .collect()
    }

    #[test]
    fn top3_for_kevin_matches_paper() {
        // §3: TOP3(w1) = {p1, p2, p4} for Kevin = (0.1, 0.9).
        let [(t, v), _] = fig_views();
        let ids: Vec<u32> = topk(&t, &v, &[0.1, 0.9], 3)
            .iter()
            .map(|(i, _)| *i)
            .collect();
        assert_eq!(ids, vec![0, 1, 3]);
    }

    #[test]
    fn scan_and_tree_agree_on_paper_data() {
        let [(t, v), _] = fig_views();
        let (pts, _) = v.materialize_row_major();
        for k in 1..=7 {
            let a = topk(&t, &v, &[0.3, 0.7], k);
            let b = topk_scan(&pts, &[0.3, 0.7], k);
            let sa: Vec<f64> = a.iter().map(|(_, s)| *s).collect();
            let sb: Vec<f64> = b.iter().map(|(_, s)| *s).collect();
            assert_eq!(sa, sb, "k = {k}");
        }
    }

    #[test]
    fn kth_point_is_last_of_topk() {
        let [(t, v), _] = fig_views();
        // Kevin's top 3rd point is p4 = (9, 3) with score 3.6 (Fig. 5(b)).
        let p = kth_point_view(&t, &v, &[0.1, 0.9], 3).unwrap();
        assert_eq!(p.id, 3);
        assert!((p.score - 3.6).abs() < 1e-12);
        assert_eq!(p.coords, vec![9.0, 3.0]);
    }

    #[test]
    fn kth_point_beyond_dataset_is_none() {
        let [(t, v), _] = fig_views();
        assert!(kth_point_view(&t, &v, &[0.5, 0.5], 8).is_none());
        assert!(kth_point_view(&t, &v, &[0.5, 0.5], 7).is_some());
    }

    #[test]
    fn view_topk_merges_skips_and_keeps_order() {
        let [_, (tree, view)] = fig_views();
        // Kevin (0.1, 0.9): live scores are p1=1.1, p3=8.2, p4=3.6,
        // p6=7.7, p7=6.6, d7=(4.5,2)=2.25, d8=(0.5,0.5)=0.5.
        let got = topk(&tree, &view, &[0.1, 0.9], 4);
        let ids: Vec<u32> = got.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![8, 0, 7, 3]); // 0.5 < 1.1 < 2.25 < 3.6
        assert!(got.windows(2).all(|p| p[0].1 <= p[1].1));
        // Deleted p2 (id 1) never surfaces, at any k.
        let all = topk(&tree, &view, &[0.1, 0.9], 100);
        assert_eq!(all.len(), view.live_len());
        assert!(all.iter().all(|(i, _)| *i != 1 && *i != 4));
    }

    #[test]
    fn view_kth_point_matches_rebuilt_oracle() {
        for (tree, view) in fig_views() {
            let (live, ids) = view.materialize_row_major();
            // Same fanout as the fixture's index: exact score ties then
            // leave the traversal in the same order.
            let rebuilt = RTree::bulk_load_with_fanout(2, &live, 4);
            let rebuilt_view = view_of(2, &live, &[], &[]);
            for w in [[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]] {
                for k in 1..=view.live_len() {
                    let got = kth_point_view(&tree, &view, &w, k).unwrap();
                    let oracle = kth_point_view(&rebuilt, &rebuilt_view, &w, k).unwrap();
                    assert_eq!(got.score, oracle.score, "w {w:?} k {k}");
                    assert_eq!(got.id, ids[oracle.id as usize], "w {w:?} k {k}");
                    assert_eq!(got.coords, oracle.coords);
                }
                assert!(kth_point_view(&tree, &view, &w, view.live_len() + 1).is_none());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Top-k over a plain view (`mutate` false) or an overlay against
        /// a scan of the live rows.
        #[test]
        fn view_topk_matches_rebuilt_scan(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 4..200),
            extra in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 0..10),
            raw in (0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0),
            k in 1usize..20,
            del_stride in 2usize..5,
            mutate in proptest::bool::ANY,
        ) {
            let flat: Vec<f64> = pts.iter().flat_map(|(a, b, c)| [*a, *b, *c]).collect();
            let extra: Vec<f64> = extra.iter().flat_map(|(a, b, c)| [*a, *b, *c]).collect();
            let (tree, view) = indexed(3, &flat, &extra, del_stride, mutate);
            let (live, ids) = view.materialize_row_major();
            let w = [raw.0, raw.1, raw.2];
            let got = topk(&tree, &view, &w, k);
            let oracle = topk_scan(&live, &w, k);
            prop_assert_eq!(got.len(), oracle.len());
            for (g, o) in got.iter().zip(&oracle) {
                prop_assert!((g.1 - o.1).abs() < 1e-12);
            }
            // Where scores are strict, ids must map through the live-row
            // id table (ties may permute between structures).
            for (i, (g, o)) in got.iter().zip(&oracle).enumerate() {
                let tied = oracle.iter().filter(|(_, s)| *s == o.1).count() > 1;
                if !tied {
                    prop_assert_eq!(g.0, ids[o.0 as usize], "position {}", i);
                }
            }
        }
    }
}
