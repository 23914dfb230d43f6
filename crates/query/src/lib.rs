#![warn(missing_docs)]

//! Top-k and reverse top-k query processing.
//!
//! Implements the query classes the paper builds on (its Definitions 1–3):
//!
//! * [`topk`](mod@topk) — top-k queries: best-first branch-and-bound over
//!   the R-tree (the I/O-optimal BRS strategy \[29\]) and a linear-scan
//!   baseline;
//! * [`rank`] — the *rank* of a query point under a weighting vector
//!   (`1 + #points strictly better`), the predicate behind every reverse
//!   top-k decision;
//! * [`brtopk`] — **bichromatic** reverse top-k (Definition 3): which of
//!   the known customer weighting vectors put `q` in their top-k. Includes
//!   the RTA-style algorithm with threshold-buffer reuse \[31\] and a naive
//!   per-weight baseline;
//! * [`mrtopk`] — **monochromatic** reverse top-k (Definition 2) in two
//!   dimensions, computing the exact qualifying weight intervals by a
//!   plane sweep (the segment `BC` of the paper's Figure 2).
//!
//! Every index-backed operator answers over one data source: a
//! [`DeltaView`](wqrtq_geom::DeltaView) of the rows the R-tree was built
//! from. A dataset with no mutations is
//! [`DeltaView::plain`](wqrtq_geom::DeltaView::plain); appends and
//! tombstones are folded into every answer, which matches a dataset
//! rebuilt from the live rows.

pub mod brtopk;
pub mod cache;
pub mod mrtopk;
pub mod mrtopk_nd;
pub mod rank;
pub mod ta;
pub mod topk;

pub use brtopk::{
    bichromatic_reverse_topk_naive, rta_over_order_view_masked, rta_sorted_order, RtaScratch,
    RtaStats,
};
pub use cache::TopkViewCache;
pub use mrtopk::{monochromatic_reverse_topk_2d, WeightInterval};
pub use mrtopk_nd::{monochromatic_reverse_topk_sampled_view, MrtopkEstimate};
pub use rank::{is_in_topk_view_masked_with_stats, rank_of_point_scan, rank_of_point_view};
pub use ta::{SortedLists, TaStats};
pub use topk::{kth_point_view, topk_scan, KthPoint};

#[cfg(test)]
pub(crate) mod test_support {
    //! Fixtures shared by the unit tests.

    use std::sync::Arc;
    use wqrtq_geom::{DeltaView, FlatPoints};
    use wqrtq_rtree::RTree;

    /// The seven products of the paper's Figure 1, row-major.
    pub fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ]
    }

    /// A view over the row-major `base`: base rows `dead` are tombstoned
    /// and the row-major `extra` rows appended (ids after the base's).
    /// Empty `extra` and `dead` give a plain view.
    pub fn view_of(dim: usize, base: &[f64], extra: &[f64], dead: &[u32]) -> DeltaView {
        let n = (base.len() / dim) as u32;
        let dead_rows = dead
            .iter()
            .flat_map(|&i| base[i as usize * dim..(i as usize + 1) * dim].to_vec())
            .collect();
        DeltaView::new(
            Arc::new(FlatPoints::from_row_major(dim, base)),
            Arc::new(extra.to_vec()),
            Arc::new((0..(extra.len() / dim) as u32).map(|i| n + i).collect()),
            Arc::new(dead_rows),
            Arc::new(dead.to_vec()),
        )
    }

    /// The R-tree over `base` (fanout 8) and the view of
    /// [`view_of`]; with `mutate` false the view is plain.
    pub fn indexed(
        dim: usize,
        base: &[f64],
        extra: &[f64],
        del_stride: usize,
        mutate: bool,
    ) -> (RTree, DeltaView) {
        let tree = RTree::bulk_load_with_fanout(dim, base, 8);
        let view = if mutate {
            let dead: Vec<u32> = (0..(base.len() / dim) as u32).step_by(del_stride).collect();
            view_of(dim, base, extra, &dead)
        } else {
            view_of(dim, base, &[], &[])
        };
        (tree, view)
    }

    /// Figure 1 as a plain view and as an overlay (p2 and p5 deleted,
    /// `(4.5, 2)` and `(0.5, 0.5)` appended as ids 7 and 8), each with
    /// the R-tree over the seven base rows.
    pub fn fig_views() -> [(RTree, DeltaView); 2] {
        let pts = fig_points();
        [
            (
                RTree::bulk_load_with_fanout(2, &pts, 4),
                view_of(2, &pts, &[], &[]),
            ),
            (
                RTree::bulk_load_with_fanout(2, &pts, 4),
                view_of(2, &pts, &[4.5, 2.0, 0.5, 0.5], &[1, 4]),
            ),
        ]
    }
}
