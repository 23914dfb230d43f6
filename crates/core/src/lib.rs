#![warn(missing_docs)]

//! # WQRTQ core — answering why-not questions on reverse top-k queries
//!
//! This crate implements the contribution of *Gao, Liu, Chen, Zheng, Zhou:
//! "Answering Why-not Questions on Reverse Top-k Queries", PVLDB 8(7),
//! 2015*: given a reverse top-k query (monochromatic or bichromatic) whose
//! result does not contain a set `Wm` of expected weighting vectors,
//!
//! 1. **explain** the omission — [`explain_view_with_stats`] returns, per
//!    why-not vector, the data points that outrank the query product (the
//!    paper's "first aspect"), and
//! 2. **refine** the query with minimum penalty so the refined result
//!    contains `Wm` (the "second aspect"), via three strategies:
//!
//! | Module   | Modifies        | Technique |
//! |----------|-----------------|-----------|
//! | [`mqp`](mod@mqp)  | query point `q` | safe region (Lemmas 1–3) + quadratic programming |
//! | [`mwk`](mod@mwk)  | `Wm` and `k`    | weight-space hyperplane sampling + candidate scan (Lemmas 4–6) |
//! | [`mqwk`](mod@mqwk) | `q`, `Wm`, `k`  | query-point sampling + MQP + MWK + R-tree reuse |
//!
//! The [`framework`] module ties the three into the unified `WQRTQ`
//! facade of the paper's Figure 4, and the [`advisor`] module answers
//! the whole why-not question in one call — explanation plus every
//! applicable strategy, verified and ranked cheapest-first into a
//! [`RefinementPlan`]. Penalty semantics follow Equations (1), (3), (4)
//! and (5); see `DESIGN.md` for the calibration of the normalising
//! constants against the paper's worked examples.
//!
//! Every operator answers over one data source: the R-tree over a
//! dataset's base rows plus a [`DeltaView`](wqrtq_geom::DeltaView) of
//! them. An unmutated dataset is
//! [`DeltaView::plain`](wqrtq_geom::DeltaView::plain); appends and
//! tombstones are folded into every rank test, constraint plane and
//! dominance frontier, so answers match a dataset rebuilt from the live
//! rows.

pub mod advisor;
pub mod baseline;
pub mod error;
pub mod exact2d;
pub mod explain;
pub mod framework;
pub mod incomparable;
pub mod mqp;
pub mod mqwk;
pub mod mwk;
pub mod penalty;
pub mod safe_region;
pub mod sampling;

pub use advisor::{
    AdvisorEvent, PenaltyBreakdown, RankedStep, RefinementPlan, StepStats, StrategyKind,
    WhyNotOptions,
};
pub use error::WhyNotError;
pub use exact2d::{mwk_exact_2d, Exact2dResult};
pub use explain::{explain_view_with_stats, Explanation};
pub use framework::{RefinedQuery, Wqrtq, WqrtqAnswer};
pub use incomparable::DominanceFrontier;
pub use mqp::{mqp_view, MqpResult};
pub use mqwk::{mqwk_view, MqwkResult};
pub use mwk::{mwk_view, MwkResult};
pub use penalty::Tolerances;
pub use safe_region::SafeRegion;

#[cfg(test)]
pub(crate) mod test_support {
    //! Fixtures shared by the unit tests.

    use std::sync::Arc;
    use wqrtq_geom::{DeltaView, FlatPoints, Weight};
    use wqrtq_rtree::RTree;

    /// The seven products of the paper's Figure 1, row-major.
    pub fn fig_points() -> Vec<f64> {
        vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ]
    }

    /// The why-not customers of the paper's example: Kevin and Julia.
    pub fn kevin_julia() -> Vec<Weight> {
        vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.9, 0.1])]
    }

    /// The R-tree over the row-major `pts` and a plain view of them.
    pub fn indexed(dim: usize, pts: &[f64]) -> (RTree, DeltaView) {
        (
            RTree::bulk_load(dim, pts),
            DeltaView::plain(Arc::new(FlatPoints::from_row_major(dim, pts))),
        )
    }

    /// Figure 1, indexed, as a plain view.
    pub fn fig() -> (RTree, DeltaView) {
        indexed(2, &fig_points())
    }

    /// A 2-D overlay of `base`: rows `dead` tombstoned and the row-major
    /// `extra` rows appended (ids after the base's).
    pub fn overlay(base: &[f64], extra: &[f64], dead: &[u32]) -> DeltaView {
        let n = (base.len() / 2) as u32;
        let dead_rows = dead
            .iter()
            .flat_map(|&i| base[2 * i as usize..2 * i as usize + 2].to_vec())
            .collect();
        DeltaView::new(
            Arc::new(FlatPoints::from_row_major(2, base)),
            Arc::new(extra.to_vec()),
            Arc::new((0..(extra.len() / 2) as u32).map(|i| n + i).collect()),
            Arc::new(dead_rows),
            Arc::new(dead.to_vec()),
        )
    }
}
