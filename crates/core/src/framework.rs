//! The unified WQRTQ framework (Figure 4 of the paper).
//!
//! [`Wqrtq`] wraps an indexed dataset, a query point and `k`, validates
//! why-not inputs (for bichromatic queries the vectors must come from
//! `W ∖ BRTOPk(q)`; for monochromatic queries any non-member vector is
//! allowed — both reduce to "q ranks below k", which is what we check),
//! explains (aspect 1) and verifies. The three refinement solutions run
//! through the advisor ([`Wqrtq::advise`], [`Wqrtq::refine_step`]), the
//! one entry point for any subset of them.

use crate::error::WhyNotError;
use crate::explain::{explain_view_with_stats, Explanation};
use crate::penalty::Tolerances;
use std::borrow::Borrow;
use wqrtq_geom::{DeltaView, Weight};
use wqrtq_query::rank::{is_in_topk_view_masked_with_stats, rank_of_point_view};
use wqrtq_rtree::{ProbeScratch, RTree};

/// A refined reverse top-k query, as returned by the framework.
#[derive(Clone, Debug)]
pub enum RefinedQuery {
    /// Solution 1 (MQP): only the query point moved.
    QueryPoint {
        /// The refined query point.
        q_prime: Vec<f64>,
    },
    /// Solution 2 (MWK): only the preferences moved.
    Preferences {
        /// The refined why-not vectors.
        why_not: Vec<Weight>,
        /// The refined `k`.
        k: usize,
    },
    /// Solution 3 (MQWK): everything moved.
    Everything {
        /// The refined query point.
        q_prime: Vec<f64>,
        /// The refined why-not vectors.
        why_not: Vec<Weight>,
        /// The refined `k`.
        k: usize,
    },
}

/// A refinement with its penalty.
#[derive(Clone, Debug)]
pub struct WqrtqAnswer {
    /// What to change.
    pub refined: RefinedQuery,
    /// The penalty of the change (Eq. 1, 4 or 5 depending on solution).
    pub penalty: f64,
}

/// The WQRTQ facade: a reverse top-k query under why-not investigation.
///
/// Generic over how the pre-built index is held (`T: Borrow<RTree>`), so
/// one-shot callers keep passing `&RTree` while long-lived serving layers
/// (the `wqrtq-engine` worker pool) hand in a shared `Arc<RTree>` — the
/// index is built once, never per call.
///
/// The facade answers against a [`DeltaView`] of the indexed rows: a
/// plain view serves them verbatim, an overlay folds its appended rows
/// and tombstones into every rank test, constraint plane, dominance
/// frontier and verification, so answers match a dataset rebuilt from
/// the live rows without any rebuild.
#[derive(Clone, Debug)]
pub struct Wqrtq<T: Borrow<RTree>> {
    tree: T,
    view: DeltaView,
    q: Vec<f64>,
    k: usize,
    tol: Tolerances,
}

impl<T: Borrow<RTree>> Wqrtq<T> {
    /// Wraps a query. `tree` is the pre-built index over `view`'s *base*
    /// rows (borrowed or shared), `view` the dataset snapshot to answer
    /// against (`DeltaView::plain` for an unmutated dataset), `q` the
    /// query point and `k` the original parameter.
    ///
    /// # Errors
    /// Returns [`WhyNotError::DimensionMismatch`] when `q` or the view
    /// does not match the index, and [`WhyNotError::ZeroK`] when `k` is
    /// zero.
    pub fn with_view(tree: T, view: DeltaView, q: &[f64], k: usize) -> Result<Self, WhyNotError> {
        let dim = tree.borrow().dim();
        if q.len() != dim || view.dim() != dim {
            return Err(WhyNotError::DimensionMismatch {
                expected: dim,
                got: if q.len() != dim { q.len() } else { view.dim() },
            });
        }
        if k == 0 {
            return Err(WhyNotError::ZeroK);
        }
        Ok(Self {
            tree,
            view,
            q: q.to_vec(),
            k,
            tol: Tolerances::paper_default(),
        })
    }

    /// The dataset snapshot this facade answers against.
    pub fn view(&self) -> &DeltaView {
        &self.view
    }

    /// Rank of `q` under `w` against this facade's snapshot.
    fn rank_under(&self, w: &Weight) -> usize {
        rank_of_point_view(self.tree(), &self.view, w, &self.q)
    }

    /// The wrapped index.
    pub fn tree(&self) -> &RTree {
        self.tree.borrow()
    }

    /// Overrides the default (paper) tolerances α, β, γ, λ.
    pub fn with_tolerances(mut self, tol: Tolerances) -> Self {
        self.tol = tol;
        self
    }

    /// The penalty-model coefficients this facade evaluates under.
    pub fn tolerances(&self) -> &Tolerances {
        &self.tol
    }

    /// The query point.
    pub fn q(&self) -> &[f64] {
        &self.q
    }

    /// The original `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Checks that every vector is genuinely why-not (q ranks below it),
    /// returning the actual ranks. This is the input contract of
    /// Definitions 4/5: monochromatic vectors may be arbitrary non-member
    /// weights, bichromatic ones must be absent from `BRTOPk(q)` — both
    /// reduce to this rank test.
    pub fn validate_why_not(&self, why_not: &[Weight]) -> Result<Vec<usize>, WhyNotError> {
        if why_not.is_empty() {
            return Err(WhyNotError::EmptyWhyNot);
        }
        let mut ranks = Vec::with_capacity(why_not.len());
        for (i, w) in why_not.iter().enumerate() {
            if w.dim() != self.tree().dim() {
                return Err(WhyNotError::DimensionMismatch {
                    expected: self.tree().dim(),
                    got: w.dim(),
                });
            }
            let r = self.rank_under(w);
            if r <= self.k {
                return Err(WhyNotError::NotWhyNot {
                    index: i,
                    rank: r,
                    k: self.k,
                });
            }
            ranks.push(r);
        }
        Ok(ranks)
    }

    /// Aspect 1: why is `w` not in the reverse top-k result? Lists the
    /// culprit points (§3).
    pub fn explain(&self, w: &Weight, limit: usize) -> Explanation {
        explain_view_with_stats(self.tree(), &self.view, w, &self.q, limit).0
    }

    /// Verifies that an answer actually fixes the why-not question: every
    /// (refined) why-not vector must contain the (refined) query point in
    /// its (refined) top-k.
    pub fn verify(&self, why_not: &[Weight], answer: &WqrtqAnswer) -> bool {
        // One probe scratch serves every membership test in the loop —
        // the traversal queue allocates once, not per vector.
        let mut scratch = ProbeScratch::new();
        let mut all_in = |ws: &[Weight], q: &[f64], k: usize| {
            ws.iter().all(|w| {
                is_in_topk_view_masked_with_stats(
                    self.tree(),
                    &self.view,
                    None,
                    w,
                    q,
                    k,
                    &mut scratch,
                )
                .0
            })
        };
        match &answer.refined {
            RefinedQuery::QueryPoint { q_prime } => all_in(why_not, q_prime, self.k),
            RefinedQuery::Preferences {
                why_not: refined,
                k,
            } => all_in(refined, &self.q, *k),
            RefinedQuery::Everything {
                q_prime,
                why_not: refined,
                k,
            } => all_in(refined, q_prime, *k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::{StrategyKind, WhyNotOptions};
    use crate::test_support::{fig, kevin_julia};

    /// Advisor options running `strategies` on the sampled path.
    fn sampled(
        strategies: &[StrategyKind],
        sample_size: usize,
        query_samples: usize,
        seed: u64,
    ) -> WhyNotOptions {
        WhyNotOptions {
            strategies: strategies.to_vec(),
            sample_size,
            query_samples,
            seed,
            exact_2d: false,
            ..WhyNotOptions::default()
        }
    }

    /// Every strategy's answer, cheapest first.
    fn all_answers<T: Borrow<RTree>>(w: &Wqrtq<T>, options: &WhyNotOptions) -> Vec<WqrtqAnswer> {
        let plan = w.advise(&kevin_julia(), options).unwrap();
        plan.steps.into_iter().map(|step| step.answer).collect()
    }

    fn fig_tree() -> RTree {
        fig().0
    }

    /// The paper's query `q = (4, 4)`, `k = 3` over Figure 1.
    fn fig_facade(tree: &RTree) -> Wqrtq<&RTree> {
        Wqrtq::with_view(tree, fig().1, &[4.0, 4.0], 3).unwrap()
    }

    #[test]
    fn validation_accepts_why_not_and_rejects_members() {
        let tree = fig_tree();
        let w = fig_facade(&tree);
        assert_eq!(w.validate_why_not(&kevin_julia()).unwrap(), vec![4, 4]);
        let tony = vec![Weight::new(vec![0.5, 0.5])];
        assert!(matches!(
            w.validate_why_not(&tony),
            Err(WhyNotError::NotWhyNot {
                index: 0,
                rank: 2,
                k: 3
            })
        ));
    }

    #[test]
    fn all_three_solutions_verify() {
        let tree = fig_tree();
        let w = fig_facade(&tree);
        let wn = kevin_julia();
        for answer in all_answers(&w, &sampled(&StrategyKind::ALL, 200, 200, 7)) {
            assert!(w.verify(&wn, &answer), "unverified answer {answer:?}");
            assert!(answer.penalty >= 0.0);
        }
    }

    #[test]
    fn answers_are_sorted_by_penalty() {
        let tree = fig_tree();
        let w = fig_facade(&tree);
        let answers = all_answers(&w, &sampled(&StrategyKind::ALL, 200, 200, 3));
        assert_eq!(answers.len(), 3);
        assert!(answers.windows(2).all(|p| p[0].penalty <= p[1].penalty));
        // MQWK (Everything) is never beaten on this workload because it
        // subsumes both endpoints.
        assert!(matches!(
            answers[0].refined,
            RefinedQuery::Everything { .. }
        ));
    }

    #[test]
    fn exact_2d_preferences_beat_or_match_sampled() {
        let tree = fig_tree();
        let w = fig_facade(&tree);
        let wn = kevin_julia();
        let mwk = sampled(&[StrategyKind::Mwk], 400, 0, 3);
        let sampled = all_answers(&w, &mwk).remove(0);
        let exact_2d = WhyNotOptions {
            exact_2d: true,
            ..mwk
        };
        let exact = all_answers(&w, &exact_2d).remove(0);
        assert!(exact.penalty <= sampled.penalty + 1e-9);
        assert!(w.verify(&wn, &exact));
    }

    #[test]
    fn explanation_reaches_through_facade() {
        let tree = fig_tree();
        let w = fig_facade(&tree);
        let e = w.explain(&Weight::new(vec![0.1, 0.9]), 10);
        assert_eq!(e.rank, 4);
        assert_eq!(e.culprits.len(), 3);
    }

    #[test]
    fn accessors_and_tolerance_override() {
        let tree = fig_tree();
        let w = fig_facade(&tree).with_tolerances(Tolerances::new(0.2, 0.8, 0.5, 0.5));
        assert_eq!(w.q(), &[4.0, 4.0]);
        assert_eq!(w.k(), 3);
    }

    #[test]
    fn view_facade_matches_rebuilt_facade_bit_for_bit() {
        use std::sync::Arc;
        use wqrtq_geom::{DeltaView, FlatPoints};
        let pts = vec![
            2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
        ];
        let tree = fig_tree();
        // Delete p5/p6 (ids 4, 5), append a near-frontier point and a
        // far one.
        let view = DeltaView::new(
            Arc::new(FlatPoints::from_row_major(2, &pts)),
            Arc::new(vec![4.2, 3.1, 8.5, 8.5]),
            Arc::new(vec![7, 8]),
            Arc::new(vec![7.0, 5.0, 5.0, 8.0]),
            Arc::new(vec![4, 5]),
        );
        let (live, _) = view.materialize_row_major();
        let rebuilt = RTree::bulk_load(2, &live);
        let plain_view = DeltaView::plain(Arc::new(FlatPoints::from_row_major(2, &live)));

        let overlay = Wqrtq::with_view(&tree, view, &[4.0, 4.0], 3).unwrap();
        let oracle = Wqrtq::with_view(&rebuilt, plain_view, &[4.0, 4.0], 3).unwrap();
        let wn = kevin_julia();
        assert_eq!(
            overlay.validate_why_not(&wn).unwrap(),
            oracle.validate_why_not(&wn).unwrap()
        );
        let options = sampled(&StrategyKind::ALL, 150, 150, 11);
        let a = all_answers(&overlay, &options);
        let b = all_answers(&oracle, &options);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.penalty.to_bits(), y.penalty.to_bits(), "penalty drift");
            match (&x.refined, &y.refined) {
                (
                    RefinedQuery::QueryPoint { q_prime: qa },
                    RefinedQuery::QueryPoint { q_prime: qb },
                ) => assert_eq!(qa, qb),
                (
                    RefinedQuery::Preferences { why_not: wa, k: ka },
                    RefinedQuery::Preferences { why_not: wb, k: kb },
                ) => {
                    assert_eq!(ka, kb);
                    for (u, v) in wa.iter().zip(wb) {
                        assert_eq!(u.as_slice(), v.as_slice());
                    }
                }
                (
                    RefinedQuery::Everything {
                        q_prime: qa,
                        why_not: wa,
                        k: ka,
                    },
                    RefinedQuery::Everything {
                        q_prime: qb,
                        why_not: wb,
                        k: kb,
                    },
                ) => {
                    assert_eq!(qa, qb);
                    assert_eq!(ka, kb);
                    for (u, v) in wa.iter().zip(wb) {
                        assert_eq!(u.as_slice(), v.as_slice());
                    }
                }
                other => panic!("refinement family mismatch: {other:?}"),
            }
            assert!(overlay.verify(&wn, x), "overlay answer fails verification");
        }
    }

    #[test]
    fn bad_dimensions_and_zero_k_are_rejected_at_construction() {
        let (tree, view) = fig();
        assert!(matches!(
            Wqrtq::with_view(&tree, view.clone(), &[1.0, 2.0, 3.0], 3),
            Err(WhyNotError::DimensionMismatch { .. })
        ));
        // k = 0 has no top-k-th point for MQP's safe region to build on.
        assert!(matches!(
            Wqrtq::with_view(&tree, view, &[4.0, 4.0], 0),
            Err(WhyNotError::ZeroK)
        ));
    }
}
