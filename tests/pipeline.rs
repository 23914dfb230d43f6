//! Cross-crate pipeline tests: generated datasets → workload builder →
//! all three refinement algorithms → verification against the index.

use std::sync::Arc;
use wqrtq::core::baseline::separate_refinement;
use wqrtq::core::mqp::mqp_view;
use wqrtq::core::mqwk::mqwk_view;
use wqrtq::core::mwk::mwk_view;
use wqrtq::core::penalty::Tolerances;
use wqrtq::data::synthetic::{anticorrelated, clustered, correlated, independent, Dataset};
use wqrtq::data::workload::{build_case, WorkloadSpec};
use wqrtq::geom::{DeltaView, FlatPoints};
use wqrtq::query::rank::rank_of_point_view;
use wqrtq::rtree::RTree;

/// The R-tree over a dataset and a plain view of its rows.
fn indexed(ds: &Dataset) -> (RTree, DeltaView) {
    let view = DeltaView::plain(Arc::new(FlatPoints::from_row_major(ds.dim, &ds.coords)));
    (RTree::bulk_load(ds.dim, &ds.coords), view)
}

fn run_all_solutions(ds: &Dataset, spec: &WorkloadSpec, seed: u64) {
    let (tree, view) = indexed(ds);
    let case = build_case(&tree, spec, seed);
    let tol = Tolerances::paper_default();
    let (q, k, wn) = (&case.q, case.k, &case.why_not);
    let rank_of = |w, q: &[f64]| rank_of_point_view(&tree, &view, w, q);

    // MQP: every why-not vector must admit q′ at the original k.
    let r1 = mqp_view(&tree, &view, q, k, wn).unwrap();
    for w in &case.why_not {
        let rank = rank_of(w, &r1.q_prime);
        assert!(
            rank <= case.k,
            "MQP: rank {rank} > k {} (dim {} seed {seed})",
            case.k,
            ds.dim
        );
    }
    assert!(r1.penalty >= 0.0 && r1.penalty <= 1.0 + 1e-9);

    // MWK: refined vectors must admit q at k′.
    let r2 = mwk_view(&tree, &view, q, k, wn, 150, &tol, seed).unwrap();
    for w in &r2.refined {
        let rank = rank_of(w, &case.q);
        assert!(rank <= r2.k_prime, "MWK: rank {rank} > k′ {}", r2.k_prime);
    }
    assert!(r2.k_prime <= r2.k_max, "Lemma 4 bound violated");
    assert!(r2.penalty >= 0.0);

    // MQWK: refined vectors must admit q′ at k′, and the penalty is never
    // worse than either specialised endpoint.
    let r3 = mqwk_view(&tree, &view, q, k, wn, 150, 100, &tol, seed).unwrap();
    for w in &r3.refined {
        let rank = rank_of(w, &r3.q_prime);
        assert!(rank <= r3.k_prime, "MQWK: rank {rank} > k′ {}", r3.k_prime);
    }
    assert!(r3.penalty <= tol.gamma * r1.penalty + 1e-9);
    assert!(r3.penalty <= tol.lambda * r2.penalty + 1e-9);
}

#[test]
fn independent_3d_pipeline() {
    let ds = independent(8_000, 3, 101);
    run_all_solutions(&ds, &WorkloadSpec::paper_default(), 1);
}

#[test]
fn anticorrelated_3d_pipeline() {
    let ds = anticorrelated(8_000, 3, 102);
    run_all_solutions(&ds, &WorkloadSpec::paper_default(), 2);
}

#[test]
fn correlated_4d_pipeline() {
    let ds = correlated(6_000, 4, 103);
    let spec = WorkloadSpec {
        k: 10,
        num_why_not: 2,
        target_rank: 101,
        rank_tolerance: 0.5,
    };
    run_all_solutions(&ds, &spec, 3);
}

#[test]
fn clustered_2d_pipeline() {
    let ds = clustered(6_000, 2, 6, 104);
    let spec = WorkloadSpec {
        k: 20,
        num_why_not: 3,
        target_rank: 101,
        rank_tolerance: 0.5,
    };
    run_all_solutions(&ds, &spec, 4);
}

#[test]
fn five_dimensional_pipeline() {
    let ds = independent(5_000, 5, 105);
    let spec = WorkloadSpec {
        k: 10,
        num_why_not: 2,
        target_rank: 51,
        rank_tolerance: 0.8,
    };
    run_all_solutions(&ds, &spec, 5);
}

#[test]
fn deep_rank_pipeline() {
    // The Figure-10 stress: the query sits at rank ≈ 1001.
    let ds = independent(12_000, 3, 106);
    let spec = WorkloadSpec {
        k: 10,
        num_why_not: 1,
        target_rank: 1001,
        rank_tolerance: 0.5,
    };
    run_all_solutions(&ds, &spec, 6);
}

#[test]
fn joint_beats_separate_on_synthetic_workloads() {
    // The §3 claim at scale: joint MWK's penalty ≤ the separate
    // per-vector refinement combined.
    let ds = independent(6_000, 3, 107);
    let (tree, view) = indexed(&ds);
    let spec = WorkloadSpec {
        k: 10,
        num_why_not: 3,
        target_rank: 101,
        rank_tolerance: 0.5,
    };
    let tol = Tolerances::paper_default();
    let mut joint_wins = 0;
    for seed in 0..5u64 {
        let case = build_case(&tree, &spec, seed + 10);
        let (q, k, wn) = (&case.q, case.k, &case.why_not);
        let joint = mwk_view(&tree, &view, q, k, wn, 200, &tol, seed).unwrap();
        let sep = separate_refinement(&tree, &view, q, k, wn, 200, &tol, seed).unwrap();
        if joint.penalty <= sep.penalty + 1e-9 {
            joint_wins += 1;
        }
    }
    assert!(
        joint_wins >= 4,
        "joint refinement should win (almost) always, won {joint_wins}/5"
    );
}

#[test]
fn rta_equals_naive_on_generated_population() {
    use wqrtq::geom::{Point, Weight};
    use wqrtq::query::brtopk::{
        bichromatic_reverse_topk_naive, rta_over_order_view_masked, rta_sorted_order, RtaScratch,
    };
    let ds = independent(2_000, 3, 108);
    let (tree, view) = indexed(&ds);
    let points: Vec<Point> = (0..ds.len())
        .map(|i| Point::new(ds.point(i).to_vec()))
        .collect();
    let weights: Vec<Weight> = (0..60)
        .map(|i| {
            let a = 0.1 + 0.8 * (i as f64 / 60.0);
            Weight::normalized(vec![a, 1.0 - a * 0.5, 0.5])
        })
        .collect();
    let q = [0.2, 0.2, 0.2];
    let order = rta_sorted_order(&weights);
    for k in [1, 5, 20] {
        let naive = bichromatic_reverse_topk_naive(&points, &weights, &q, k);
        let mut scratch = RtaScratch::new();
        let (mut rta, _) =
            rta_over_order_view_masked(&tree, &view, &weights, &order, &q, k, None, &mut scratch);
        rta.sort_unstable();
        assert_eq!(naive, rta, "k = {k}");
    }
}

#[test]
fn insert_built_tree_answers_like_bulk_loaded() {
    // Query answers must be identical regardless of how the index was
    // constructed.
    let ds = independent(3_000, 3, 109);
    let (bulk, view) = indexed(&ds);
    let mut incremental = RTree::new(3, 32);
    for i in 0..ds.len() {
        incremental.insert(i as u32, ds.point(i));
    }
    incremental.validate().unwrap();
    let w = [0.3, 0.3, 0.4];
    let q = [0.15, 0.2, 0.1];
    assert_eq!(
        rank_of_point_view(&bulk, &view, &w, &q),
        rank_of_point_view(&incremental, &view, &w, &q)
    );
    let a: Vec<(u32, f64)> = bulk.best_first(&w).take(25).collect();
    let b: Vec<(u32, f64)> = incremental.best_first(&w).take(25).collect();
    let sa: Vec<f64> = a.iter().map(|(_, s)| *s).collect();
    let sb: Vec<f64> = b.iter().map(|(_, s)| *s).collect();
    assert_eq!(sa, sb);
}
