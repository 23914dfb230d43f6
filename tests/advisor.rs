//! Integration tests for the why-not advisor: plan optimality under
//! randomised workloads (the recommendation is minimal and every
//! alternative verifies), typed errors at the request boundary, plan
//! determinism across worker counts, and the explain request's
//! bit-identity with the core explanation path.

use proptest::prelude::*;
use std::sync::Arc;
use wqrtq::core::advisor::{StrategyKind, WhyNotOptions};
use wqrtq::core::framework::Wqrtq;
use wqrtq::core::penalty::Tolerances;
use wqrtq::engine::{Engine, PlanDelta, Request, Response, WhyNotOptions as EngineOptions};
use wqrtq::geom::{DeltaView, FlatPoints, Weight};
use wqrtq::query::rank::rank_of_point_scan;
use wqrtq::rtree::RTree;

const PRODUCTS_2D: [f64; 14] = [
    2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
];

fn kevin_julia() -> Vec<Vec<f64>> {
    vec![vec![0.1, 0.9], vec![0.9, 0.1]]
}

fn figure1_engine() -> Engine {
    let engine = Engine::builder().workers(2).build();
    engine
        .register_dataset("products", 2, PRODUCTS_2D.to_vec())
        .unwrap();
    engine
}

fn dataset_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 60..240).prop_map(|mut v| {
        v.truncate(v.len() / 2 * 2);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The recommended refinement has minimal combined penalty among
    /// the returned alternatives, and every alternative passes
    /// `verify()` — on both the exact-2D and the sampled MWK paths.
    #[test]
    fn plan_recommendation_is_minimal_and_every_alternative_verifies(
        pts in dataset_strategy(),
        wraw in proptest::collection::vec(0.05f64..1.0, 2),
        qraw in proptest::collection::vec(0.3f64..1.0, 2),
        k in 1usize..5,
        exact in proptest::bool::ANY,
    ) {
        let tree = RTree::bulk_load(2, &pts);
        prop_assume!(tree.len() >= k + 3);
        let w = Weight::normalized(wraw);
        prop_assume!(rank_of_point_scan(&pts, &w, &qraw) > k);
        let view = DeltaView::plain(Arc::new(FlatPoints::from_row_major(2, &pts)));
        let wqrtq = Wqrtq::with_view(&tree, view, &qraw, k).unwrap();
        let wn = vec![w];
        let options = WhyNotOptions {
            sample_size: 80,
            query_samples: 40,
            seed: 7,
            exact_2d: exact,
            ..WhyNotOptions::default()
        };
        let plan = wqrtq.advise(&wn, &options).unwrap();
        prop_assert_eq!(plan.steps.len(), 3);
        // Ranked ascending, and the recommendation is the true minimum.
        let min = plan
            .steps
            .iter()
            .map(|s| s.answer.penalty)
            .fold(f64::INFINITY, f64::min);
        prop_assert!(plan.recommended().answer.penalty <= min + 1e-15);
        prop_assert!(plan
            .steps
            .windows(2)
            .all(|p| p[0].answer.penalty <= p[1].answer.penalty));
        for step in &plan.steps {
            prop_assert!(
                wqrtq.verify(&wn, &step.answer),
                "unverified {:?} (exact={})", step.strategy, exact
            );
            prop_assert!(step.verified);
            prop_assert!(step.answer.penalty >= 0.0);
            prop_assert_eq!(
                step.breakdown.combined.to_bits(),
                step.answer.penalty.to_bits()
            );
        }
    }
}

/// The explain request equals the core explanation path bit for bit.
#[test]
fn explain_requests_answer_bit_identically_to_the_core_path() {
    let engine = figure1_engine();
    let served = engine.submit(Request::WhyNotExplain {
        dataset: "products".into(),
        weight: vec![0.1, 0.9],
        q: vec![4.0, 4.0],
        limit: 10,
    });
    let handle = engine.catalog().handle("products").unwrap();
    let (oracle, _) = wqrtq::core::explain_view_with_stats(
        &handle.index,
        &handle.view,
        &[0.1, 0.9],
        &[4.0, 4.0],
        10,
    );
    match served {
        Response::Explanation {
            rank,
            culprits,
            truncated,
        } => {
            assert_eq!(rank, oracle.rank);
            assert_eq!(truncated, oracle.truncated);
            let expected: Vec<(u32, f64)> =
                oracle.culprits.iter().map(|c| (c.id, c.score)).collect();
            assert_eq!(culprits, expected);
        }
        other => panic!("expected an explanation, got {other:?}"),
    }
}

/// Option validation fires at the engine's request boundary with typed
/// errors, before any index is touched.
#[test]
fn invalid_options_are_rejected_with_typed_errors() {
    let engine = figure1_engine();
    let base = |options: EngineOptions| Request::WhyNot {
        dataset: "products".into(),
        q: vec![4.0, 4.0],
        k: 3,
        why_not: kevin_julia(),
        options,
    };
    let cases: Vec<(Request, &str)> = vec![
        (
            base(EngineOptions {
                tol: Tolerances {
                    alpha: f64::NAN,
                    beta: 0.5,
                    gamma: 0.5,
                    lambda: 0.5,
                },
                ..EngineOptions::default()
            }),
            "non-finite",
        ),
        (
            base(EngineOptions {
                tol: Tolerances {
                    alpha: -0.25,
                    beta: 1.25,
                    gamma: 0.5,
                    lambda: 0.5,
                },
                ..EngineOptions::default()
            }),
            "non-negative",
        ),
        (
            base(EngineOptions {
                tol: Tolerances {
                    alpha: 0.5,
                    beta: 0.5,
                    gamma: 0.9,
                    lambda: 0.9,
                },
                ..EngineOptions::default()
            }),
            "gamma + lambda",
        ),
        (
            base(EngineOptions {
                strategies: Vec::new(),
                ..EngineOptions::default()
            }),
            "strategy set is empty",
        ),
        // Hostile sampling budgets must die at the boundary — they
        // drive allocations and loops on the worker, so an unbounded
        // wire value could pin the pool or abort on allocation.
        (
            base(EngineOptions {
                sample_size: 1 << 40,
                ..EngineOptions::default()
            }),
            "sampling budget",
        ),
        (
            base(EngineOptions {
                query_samples: usize::MAX,
                ..EngineOptions::default()
            }),
            "sampling budget",
        ),
        (
            base(EngineOptions {
                strategies: vec![StrategyKind::Mwk],
                sample_size: 1 << 40,
                seed: 1,
                exact_2d: false,
                ..EngineOptions::default()
            }),
            "sampling budget",
        ),
        (
            Request::ReverseTopKMono {
                dataset: "products".into(),
                q: vec![4.0, 4.0],
                k: 3,
                samples: 1 << 40,
                seed: 1,
            },
            "sampling budget",
        ),
    ];
    for (request, needle) in cases {
        match engine.submit(request) {
            Response::Error(msg) => {
                assert!(msg.contains(needle), "error `{msg}` lacks `{needle}`");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
    // Nothing was executed or cached.
    assert_eq!(engine.metrics().cache.len, 0);
}

/// A not-actually-why-not vector fails the plan with a typed error
/// naming the offending vector.
#[test]
fn member_vectors_fail_the_plan_with_a_typed_error() {
    let engine = figure1_engine();
    let response = engine.submit(Request::WhyNot {
        dataset: "products".into(),
        q: vec![4.0, 4.0],
        k: 3,
        why_not: vec![vec![0.5, 0.5]], // Tony has q in his top-3
        options: EngineOptions::default(),
    });
    match response {
        Response::Error(msg) => assert!(msg.contains("not a why-not vector"), "{msg}"),
        other => panic!("expected a typed error, got {other:?}"),
    }
}

/// Batch determinism extends to plans: the same WhyNot request answered
/// by engines with different worker counts is identical, including the
/// streamed deltas' reassembly into the final ranking.
#[test]
fn plans_are_deterministic_across_worker_counts() {
    let request = Request::WhyNot {
        dataset: "products".into(),
        q: vec![4.0, 4.0],
        k: 3,
        why_not: kevin_julia(),
        options: EngineOptions {
            seed: 42,
            ..EngineOptions::default()
        },
    };
    let mut answers = Vec::new();
    for workers in [1, 4] {
        let engine = Engine::builder().workers(workers).build();
        engine
            .register_dataset("products", 2, PRODUCTS_2D.to_vec())
            .unwrap();
        answers.push(engine.submit(request.clone()));
    }
    assert_eq!(answers[0], answers[1]);

    // The streamed deltas agree with the final plan's contents.
    let engine = figure1_engine();
    let (tx, rx) = std::sync::mpsc::channel();
    let delta_tx = tx.clone();
    engine.submit_with_progress(
        request,
        move |delta| delta_tx.send(Err(delta)).unwrap(),
        move |response| tx.send(Ok(response)).unwrap(),
    );
    let mut deltas = Vec::new();
    let mut plan = None;
    for event in rx.iter() {
        match event {
            Err(delta) => deltas.push(delta),
            Ok(Response::Plan(p)) => plan = Some(p),
            Ok(other) => panic!("unexpected response {other:?}"),
        }
    }
    let plan = plan.expect("plan delivered");
    let streamed_steps: Vec<_> = deltas
        .iter()
        .filter_map(|d| match d {
            PlanDelta::Step(step) => Some(step.clone()),
            PlanDelta::Explained { .. } => None,
        })
        .collect();
    assert_eq!(streamed_steps.len(), plan.steps.len());
    for step in &plan.steps {
        assert!(
            streamed_steps.contains(step),
            "ranked step missing from the stream: {step:?}"
        );
    }
}
