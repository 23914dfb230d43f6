//! The benchmark's own tests: tiny-scale runs emit every metric
//! `BENCHMARK.json` names, with its unit, and wrong answers trip the
//! correctness checks.

use super::*;
use inputs::Inputs;
use wqrtq_engine::{Plan, Request, Response};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = s[at..].find('"')?;
        Some((s[at..at + len].to_string(), at + len))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, end)) = field(rest, "name") {
        rest = &rest[end..];
        let (unit, end) = field(rest, "unit").expect("every metric has a unit");
        rest = &rest[end..];
        out.push((name, unit));
    }
    out
}

fn tiny(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 3,
        seconds: 1,
        trace,
        scale: Scale::tiny(),
        out_dir: PathBuf::from(".perfbench").join("test"),
    }
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert!(per_layer.len() > 40, "per-layer list parsed: {per_layer:?}");
    for workload in [Workload::WhyNot, Workload::Serve, Workload::Mutate] {
        for (trace, wanted) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = run(&tiny(workload, trace)).expect("tiny run");
            assert!(outcome.correct, "{workload:?}: {:?}", outcome.problems);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let emitted: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(&emitted, wanted, "{workload:?} trace={trace}");
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                let zero: Vec<&str> = outcome
                    .metrics
                    .iter()
                    .filter(|m| m.value <= 0.0)
                    .map(|m| m.name.as_str())
                    .collect();
                assert!(
                    zero.is_empty(),
                    "{workload:?}: zero end-to-end metrics {zero:?}"
                );
            }
        }
    }
}

#[test]
fn wrong_oracle_answers_trip_the_serve_checks() {
    let inputs = Inputs::generate(Workload::Serve, 5, 1, &Scale::tiny());
    let ds = &inputs.datasets[0];
    let oracle = checks::Oracle::new(&ds.coords, ds.dim, &inputs.weights[0].1);
    let engine = wqrtq_engine::Engine::builder().workers(1).build();
    stack::load(
        &engine,
        &inputs,
        inputs.datasets.iter().map(|d| d.coords.clone()).collect(),
    )
    .expect("load");
    let mut seen = [false; 3];
    for request in &inputs.stream {
        let kind = match request {
            Request::TopK { .. } => 0,
            Request::WhyNotExplain { .. } => 1,
            Request::ReverseTopKBi { .. } => 2,
            _ => continue,
        };
        let right = engine.submit(request.clone());
        oracle
            .check(request, &right)
            .expect("engine agrees with the oracle");
        let wrong = match right {
            Response::TopK(mut v) => {
                v[0].0 += 1;
                Response::TopK(v)
            }
            Response::Explanation {
                rank,
                culprits,
                truncated,
            } => Response::Explanation {
                rank: rank + 1,
                culprits,
                truncated,
            },
            Response::ReverseTopKBi(mut v) => {
                v.push(inputs.weights[0].1.len());
                Response::ReverseTopKBi(v)
            }
            other => panic!("unexpected reply {other:?}"),
        };
        assert!(oracle.check(request, &wrong).is_err(), "{request:?}");
        seen[kind] = true;
    }
    assert_eq!(seen, [true; 3], "every read kind exercised");

    // A changed repeat of a hot request fails the run's serve check.
    let hot: Vec<usize> = (0..inputs.stream.len())
        .filter(|&i| inputs.hot[i] == Some(0))
        .collect();
    assert!(hot.len() >= 2, "hot request repeats");
    let mut kept: Vec<(usize, Response)> = hot
        .iter()
        .map(|&i| (i, engine.submit(inputs.stream[i].clone())))
        .collect();
    let mut problems = Vec::new();
    check_serve(&inputs, &kept, &mut problems, &mut Vec::new());
    assert!(problems.is_empty(), "{problems:?}");
    kept[1].1 = Response::ReverseTopKBi(vec![usize::MAX]);
    check_serve(&inputs, &kept, &mut problems, &mut Vec::new());
    assert!(!problems.is_empty());
}

#[test]
fn wrong_plans_trip_the_whynot_checks() {
    let inputs = Inputs::generate(Workload::WhyNot, 5, 1, &Scale::tiny());
    let (server, _) = stack::setup(&inputs, None).expect("setup");
    let request = &inputs.stream[0];
    let Response::Plan(plan) = server.engine().submit(request.clone()) else {
        panic!("expected a plan");
    };
    checks::plan(&plan).expect("a served plan passes");
    let mut problems = Vec::new();
    let kept = vec![(0, Response::Plan(plan.clone()))];
    check_whynot(&server, &inputs, &kept, &mut problems, &mut Vec::new());
    assert!(problems.is_empty(), "{problems:?}");

    let mut unverified: Plan = plan.clone();
    unverified.steps[1].verified = false;
    assert!(checks::plan(&unverified).is_err());
    let mut not_minimal = plan.clone();
    not_minimal.steps[0].refinement.penalty = not_minimal.steps[2].refinement.penalty + 1.0;
    assert!(checks::plan(&not_minimal).is_err());
    // A plan the core replay does not reproduce bit for bit.
    let mut drifted = plan;
    drifted.k_max += 1;
    check_whynot(
        &server,
        &inputs,
        &[(0, Response::Plan(drifted))],
        &mut problems,
        &mut Vec::new(),
    );
    assert!(!problems.is_empty());
    server.shutdown();
}
