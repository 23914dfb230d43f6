//! Why-not advisor benchmark: one [`Request::WhyNot`] plan against the
//! equivalent hand-rolled sequence of per-strategy calls.
//!
//! A caller that answers the paper's actual deliverable — "which
//! refinement is cheapest?" — by hand issues one `WhyNotExplain` per
//! why-not vector plus one single-strategy `WhyNot` per strategy, then
//! compares penalties. The all-strategy plan request does the same work
//! in a single round trip through the engine (one validation pass, one
//! explanation pass, one cache entry, one queue hop). Each
//! single-strategy reference step also explains, verifies and breaks
//! down its answer, as every plan step does.
//!
//! Two things are measured on identical workloads (distinct query
//! points per round, so the result cache never flatters either side):
//!
//! * **throughput** — plans per second vs. reference bundles per second
//!   (`speedup_plan_vs_legacy_calls`); both sides run with the exact-2D
//!   path pinned off so they execute the same algorithms;
//! * **streaming latency** — how much sooner the first progressive
//!   partial (an explanation) lands than the full plan
//!   (`streaming_headstart` = full-plan time / first-partial time).
//!
//! Correctness anchors: the plan's recommendation must equal the
//! minimum of the three single-strategy penalties bit for bit, and
//! every plan step must carry `verified = true`. The binary `whynot_bench` emits
//! the JSON report `scripts/bench.sh` writes to `BENCH_whynot.json`.

use std::time::{Duration, Instant};
use wqrtq_core::advisor::{StrategyKind, WhyNotOptions};
use wqrtq_data::synthetic::independent;
use wqrtq_engine::{Engine, Histogram, PlanDelta, Request, Response};
use wqrtq_geom::Weight;
use wqrtq_query::rank::rank_of_point_scan;

/// Workload shape for the advisor comparison.
#[derive(Clone, Copy, Debug)]
pub struct WhyNotBenchConfig {
    /// Dataset cardinality.
    pub n: usize,
    /// Why-not cases measured (each a distinct query point).
    pub rounds: usize,
    /// Why-not vectors per case.
    pub why_not: usize,
    /// The reverse top-k parameter.
    pub k: usize,
    /// Weight samples `|S|` for the sampled MWK/MQWK paths.
    pub sample_size: usize,
    /// Query-point samples `|Q|` for MQWK.
    pub query_samples: usize,
    /// Worker threads.
    pub workers: usize,
    /// Dataset and workload seed.
    pub seed: u64,
}

impl Default for WhyNotBenchConfig {
    fn default() -> Self {
        Self {
            n: 20_000,
            rounds: 24,
            why_not: 2,
            k: 10,
            sample_size: 200,
            query_samples: 100,
            workers: 4,
            seed: 2015,
        }
    }
}

/// One side's timed run.
#[derive(Clone, Copy, Debug)]
pub struct WhyNotTiming {
    /// Cases served.
    pub rounds: usize,
    /// Requests issued (1 per case for plans; `why_not + 3` for legacy).
    pub requests: usize,
    /// Total wall-clock.
    pub elapsed: Duration,
    /// Median per-case latency in microseconds (a legacy case is the
    /// whole explain + three-refines bundle).
    pub p50_us: f64,
    /// 99th-percentile per-case latency in microseconds.
    pub p99_us: f64,
}

impl WhyNotTiming {
    /// Cases per second.
    pub fn cases_per_sec(&self) -> f64 {
        self.rounds as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// The full comparison report.
#[derive(Clone, Debug)]
pub struct WhyNotComparison {
    /// Configuration measured.
    pub config: WhyNotBenchConfig,
    /// One-request plan timing.
    pub plan: WhyNotTiming,
    /// Explain-per-vector + three-refines timing.
    pub legacy: WhyNotTiming,
    /// Full-plan time / first-partial time on an uncached streamed case.
    pub streaming_headstart: f64,
    /// Every plan recommendation equalled the legacy minimum bit for bit.
    pub recommendation_matches_legacy_minimum: bool,
    /// Every plan step carried `verified = true`.
    pub plan_steps_verified: bool,
}

impl WhyNotComparison {
    /// plan cases/s over legacy cases/s.
    pub fn speedup(&self) -> f64 {
        self.plan.cases_per_sec() / self.legacy.cases_per_sec().max(1e-12)
    }

    /// The report as a JSON object (hand-rolled; std-only workspace).
    pub fn to_json(&self) -> String {
        let timing = |t: &WhyNotTiming| {
            format!(
                concat!(
                    "{{\"rounds\": {}, \"requests\": {}, \"seconds\": {:.6}, ",
                    "\"cases_per_sec\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}}}"
                ),
                t.rounds,
                t.requests,
                t.elapsed.as_secs_f64(),
                t.cases_per_sec(),
                t.p50_us,
                t.p99_us,
            )
        };
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"whynot_plan_vs_legacy_calls\",\n",
                "  \"config\": {{\"n\": {}, \"rounds\": {}, \"why_not\": {}, \"k\": {}, ",
                "\"sample_size\": {}, \"query_samples\": {}, \"workers\": {}, \"seed\": {}}},\n",
                "  \"plan\": {},\n",
                "  \"legacy_calls\": {},\n",
                "  \"speedup_plan_vs_legacy_calls\": {:.3},\n",
                "  \"streaming_headstart\": {:.2},\n",
                "  \"plan_matches_legacy_minimum\": {},\n",
                "  \"plan_steps_verified\": {}\n",
                "}}"
            ),
            self.config.n,
            self.config.rounds,
            self.config.why_not,
            self.config.k,
            self.config.sample_size,
            self.config.query_samples,
            self.config.workers,
            self.config.seed,
            timing(&self.plan),
            timing(&self.legacy),
            self.speedup(),
            self.streaming_headstart,
            self.recommendation_matches_legacy_minimum,
            self.plan_steps_verified,
        )
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One why-not case: a query point and vectors under which it genuinely
/// ranks below `k` (checked against the dataset during setup, outside
/// every timed region).
struct Case {
    q: Vec<f64>,
    why_not: Vec<Vec<f64>>,
}

/// Generates `rounds + extras` valid why-not cases over `coords`.
fn cases(cfg: &WhyNotBenchConfig, coords: &[f64], extras: usize) -> Vec<Case> {
    let mut state = cfg.seed ^ 0x5151_a0a0_c3c3_7e7e;
    let mut out = Vec::with_capacity(cfg.rounds + extras);
    let mut attempts = 0usize;
    while out.len() < cfg.rounds + extras {
        attempts += 1;
        assert!(
            attempts < 100_000,
            "could not find enough why-not cases — workload too easy?"
        );
        // A mid-field query point: competitive enough to be plausible,
        // weak enough that skewed weights rank it below k.
        let q: Vec<f64> = (0..2).map(|_| 0.25 + 0.35 * unit(&mut state)).collect();
        let mut why_not = Vec::with_capacity(cfg.why_not);
        for _ in 0..cfg.why_not * 8 {
            if why_not.len() == cfg.why_not {
                break;
            }
            // Skewed weights are the ones that exclude mid-field points.
            let x = if unit(&mut state) < 0.5 {
                0.02 + 0.1 * unit(&mut state)
            } else {
                0.88 + 0.1 * unit(&mut state)
            };
            let w = Weight::from_first_2d(x);
            if rank_of_point_scan(coords, &w, &q) > cfg.k {
                why_not.push(vec![w[0], w[1]]);
            }
        }
        if why_not.len() == cfg.why_not {
            out.push(Case { q, why_not });
        }
    }
    out
}

fn plan_options(cfg: &WhyNotBenchConfig) -> WhyNotOptions {
    WhyNotOptions {
        sample_size: cfg.sample_size,
        query_samples: cfg.query_samples,
        seed: cfg.seed,
        // Pinned off so the plan and the per-strategy calls run the *same*
        // algorithms — the speedup measures the surface, not a better
        // algorithm sneaking in.
        exact_2d: false,
        ..WhyNotOptions::default()
    }
}

fn plan_request(cfg: &WhyNotBenchConfig, case: &Case) -> Request {
    Request::WhyNot {
        dataset: "bench".into(),
        q: case.q.clone(),
        k: cfg.k,
        why_not: case.why_not.clone(),
        options: plan_options(cfg),
    }
}

/// Runs the full comparison.
pub fn compare(cfg: &WhyNotBenchConfig) -> WhyNotComparison {
    let ds = independent(cfg.n, 2, cfg.seed);
    let all_cases = cases(cfg, &ds.coords, 1);
    let (timed_cases, streamed_case) = all_cases.split_at(cfg.rounds);

    let engine = Engine::builder().workers(cfg.workers).build();
    engine
        .register_dataset("bench", 2, ds.coords.clone())
        .expect("register");
    engine.catalog().handle("bench").expect("warm index");

    // Reference side: one explain per vector + one single-strategy plan
    // per strategy, the by-hand recipe for "which refinement is
    // cheapest?".
    let mut legacy_minima: Vec<f64> = Vec::with_capacity(cfg.rounds);
    let mut legacy_requests = 0usize;
    let legacy_latency = Histogram::new();
    let legacy_start = Instant::now();
    for case in timed_cases {
        let case_began = Instant::now();
        for w in &case.why_not {
            let r = engine.submit(Request::WhyNotExplain {
                dataset: "bench".into(),
                weight: w.clone(),
                q: case.q.clone(),
                limit: 16,
            });
            assert!(!r.is_error(), "legacy explain failed: {r:?}");
            legacy_requests += 1;
        }
        let mut min = f64::INFINITY;
        for strategy in StrategyKind::ALL {
            let r = engine.submit(Request::WhyNot {
                dataset: "bench".into(),
                q: case.q.clone(),
                k: cfg.k,
                why_not: case.why_not.clone(),
                options: WhyNotOptions {
                    strategies: vec![strategy],
                    ..plan_options(cfg)
                },
            });
            legacy_requests += 1;
            match r {
                Response::Plan(plan) => min = min.min(plan.recommended().refinement.penalty),
                other => panic!("single-strategy plan failed: {other:?}"),
            }
        }
        legacy_minima.push(min);
        legacy_latency.record_duration(case_began.elapsed());
    }
    let legacy_snap = legacy_latency.snapshot();
    let legacy = WhyNotTiming {
        rounds: cfg.rounds,
        requests: legacy_requests,
        elapsed: legacy_start.elapsed(),
        p50_us: legacy_snap.quantile_micros(0.50),
        p99_us: legacy_snap.quantile_micros(0.99),
    };

    // Plan side: the same cases, one request each.
    let mut matches = true;
    let mut verified = true;
    let plan_latency = Histogram::new();
    let plan_start = Instant::now();
    for (case, legacy_min) in timed_cases.iter().zip(&legacy_minima) {
        let case_began = Instant::now();
        match engine.submit(plan_request(cfg, case)) {
            Response::Plan(plan) => {
                matches &= plan.recommended().refinement.penalty.to_bits() == legacy_min.to_bits();
                verified &= plan.steps.iter().all(|s| s.verified);
            }
            other => panic!("plan request failed: {other:?}"),
        }
        plan_latency.record_duration(case_began.elapsed());
    }
    let plan_snap = plan_latency.snapshot();
    let plan = WhyNotTiming {
        rounds: cfg.rounds,
        requests: cfg.rounds,
        elapsed: plan_start.elapsed(),
        p50_us: plan_snap.quantile_micros(0.50),
        p99_us: plan_snap.quantile_micros(0.99),
    };

    // Streaming latency: on a fresh (uncached) case, how much sooner
    // does the first partial land than the full plan?
    let (tx, rx) = std::sync::mpsc::channel();
    let first_tx = tx.clone();
    let streamed_start = Instant::now();
    engine.submit_with_progress(
        plan_request(cfg, &streamed_case[0]),
        move |delta| {
            if matches!(delta, PlanDelta::Explained { index: 0, .. }) {
                let _ = first_tx.send(None);
            }
        },
        move |response| tx.send(Some(response)).unwrap(),
    );
    let mut first_partial = None;
    let mut full_plan = None;
    for event in rx.iter() {
        match event {
            None => first_partial.get_or_insert(streamed_start.elapsed()),
            Some(response) => {
                assert!(matches!(response, Response::Plan(_)));
                full_plan.get_or_insert(streamed_start.elapsed())
            }
        };
        if full_plan.is_some() {
            break;
        }
    }
    let first = first_partial.expect("first partial observed").as_secs_f64();
    let full = full_plan.expect("plan completed").as_secs_f64();
    let streaming_headstart = full / first.max(1e-9);

    WhyNotComparison {
        config: *cfg,
        plan,
        legacy,
        streaming_headstart,
        recommendation_matches_legacy_minimum: matches,
        plan_steps_verified: verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WhyNotBenchConfig {
        WhyNotBenchConfig {
            n: 1_500,
            rounds: 4,
            why_not: 2,
            k: 5,
            sample_size: 48,
            query_samples: 16,
            workers: 2,
            seed: 7,
        }
    }

    #[test]
    fn comparison_runs_and_report_is_json_shaped() {
        let c = compare(&tiny());
        assert_eq!(c.plan.rounds, 4);
        assert_eq!(c.plan.requests, 4);
        assert_eq!(c.legacy.requests, 4 * (2 + 3));
        assert!(
            c.recommendation_matches_legacy_minimum,
            "plan must recommend the legacy minimum"
        );
        assert!(c.plan_steps_verified, "every step must verify");
        assert!(c.streaming_headstart >= 1.0);
        let json = c.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"speedup_plan_vs_legacy_calls\""));
        assert!(json.contains("\"plan_matches_legacy_minimum\": true"));
        assert!(json.contains("\"plan_steps_verified\": true"));
        assert!(json.contains("\"p50_us\""));
        assert!(json.contains("\"p99_us\""));
        assert!(c.plan.p99_us >= c.plan.p50_us);
        assert!(c.plan.p50_us > 0.0);
    }
}
