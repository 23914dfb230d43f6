//! Single-request bichromatic reverse top-k latency: the rank-kernel
//! rebuild (flat SoA kernels + early-exit probe + culprit-pool RTA)
//! against the frozen PR-1 path, plus engine-level scaling across
//! worker counts.
//!
//! Four ways to answer one `BRTOPk(q)` request over `n` points and
//! `|W|` customer weights:
//!
//! * **naive scan** — an independent full rank scan per weight (the
//!   correctness oracle every other path is checked against, bit for
//!   bit);
//! * **legacy RTA** — the first RTA implementation, frozen here as the
//!   speedup baseline (`bichromatic_reverse_topk_rta_legacy`): buffered
//!   threshold test, then an early-exit membership probe plus a full
//!   best-first top-k buffer refresh per verified weight;
//! * **flat RTA** — the rebuilt hot path with a steady-state reused
//!   scratch, as a serving worker runs it;
//! * **engine** — the same single request through `Engine::submit`, at
//!   1 worker and at `workers` workers (the pool shards the weight set
//!   for a single request). Queries are jittered per repeat so the
//!   result cache never short-circuits the measurement.
//!
//! The binary `rank_bench` emits the JSON report `scripts/bench.sh`
//! writes to `BENCH_rank.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use wqrtq_data::synthetic::independent;
use wqrtq_engine::{Engine, Histogram, Request, Response, WeightSet};
use wqrtq_geom::{score, DeltaView, FlatPoints, Point, Weight};
use wqrtq_query::brtopk::{
    bichromatic_reverse_topk_naive, rta_over_order_view_masked, rta_sorted_order, RtaScratch,
    RtaStats,
};
use wqrtq_rtree::{ProbeScratch, RTree};

/// Workload shape for the rank-path comparison.
#[derive(Clone, Copy, Debug)]
pub struct RankBenchConfig {
    /// Dataset cardinality.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Customer population size `|W|`.
    pub num_weights: usize,
    /// The reverse top-k parameter.
    pub k: usize,
    /// Timed repetitions per path.
    pub repeats: usize,
    /// Engine worker count for the scaling measurement.
    pub workers: usize,
    /// Dataset seed.
    pub seed: u64,
}

impl Default for RankBenchConfig {
    fn default() -> Self {
        Self {
            n: 20_000,
            dim: 3,
            num_weights: 500,
            k: 10,
            repeats: 30,
            workers: 4,
            seed: 2015,
        }
    }
}

/// One measured path.
#[derive(Clone, Copy, Debug)]
pub struct PathTiming {
    /// Requests timed.
    pub requests: usize,
    /// Total wall-clock.
    pub elapsed: Duration,
    /// Median per-request latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency in microseconds.
    pub p99_us: f64,
}

impl PathTiming {
    /// Requests per second.
    pub fn rps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Mean seconds per request.
    pub fn seconds_per_request(&self) -> f64 {
        self.elapsed.as_secs_f64() / self.requests.max(1) as f64
    }
}

/// The full comparison report.
#[derive(Clone, Debug)]
pub struct RankComparison {
    /// Configuration measured.
    pub config: RankBenchConfig,
    /// Result-set size of the benchmark request (sanity anchor).
    pub result_size: usize,
    /// Oracle full scans.
    pub naive_scan: PathTiming,
    /// The frozen pre-PR RTA.
    pub legacy_rta: PathTiming,
    /// The rebuilt kernel path (steady-state scratch reuse).
    pub flat_rta: PathTiming,
    /// Engine single-request throughput at 1 worker.
    pub engine_workers_1: PathTiming,
    /// Engine single-request throughput at `config.workers` workers with
    /// the adaptive shard limit (never oversubscribes physical cores).
    pub engine_workers_n: PathTiming,
    /// Same, with sharding forced to `config.workers` shards — exercises
    /// the parallel-RTA path even when the adaptive limit would stay
    /// sequential (e.g. single-core CI), exposing oversubscription cost.
    pub engine_workers_n_forced: PathTiming,
    /// CPU cores visible to the process (scaling context).
    pub cores: usize,
}

impl RankComparison {
    /// flat / legacy single-request speedup.
    pub fn speedup_flat_vs_legacy(&self) -> f64 {
        self.flat_rta.rps() / self.legacy_rta.rps().max(1e-12)
    }

    /// multi-worker / single-worker engine scaling for one request.
    pub fn engine_scaling(&self) -> f64 {
        self.engine_workers_n.rps() / self.engine_workers_1.rps().max(1e-12)
    }

    /// The report as a JSON object (hand-rolled; std-only workspace).
    pub fn to_json(&self) -> String {
        let path = |t: &PathTiming| {
            format!(
                concat!(
                    "{{\"requests\": {}, \"seconds_per_request\": {:.9}, \"rps\": {:.1}, ",
                    "\"p50_us\": {:.3}, \"p99_us\": {:.3}}}"
                ),
                t.requests,
                t.seconds_per_request(),
                t.rps(),
                t.p50_us,
                t.p99_us,
            )
        };
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"rank_kernels_single_bichromatic\",\n",
                "  \"config\": {{\"n\": {}, \"dim\": {}, \"num_weights\": {}, \"k\": {}, ",
                "\"repeats\": {}, \"workers\": {}, \"seed\": {}}},\n",
                "  \"cores\": {},\n",
                "  \"result_size\": {},\n",
                "  \"naive_scan\": {},\n",
                "  \"legacy_rta\": {},\n",
                "  \"flat_rta\": {},\n",
                "  \"engine_workers_1\": {},\n",
                "  \"engine_workers_n\": {{\"workers\": {}, \"timing\": {}}},\n",
                "  \"engine_workers_n_forced_shards\": {{\"workers\": {}, \"timing\": {}}},\n",
                "  \"speedup_flat_vs_legacy\": {:.2},\n",
                "  \"engine_scaling_nv1\": {:.2},\n",
                "  \"results_bit_identical_to_naive\": true\n",
                "}}"
            ),
            self.config.n,
            self.config.dim,
            self.config.num_weights,
            self.config.k,
            self.config.repeats,
            self.config.workers,
            self.config.seed,
            self.cores,
            self.result_size,
            path(&self.naive_scan),
            path(&self.legacy_rta),
            path(&self.flat_rta),
            path(&self.engine_workers_1),
            self.config.workers,
            path(&self.engine_workers_n),
            self.config.workers,
            path(&self.engine_workers_n_forced),
            self.speedup_flat_vs_legacy(),
            self.engine_scaling(),
        )
    }
}

/// A deterministic fan of `m` customer weights on the simplex, spread
/// enough that the request mixes buffer prunes with index probes.
pub fn population(dim: usize, m: usize) -> Vec<Weight> {
    (0..m)
        .map(|i| {
            let t = i as f64 / m as f64;
            let raw: Vec<f64> = (0..dim)
                .map(|d| 0.1 + 0.9 * ((t * 9.7 + d as f64 * 2.3).sin() * 0.5 + 0.5))
                .collect();
            Weight::normalized(raw)
        })
        .collect()
}

/// The benchmark query point: coordinates scaled so `q` sits near the
/// top-k boundary — some weights admit it, most need real pruning or
/// verification work (the regime the why-not pipeline lives in). For
/// uniform data the score threshold of rank `r` scales as
/// `(r/n)^(1/d)`; the 0.5 factor lands `q` just outside the average
/// weight's top-k with a solid member minority.
pub fn query_point(dim: usize, n: usize, k: usize) -> Vec<f64> {
    let c = 0.5 * (k.max(1) as f64 / n.max(1) as f64).powf(1.0 / dim as f64);
    vec![c; dim]
}

fn time_requests(repeats: usize, mut f: impl FnMut(usize)) -> PathTiming {
    let latency = Histogram::new();
    let start = Instant::now();
    for i in 0..repeats {
        let began = Instant::now();
        f(i);
        latency.record_duration(began.elapsed());
    }
    let snap = latency.snapshot();
    PathTiming {
        requests: repeats,
        elapsed: start.elapsed(),
        p50_us: snap.quantile_micros(0.50),
        p99_us: snap.quantile_micros(0.99),
    }
}

/// Serves `repeats` single-request submissions through an engine with
/// `workers` threads, jittering `q` per repeat so the result cache never
/// answers. Panics if any response errors or disagrees with `expected`
/// on the un-jittered repeat.
fn run_engine(
    cfg: &RankBenchConfig,
    coords: &[f64],
    weights: &[Weight],
    workers: usize,
    force_shards: bool,
    expected: &[usize],
) -> PathTiming {
    let mut builder = Engine::builder().workers(workers).cache_capacity(16);
    if force_shards {
        builder = builder.shard_limit(workers);
    }
    let engine = builder.build();
    engine
        .register_dataset("bench", cfg.dim, coords.to_vec())
        .expect("register dataset");
    engine
        .register_weights("population", weights.to_vec())
        .expect("register population");
    engine.catalog().handle("bench").expect("warm index");
    let base_q = query_point(cfg.dim, cfg.n, cfg.k);

    // Warm-up + correctness: the un-jittered request must reproduce the
    // library result exactly.
    let warm = engine.submit(Request::ReverseTopKBi {
        dataset: "bench".into(),
        weights: WeightSet::Named("population".into()),
        q: base_q.clone(),
        k: cfg.k,
    });
    assert_eq!(
        warm,
        Response::ReverseTopKBi(expected.to_vec()),
        "engine single request must match the library paths"
    );

    time_requests(cfg.repeats, |i| {
        let mut q = base_q.clone();
        // Sub-nanometre jitter: distinct cache fingerprints, identical
        // work (coordinates shift by ≤ repeats × 1e-12).
        q[0] += (i + 1) as f64 * 1e-12;
        let response = engine.submit(Request::ReverseTopKBi {
            dataset: "bench".into(),
            weights: WeightSet::Named("population".into()),
            q,
            k: cfg.k,
        });
        assert!(
            matches!(response, Response::ReverseTopKBi(_)),
            "bench request must serve cleanly"
        );
    })
}

/// The first RTA implementation, frozen as the `rank_bench` baseline: a
/// buffered threshold test over the previous weight's *exact* top-k,
/// then an early-exit membership probe plus a full best-first top-k
/// buffer refresh per verified weight (two traversals and `k` heap
/// allocations each). Returns the members in ascending order.
fn bichromatic_reverse_topk_rta_legacy(
    tree: &RTree,
    weights: &[Weight],
    q: &[f64],
    k: usize,
) -> (Vec<usize>, RtaStats) {
    let mut stats = RtaStats::default();
    if weights.is_empty() || k == 0 {
        return (Vec::new(), stats);
    }

    let order = rta_sorted_order(weights);
    let mut result = Vec::new();
    // Buffer: coordinates of the previous weight's top-k points.
    let mut buffer: Vec<Vec<f64>> = Vec::new();

    for &idx in &order {
        let w = &weights[idx];
        let sq = w.score(q);

        // Threshold test: if k buffered points already beat q under this
        // weight, q cannot be in TOPk(w) — no index work needed.
        if buffer.len() >= k {
            let better = buffer.iter().filter(|p| score(w, p) < sq).count();
            if better >= k {
                stats.buffer_prunes += 1;
                continue;
            }
        }

        stats.tree_verifications += 1;
        let mut probe = ProbeScratch::new();
        if tree
            .probe_topk_membership(w, sq, k, &mut probe, None)
            .in_topk
        {
            result.push(idx);
        }
        // Refresh the buffer with this weight's exact top-k.
        buffer.clear();
        let mut bf = tree.best_first(w);
        for _ in 0..k {
            match bf.next_entry() {
                Some(r) => buffer.push(r.coords.to_vec()),
                None => break,
            }
        }
    }

    result.sort_unstable();
    (result, stats)
}

/// Runs the full comparison.
pub fn compare(cfg: &RankBenchConfig) -> RankComparison {
    let ds = independent(cfg.n, cfg.dim, cfg.seed);
    let tree = RTree::bulk_load(cfg.dim, &ds.coords);
    let view = DeltaView::plain(Arc::new(FlatPoints::from_row_major(cfg.dim, &ds.coords)));
    let weights = population(cfg.dim, cfg.num_weights);
    let q = query_point(cfg.dim, cfg.n, cfg.k);
    let points: Vec<Point> = ds
        .coords
        .chunks_exact(cfg.dim)
        .map(|p| Point::new(p.to_vec()))
        .collect();

    // Correctness first: all paths must agree bit-for-bit.
    let oracle = bichromatic_reverse_topk_naive(&points, &weights, &q, cfg.k);
    let (legacy, _) = bichromatic_reverse_topk_rta_legacy(&tree, &weights, &q, cfg.k);
    assert_eq!(oracle, legacy, "legacy RTA diverged from the naive scan");
    let order = rta_sorted_order(&weights);
    let mut scratch = RtaScratch::new();
    let (mut flat, _) = rta_over_order_view_masked(
        &tree,
        &view,
        &weights,
        &order,
        &q,
        cfg.k,
        None,
        &mut scratch,
    );
    flat.sort_unstable();
    assert_eq!(oracle, flat, "flat RTA diverged from the naive scan");

    // Naive gets fewer repeats — it is orders of magnitude slower and
    // only anchors the chart.
    let naive_repeats = cfg.repeats.clamp(1, 3);
    let naive_scan = time_requests(naive_repeats, |_| {
        std::hint::black_box(bichromatic_reverse_topk_naive(&points, &weights, &q, cfg.k));
    });
    let legacy_rta = time_requests(cfg.repeats, |_| {
        std::hint::black_box(bichromatic_reverse_topk_rta_legacy(
            &tree, &weights, &q, cfg.k,
        ));
    });
    let flat_rta = time_requests(cfg.repeats, |_| {
        // Steady-state serving shape: similarity order per request, the
        // worker's scratch reused across requests.
        let order = rta_sorted_order(&weights);
        let (mut members, _) = rta_over_order_view_masked(
            &tree,
            &view,
            &weights,
            &order,
            &q,
            cfg.k,
            None,
            &mut scratch,
        );
        members.sort_unstable();
        std::hint::black_box(members);
    });

    let engine_workers_1 = run_engine(cfg, &ds.coords, &weights, 1, false, &oracle);
    let engine_workers_n = run_engine(cfg, &ds.coords, &weights, cfg.workers, false, &oracle);
    let engine_workers_n_forced = run_engine(cfg, &ds.coords, &weights, cfg.workers, true, &oracle);

    RankComparison {
        config: *cfg,
        result_size: oracle.len(),
        naive_scan,
        legacy_rta,
        flat_rta,
        engine_workers_1,
        engine_workers_n,
        engine_workers_n_forced,
        cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RankBenchConfig {
        RankBenchConfig {
            n: 2_000,
            dim: 3,
            num_weights: 150,
            k: 5,
            repeats: 2,
            workers: 2,
            seed: 7,
        }
    }

    #[test]
    fn comparison_runs_and_report_is_json_shaped() {
        let c = compare(&tiny());
        assert_eq!(c.naive_scan.requests, 2);
        assert_eq!(c.legacy_rta.requests, 2);
        assert!(c.flat_rta.rps() > 0.0);
        let json = c.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"speedup_flat_vs_legacy\""));
        assert!(json.contains("\"engine_workers_1\""));
        assert!(json.contains("\"engine_workers_n\": {\"workers\": 2,"));
        assert!(json.contains("\"engine_workers_n_forced_shards\""));
        assert!(json.contains("\"results_bit_identical_to_naive\": true"));
        assert!(json.contains("\"p50_us\""));
        assert!(json.contains("\"p99_us\""));
        assert!(c.flat_rta.p99_us >= c.flat_rta.p50_us);
        assert!(c.flat_rta.p50_us > 0.0);
    }

    #[test]
    fn legacy_rta_matches_naive_on_paper_example() {
        let fig = wqrtq_data::figure1::dataset();
        let tree = RTree::bulk_load(2, &fig.flat_products());
        let (res, stats) =
            bichromatic_reverse_topk_rta_legacy(&tree, &fig.customers, fig.apple.coords(), 3);
        assert_eq!(res, vec![1, 2]); // Tony, Anna
        assert_eq!(stats.buffer_prunes + stats.tree_verifications, 4);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn legacy_rta_equals_naive(
            pts in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 5..120),
            q in (0.0f64..10.0, 0.0f64..10.0),
            k in 1usize..8,
            nw in 1usize..16,
        ) {
            let points: Vec<Point> = pts.iter().map(|(a, b)| Point::from([*a, *b])).collect();
            let flat: Vec<f64> = pts.iter().flat_map(|(a, b)| [*a, *b]).collect();
            let tree = RTree::bulk_load_with_fanout(2, &flat, 8);
            let weights: Vec<Weight> = (0..nw)
                .map(|i| Weight::from_first_2d((i as f64 + 0.5) / nw as f64))
                .collect();
            let qv = [q.0, q.1];
            let naive = bichromatic_reverse_topk_naive(&points, &weights, &qv, k);
            let (legacy, _) = bichromatic_reverse_topk_rta_legacy(&tree, &weights, &qv, k);
            proptest::prop_assert_eq!(&naive, &legacy);
        }
    }

    #[test]
    fn benchmark_query_sits_near_the_boundary() {
        // The workload must mix members and non-members — an all-or-
        // nothing result would make the RTA comparison degenerate.
        let cfg = tiny();
        let c = compare(&cfg);
        assert!(c.result_size > 0, "no weight admits q: too deep");
        assert!(
            c.result_size < cfg.num_weights,
            "every weight admits q: too shallow"
        );
    }
}
