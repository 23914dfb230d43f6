//! Workload inputs: datasets, weight populations and the request stream,
//! all generated from the seed before any timer starts.

use crate::rng::Rng;
use wqrtq_data::synthetic::{anticorrelated, independent};
use wqrtq_data::workload::{build_case, WorkloadSpec};
use wqrtq_engine::{Request, WeightSet, WhyNotOptions};
use wqrtq_rtree::RTree;

/// Seed of the why-not workload's four datasets.
const DATASET_SEED: u64 = 2015;
/// Name of the weight population `ReverseTopKBi` requests run against.
pub const CUSTOMERS: &str = "customers";

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's why-not plans over four 20k-point datasets.
    WhyNot,
    /// Read-only reverse top-k serving with a hot set and a result cache.
    Serve,
    /// Reads plus appends and deletes on a durable dataset.
    Mutate,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "whynot" => Some(Workload::WhyNot),
            "serve" => Some(Workload::Serve),
            "mutate" => Some(Workload::Mutate),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WhyNot => "whynot",
            Workload::Serve => "serve",
            Workload::Mutate => "mutate",
        }
    }

    /// Requests each connection keeps in flight (two connections each).
    pub fn depth(self) -> usize {
        match self {
            Workload::WhyNot => 1,
            Workload::Serve | Workload::Mutate => 8,
        }
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] keeps
/// the benchmark's own tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Points per why-not dataset.
    pub whynot_n: usize,
    /// Weight samples `|S|` and query samples `|Q|` of every plan.
    pub plan_samples: usize,
    /// Points of the serving dataset.
    pub serve_n: usize,
    /// Points of the mutated dataset.
    pub mutate_n: usize,
    /// Weight vectors of the named population.
    pub population: usize,
    /// Requests of the serve hot set. Each repeats about every
    /// `hot_set / 0.2` requests, well inside the 256-entry result cache,
    /// so repeats hit it while the unique requests overflow it.
    pub hot_set: usize,
    /// Rows per `Append`.
    pub append_rows: usize,
    /// Ids per `Delete`; at most half of `append_rows`, so the deleted
    /// id range can never outrun the live rows (see `write_op`).
    pub delete_ids: usize,
    /// Untimed warm-up requests of serve and mutate.
    pub warmup: usize,
    /// Why-not stream requests generated per measured second. Serve and
    /// why-not windows wrap around their stream; mutate's window ends
    /// early if its stream runs dry, so its rate is a generous bound.
    pub plans_per_second: usize,
    /// As `plans_per_second`, for serve.
    pub serve_per_second: usize,
    /// As `plans_per_second`, for mutate.
    pub mutate_per_second: usize,
    /// Compactions the mutate window must complete.
    pub min_compactions: u64,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            whynot_n: 20_000,
            plan_samples: 100,
            serve_n: 100_000,
            mutate_n: 20_000,
            population: 500,
            hot_set: 16,
            append_rows: 32,
            delete_ids: 16,
            warmup: 1_000,
            plans_per_second: 30,
            serve_per_second: 6_000,
            mutate_per_second: 5_000,
            min_compactions: 3,
        }
    }

    /// Sizes for the benchmark's own tests.
    pub fn tiny() -> Self {
        Scale {
            whynot_n: 2_000,
            plan_samples: 10,
            serve_n: 3_000,
            mutate_n: 3_000,
            population: 40,
            hot_set: 8,
            append_rows: 16,
            delete_ids: 8,
            warmup: 50,
            plans_per_second: 40,
            serve_per_second: 3_000,
            mutate_per_second: 2_000,
            min_compactions: 0,
        }
    }
}

/// One registered dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Catalog name (also the tag the per-dataset metrics carry).
    pub name: String,
    /// Dimensionality.
    pub dim: usize,
    /// Row-major coordinates.
    pub coords: Vec<f64>,
}

/// Everything one run feeds the server.
#[derive(Debug)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// Datasets registered at set-up.
    pub datasets: Vec<Dataset>,
    /// Weight populations registered at set-up.
    pub weights: Vec<(String, Vec<Vec<f64>>)>,
    /// The request stream; the first `warmup` requests are the untimed
    /// warm-up, the rest are measured in order.
    pub stream: Vec<Request>,
    /// Length of the warm-up prefix of `stream`.
    pub warmup: usize,
    /// Per stream request: its index in the serve hot set, if it repeats
    /// one.
    pub hot: Vec<Option<usize>>,
    /// Reads answered once more after the window; on mutate they compare
    /// the final state against a fresh engine and a recovered one.
    pub probes: Vec<Request>,
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`, sized for a window
    /// of `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: u64, scale: &Scale) -> Inputs {
        match workload {
            Workload::WhyNot => whynot_inputs(seed, seconds, scale),
            Workload::Serve => serve_inputs(seed, seconds, scale),
            Workload::Mutate => mutate_inputs(seed, seconds, scale),
        }
    }

    /// The stream requests that mutate (the mutate workload's writes).
    pub fn stream_writes(&self) -> impl Iterator<Item = &Request> {
        self.stream.iter().filter(|r| r.kind().is_mutation())
    }
}

/// The `i`-th write of a write sequence: appends and deletes alternate.
/// Deletes walk one id cursor upward from 0. Compaction renumbers the
/// live rows densely in id order, so every id below the live count stays
/// live in whichever numbering the delete meets, and no id value is sent
/// twice. Each append adds at least twice the rows a delete removes, so
/// the cursor stays below the live count.
fn write_op(
    rng: &mut Rng,
    dataset: &str,
    dim: usize,
    i: usize,
    append_rows: usize,
    delete_ids: usize,
    cursor: &mut u32,
) -> Request {
    debug_assert!(append_rows >= 2 * delete_ids);
    if i.is_multiple_of(2) {
        Request::Append {
            dataset: dataset.into(),
            points: (0..append_rows * dim).map(|_| rng.unit()).collect(),
        }
    } else {
        let ids = (*cursor..*cursor + delete_ids as u32).collect();
        *cursor += delete_ids as u32;
        Request::Delete {
            dataset: dataset.into(),
            ids,
        }
    }
}

fn whynot_inputs(seed: u64, seconds: u64, scale: &Scale) -> Inputs {
    let n = scale.whynot_n;
    // The four datasets are fixed, as the paper's experiments fix their
    // data; the seed draws the why-not cases.
    let datasets = vec![
        ("ind2", independent(n, 2, DATASET_SEED)),
        ("ind3", independent(n, 3, DATASET_SEED + 1)),
        ("anti3", anticorrelated(n, 3, DATASET_SEED + 2)),
        ("ind5", independent(n, 5, DATASET_SEED + 3)),
    ];
    let trees: Vec<RTree> = datasets
        .iter()
        .map(|(_, ds)| RTree::bulk_load(ds.dim, &ds.coords))
        .collect();
    let mut rng = Rng::new(seed, 1);
    let warmup = datasets.len();
    let total = warmup + scale.plans_per_second * seconds as usize;
    // Cycle datasets fastest, then target rank {11, 101, 501} and
    // |Wm| ∈ {1, 2}: every window holds the same mix. Each plan has its
    // own query point and sampling seed, so no two plans are alike.
    let stream = (0..total)
        .map(|i| {
            let d = i % datasets.len();
            let combo = (i / datasets.len()) % 6;
            let spec = WorkloadSpec {
                k: 10,
                num_why_not: 1 + combo / 3,
                target_rank: [11, 101, 501][combo % 3],
                rank_tolerance: 0.2,
            };
            let case = build_case(&trees[d], &spec, rng.next_u64());
            Request::WhyNot {
                dataset: datasets[d].0.into(),
                q: case.q,
                k: spec.k,
                why_not: case.why_not.into_iter().map(|w| w.into_vec()).collect(),
                options: WhyNotOptions {
                    sample_size: scale.plan_samples,
                    query_samples: scale.plan_samples,
                    seed: rng.next_u64(),
                    ..WhyNotOptions::default()
                },
            }
        })
        .collect::<Vec<_>>();
    let hot = vec![None; stream.len()];
    Inputs {
        workload: Workload::WhyNot,
        datasets: datasets
            .into_iter()
            .map(|(name, ds)| Dataset {
                name: name.into(),
                dim: ds.dim,
                coords: ds.coords,
            })
            .collect(),
        weights: Vec::new(),
        stream,
        warmup,
        hot,
        probes: Vec::new(),
    }
}

/// Generates the read requests of serve and mutate over one dataset.
struct ReadGen<'a> {
    dataset: &'a str,
    tree: RTree,
    dim: usize,
}

impl ReadGen<'_> {
    /// A competitive query point: a top-50 point under a random weight,
    /// nudged off the dataset.
    fn competitive_q(&self, rng: &mut Rng) -> Vec<f64> {
        let w = rng.simplex(self.dim);
        let rank = 1 + rng.below(50);
        let mut bf = self.tree.best_first(&w);
        let mut q = None;
        for _ in 0..rank {
            q = bf.next_entry().or(q);
        }
        let scale = 1.0 + 1e-6 * (1.0 + rng.unit());
        q.expect("non-empty dataset")
            .coords
            .iter()
            .map(|c| c * scale)
            .collect()
    }

    /// About 80% `TopK`, 10% `WhyNotExplain`, 10% `ReverseTopKBi`.
    fn read(&self, rng: &mut Rng) -> Request {
        let r = rng.unit();
        let dataset = self.dataset.to_string();
        if r < 0.8 {
            Request::TopK {
                dataset,
                weight: rng.simplex(self.dim),
                k: 10,
            }
        } else if r < 0.9 {
            Request::WhyNotExplain {
                dataset,
                weight: rng.simplex(self.dim),
                q: self.competitive_q(rng),
                limit: 16,
            }
        } else {
            Request::ReverseTopKBi {
                dataset,
                weights: WeightSet::Named(CUSTOMERS.into()),
                q: self.competitive_q(rng),
                k: 10,
            }
        }
    }
}

fn population(rng: &mut Rng, size: usize, dim: usize) -> Vec<(String, Vec<Vec<f64>>)> {
    vec![(
        CUSTOMERS.to_string(),
        (0..size).map(|_| rng.simplex(dim)).collect(),
    )]
}

fn serve_inputs(seed: u64, seconds: u64, scale: &Scale) -> Inputs {
    let ds = independent(scale.serve_n, 3, seed ^ 0x21);
    let mut rng = Rng::new(seed, 2);
    let weights = population(&mut rng, scale.population, 3);
    let gen = ReadGen {
        dataset: "serve",
        tree: RTree::bulk_load(3, &ds.coords),
        dim: 3,
    };
    let hot_set: Vec<Request> = (0..scale.hot_set).map(|_| gen.read(&mut rng)).collect();
    let total = scale.warmup + scale.serve_per_second * seconds as usize;
    let mut hot = Vec::with_capacity(total);
    // About 20% of requests repeat from the hot set; the rest are unique,
    // so the working set overflows the result cache.
    let stream = (0..total)
        .map(|_| {
            if rng.unit() < 0.2 {
                let h = rng.below(hot_set.len());
                hot.push(Some(h));
                hot_set[h].clone()
            } else {
                hot.push(None);
                gen.read(&mut rng)
            }
        })
        .collect();
    Inputs {
        workload: Workload::Serve,
        datasets: vec![Dataset {
            name: "serve".into(),
            dim: 3,
            coords: ds.coords,
        }],
        weights,
        stream,
        warmup: scale.warmup,
        hot,
        probes: Vec::new(),
    }
}

fn mutate_inputs(seed: u64, seconds: u64, scale: &Scale) -> Inputs {
    let ds = independent(scale.mutate_n, 3, seed ^ 0x31);
    let mut rng = Rng::new(seed, 3);
    let weights = population(&mut rng, scale.population, 3);
    let gen = ReadGen {
        dataset: "mutate",
        tree: RTree::bulk_load(3, &ds.coords),
        dim: 3,
    };
    let total = scale.warmup + scale.mutate_per_second * seconds as usize;
    let mut cursor = 0u32;
    let mut writes = 0usize;
    // About 20% writes, alternating appends and deletes.
    let stream: Vec<Request> = (0..total)
        .map(|_| {
            if rng.unit() < 0.2 {
                writes += 1;
                write_op(
                    &mut rng,
                    "mutate",
                    3,
                    writes - 1,
                    scale.append_rows,
                    scale.delete_ids,
                    &mut cursor,
                )
            } else {
                gen.read(&mut rng)
            }
        })
        .collect();
    let probes = (0..64).map(|_| gen.read(&mut rng)).collect();
    Inputs {
        workload: Workload::Mutate,
        datasets: vec![Dataset {
            name: "mutate".into(),
            dim: 3,
            coords: ds.coords,
        }],
        weights,
        hot: vec![None; stream.len()],
        stream,
        warmup: scale.warmup,
        probes,
    }
}
