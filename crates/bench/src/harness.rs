//! Workload preparation and timed algorithm runs.
//!
//! `prepare` turns a [`Config`] into an indexed dataset plus a why-not
//! case (outside the timed region, as in the paper: index construction
//! is not part of query cost); `run_algorithm` measures one algorithm's
//! total running time and the penalty of its refined query — the two
//! metrics of every figure in §5.

use crate::params::{Config, DatasetKind};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wqrtq_core::mqp::mqp_view;
use wqrtq_core::mqwk::mqwk_view;
use wqrtq_core::mwk::mwk_view;
use wqrtq_core::penalty::Tolerances;
use wqrtq_data::realistic::{household_like_scaled, nba_like_scaled};
use wqrtq_data::synthetic::{anticorrelated, independent, Dataset};
use wqrtq_data::workload::{build_case, WhyNotCase, WorkloadSpec};
use wqrtq_geom::{DeltaView, FlatPoints};
use wqrtq_rtree::RTree;

/// The three refinement algorithms of the WQRTQ framework.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Modify the query point (Algorithm 1).
    Mqp,
    /// Modify `Wm` and `k` (Algorithm 2).
    Mwk,
    /// Modify everything (Algorithm 3).
    Mqwk,
}

impl Algorithm {
    /// All three, in the paper's presentation order.
    pub const ALL: [Algorithm; 3] = [Algorithm::Mqp, Algorithm::Mwk, Algorithm::Mqwk];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Mqp => "MQP",
            Algorithm::Mwk => "MWK",
            Algorithm::Mqwk => "MQWK",
        }
    }
}

/// A prepared experiment: index + why-not case.
pub struct Prepared {
    /// The index over the product dataset.
    pub tree: RTree,
    /// The product dataset the index was built from.
    pub view: DeltaView,
    /// The generated why-not case.
    pub case: WhyNotCase,
    /// Sample size to use (|S| = |Q|).
    pub sample_size: usize,
    /// Seed for algorithm-internal sampling.
    pub seed: u64,
}

/// One measured run.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// Total running time.
    pub time: Duration,
    /// Penalty of the refined query it returned.
    pub penalty: f64,
}

/// Generates the dataset described by a configuration.
pub fn generate_dataset(cfg: &Config) -> Dataset {
    match cfg.dataset {
        DatasetKind::Independent => independent(cfg.n, cfg.dim, cfg.seed),
        DatasetKind::Anticorrelated => anticorrelated(cfg.n, cfg.dim, cfg.seed),
        DatasetKind::Household => household_like_scaled(cfg.n, cfg.seed),
        DatasetKind::Nba => {
            let n = cfg.n.min(wqrtq_data::realistic::NBA_N);
            nba_like_scaled(n, cfg.seed)
        }
    }
}

/// Builds the index and why-not case for a configuration (untimed).
pub fn prepare(cfg: &Config) -> Prepared {
    let ds = generate_dataset(cfg);
    let tree = RTree::bulk_load(ds.dim, &ds.coords);
    let spec = WorkloadSpec {
        k: cfg.k,
        num_why_not: cfg.num_why_not,
        target_rank: cfg
            .target_rank
            .min(tree.len().saturating_sub(1))
            .max(cfg.k + 1),
        rank_tolerance: 0.5,
    };
    let case = build_case(&tree, &spec, cfg.seed);
    Prepared {
        tree,
        view: DeltaView::plain(Arc::new(FlatPoints::from_row_major(ds.dim, &ds.coords))),
        case,
        sample_size: cfg.sample_size,
        seed: cfg.seed,
    }
}

/// Runs one algorithm on a prepared case, returning time and penalty.
pub fn run_algorithm(prep: &Prepared, algorithm: Algorithm) -> Measurement {
    let tol = Tolerances::paper_default();
    let start = Instant::now();
    let penalty = match algorithm {
        Algorithm::Mqp => {
            mqp_view(
                &prep.tree,
                &prep.view,
                &prep.case.q,
                prep.case.k,
                &prep.case.why_not,
            )
            .expect("MQP succeeds")
            .penalty
        }
        Algorithm::Mwk => {
            mwk_view(
                &prep.tree,
                &prep.view,
                &prep.case.q,
                prep.case.k,
                &prep.case.why_not,
                prep.sample_size,
                &tol,
                prep.seed,
            )
            .expect("MWK succeeds")
            .penalty
        }
        Algorithm::Mqwk => {
            mqwk_view(
                &prep.tree,
                &prep.view,
                &prep.case.q,
                prep.case.k,
                &prep.case.why_not,
                prep.sample_size,
                prep.sample_size,
                &tol,
                prep.seed,
            )
            .expect("MQWK succeeds")
            .penalty
        }
    };
    Measurement {
        algorithm,
        time: start.elapsed(),
        penalty,
    }
}

/// Runs all three algorithms on one prepared case.
pub fn run_all(prep: &Prepared) -> Vec<Measurement> {
    Algorithm::ALL
        .iter()
        .map(|&a| run_algorithm(prep, a))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Profile;

    fn tiny_config(dataset: DatasetKind) -> Config {
        let mut c = Config::default_for(dataset, Profile::Quick);
        c.n = 4_000;
        c.sample_size = 60;
        c
    }

    #[test]
    fn prepare_and_run_all_on_each_dataset_kind() {
        for kind in [
            DatasetKind::Independent,
            DatasetKind::Anticorrelated,
            DatasetKind::Household,
            DatasetKind::Nba,
        ] {
            let prep = prepare(&tiny_config(kind));
            assert!(!prep.tree.is_empty(), "{kind:?}");
            let ms = run_all(&prep);
            assert_eq!(ms.len(), 3);
            for m in &ms {
                assert!(m.penalty >= 0.0, "{kind:?} {:?}", m.algorithm);
                assert!(m.time.as_nanos() > 0);
            }
        }
    }

    #[test]
    fn time_ordering_matches_paper_shape() {
        // MQP must be the fastest and MQWK the slowest (Figures 7–12).
        let prep = prepare(&tiny_config(DatasetKind::Independent));
        let ms = run_all(&prep);
        let t = |a: Algorithm| ms.iter().find(|m| m.algorithm == a).expect("measured").time;
        assert!(t(Algorithm::Mqp) < t(Algorithm::Mqwk));
        assert!(t(Algorithm::Mwk) < t(Algorithm::Mqwk));
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Mqp.name(), "MQP");
        assert_eq!(Algorithm::ALL.len(), 3);
    }
}
