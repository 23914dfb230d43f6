//! Correctness checks. Every check returns `Err` with a description of
//! the first mismatch; any failed check fails the run.

use crate::inputs::Inputs;
use std::collections::HashMap;
use wqrtq_engine::{Engine, Plan, Request, Response};
use wqrtq_geom::{score, Point, Weight};
use wqrtq_query::brtopk::bichromatic_reverse_topk_naive;
use wqrtq_query::rank::rank_of_point_scan;
use wqrtq_query::topk::topk_scan;

/// A why-not plan must verify every step and recommend the minimum
/// penalty.
pub fn plan(plan: &Plan) -> Result<(), String> {
    if plan.steps.is_empty() {
        return Err("plan without steps".into());
    }
    if let Some(step) = plan.steps.iter().find(|s| !s.verified) {
        return Err(format!("{:?} step not verified", step.strategy));
    }
    let best = plan.recommended().refinement.penalty;
    if plan.steps.iter().any(|s| s.refinement.penalty < best) {
        return Err("recommended step is not the minimum penalty".into());
    }
    Ok(())
}

/// The scan oracles over one plain dataset: top-k by full sort, rank by
/// full count, bichromatic reverse top-k by a rank scan per weight.
pub struct Oracle<'a> {
    coords: &'a [f64],
    points: Vec<Point>,
    population: Vec<Weight>,
}

impl<'a> Oracle<'a> {
    /// An oracle over `coords` (`dim` columns) and a weight population.
    pub fn new(coords: &'a [f64], dim: usize, population: &[Vec<f64>]) -> Self {
        Oracle {
            coords,
            points: coords.chunks_exact(dim).map(Point::new).collect(),
            population: population.iter().map(|w| Weight::new(w.clone())).collect(),
        }
    }

    /// Checks one read reply against the scan oracles.
    pub fn check(&self, request: &Request, response: &Response) -> Result<(), String> {
        let expected = match request {
            Request::TopK { weight, k, .. } => Response::TopK(topk_scan(self.coords, weight, *k)),
            Request::WhyNotExplain {
                weight, q, limit, ..
            } => {
                let rank = rank_of_point_scan(self.coords, weight, q);
                let better = rank - 1;
                let culprits = topk_scan(self.coords, weight, better.min(*limit));
                debug_assert!(culprits.iter().all(|c| c.1 < score(weight, q)));
                Response::Explanation {
                    rank,
                    culprits,
                    truncated: better > *limit,
                }
            }
            Request::ReverseTopKBi { q, k, .. } => Response::ReverseTopKBi(
                bichromatic_reverse_topk_naive(&self.points, &self.population, q, *k),
            ),
            other => return Err(format!("no oracle for {:?}", other.kind())),
        };
        if *response != expected {
            return Err(format!(
                "{:?} answer differs from the scan oracle: got {response:?}, expected {expected:?}",
                request.kind()
            ));
        }
        Ok(())
    }
}

/// Every repeat of a hot-set request returns the first answer.
pub fn repeats(inputs: &Inputs, kept: &[(usize, Response)]) -> Result<usize, String> {
    let mut first: HashMap<usize, &Response> = HashMap::new();
    let mut repeats = 0;
    let mut sorted: Vec<&(usize, Response)> = kept.iter().collect();
    sorted.sort_by_key(|(i, _)| *i);
    for (i, response) in sorted {
        if let Some(h) = inputs.hot[*i] {
            match first.get(&h) {
                Some(prev) if *prev != response => {
                    return Err(format!(
                        "hot request {h} changed its answer at stream index {i}"
                    ))
                }
                Some(_) => repeats += 1,
                None => {
                    first.insert(h, response);
                }
            }
        }
    }
    Ok(repeats)
}

/// Rewrites the point ids of a reply through `map` (top-k entries and
/// explanation culprits; other replies carry no point ids).
pub fn remap_ids(response: Response, map: impl Fn(u32) -> Option<u32>) -> Result<Response, String> {
    let remap = |v: Vec<(u32, f64)>| {
        v.into_iter()
            .map(|(i, s)| {
                map(i)
                    .map(|j| (j, s))
                    .ok_or(format!("unknown point id {i}"))
            })
            .collect::<Result<Vec<_>, String>>()
    };
    Ok(match response {
        Response::TopK(v) => Response::TopK(remap(v)?),
        Response::Explanation {
            rank,
            culprits,
            truncated,
        } => Response::Explanation {
            rank,
            culprits: remap(culprits)?,
            truncated,
        },
        other => other,
    })
}

/// A dataset state in a form two engines can compare whatever their
/// compaction history: the live rows in canonical order (surviving base
/// rows by id, then appended rows), and the probe answers with point
/// ids replaced by positions in those rows.
#[derive(Debug, PartialEq)]
pub struct Canonical {
    /// Live rows, row-major, canonical order.
    pub rows: Vec<f64>,
    /// Probe answers over positions in `rows`.
    pub answers: Vec<Response>,
}

/// Answers `probes` on `engine` in canonical form. Retries while a
/// background compaction changes the dataset under the probes.
pub fn canonical(engine: &Engine, dataset: &str, probes: &[Request]) -> Result<Canonical, String> {
    for _ in 0..20 {
        let before = engine.catalog().epoch(dataset).map_err(|e| e.to_string())?;
        let handle = engine
            .catalog()
            .handle(dataset)
            .map_err(|e| e.to_string())?;
        let (rows, ids) = handle.view.materialize_row_major();
        let position: HashMap<u32, u32> = ids
            .iter()
            .enumerate()
            .map(|(p, &id)| (id, p as u32))
            .collect();
        let answers: Result<Vec<Response>, String> = probes
            .iter()
            .map(|probe| match engine.submit(probe.clone()) {
                Response::Error(e) => Err(format!("probe failed: {e}")),
                got => remap_ids(got, |id| position.get(&id).copied()),
            })
            .collect();
        if engine.catalog().epoch(dataset).map_err(|e| e.to_string())? == before {
            return answers.map(|answers| Canonical { rows, answers });
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    Err("dataset kept changing under the final probes".into())
}

/// The live engine's final state answers the probes as a fresh engine
/// built on its materialised live rows does. Returns that state.
pub fn final_state(live: &Engine, dataset: &str, inputs: &Inputs) -> Result<Canonical, String> {
    let state = canonical(live, dataset, &inputs.probes)?;
    let dim = live
        .catalog()
        .handle(dataset)
        .map_err(|e| e.to_string())?
        .dim;
    let fresh = Engine::builder().workers(1).build();
    fresh
        .register_dataset(dataset, dim, state.rows.clone())
        .map_err(|e| e.to_string())?;
    for (name, ws) in &inputs.weights {
        fresh
            .register_weights(name, ws.iter().map(|w| Weight::new(w.clone())).collect())
            .map_err(|e| e.to_string())?;
    }
    for (probe, got) in inputs.probes.iter().zip(&state.answers) {
        let want = fresh.submit(probe.clone());
        if *got != want {
            return Err(format!(
                "final state: {:?} probe differs from a fresh engine: got {got:?}, expected {want:?}",
                probe.kind()
            ));
        }
    }
    Ok(state)
}
