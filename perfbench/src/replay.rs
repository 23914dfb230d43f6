//! Answers a read request by calling the layers below the engine
//! directly on a [`DatasetHandle`] — the same calls the engine's workers
//! make — and times each call. The traced run and the correctness checks
//! compare these answers with the engine's and the wire's.

use std::time::Instant;
use wqrtq_core::advisor::{RankedStep, StrategyKind};
use wqrtq_core::explain::Explanation;
use wqrtq_core::framework::{RefinedQuery, Wqrtq, WqrtqAnswer};
use wqrtq_engine::{
    Catalog, DatasetHandle, Plan, PlanExplanation, PlanStep, Refinement, Request, Response,
    WeightSet,
};
use wqrtq_geom::Weight;
use wqrtq_query::brtopk::{rta_over_order_view_masked, rta_sorted_order, RtaScratch, RtaStats};
use wqrtq_query::topk::ViewBestFirst;

/// Nanoseconds since `t`.
pub fn since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One timed lower-layer call inside a request's replay.
#[derive(Clone, Debug)]
pub struct Call {
    /// Span name (`core.explain`, `query.topk`, ...).
    pub name: &'static str,
    /// Start, nanoseconds after the replay of the request began.
    pub start: u64,
    /// Duration, nanoseconds.
    pub nanos: u64,
}

/// The lower-layer answer to one read, with its calls and work counters.
#[derive(Debug)]
pub struct Lowered {
    /// The answer, in the engine's response vocabulary.
    pub response: Response,
    /// Every timed call, in order.
    pub calls: Vec<Call>,
    /// Index nodes the top-k traversal expanded (top-k only).
    pub topk_nodes: Option<usize>,
    /// RTA work counters (bichromatic only).
    pub rta: Option<RtaStats>,
}

struct Clock {
    origin: Instant,
    calls: Vec<Call>,
}

impl Clock {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let start =
            u64::try_from(started.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX);
        self.calls.push(Call {
            name,
            start,
            nanos: since(started),
        });
        out
    }
}

/// Top-k over the handle's base index and overlay, as the engine's
/// `TopK` path walks it.
pub fn topk(handle: &DatasetHandle, weight: &[f64], k: usize) -> (Vec<(u32, f64)>, usize) {
    let mut bf = ViewBestFirst::new(&handle.index, &handle.view, weight);
    let mut out = Vec::with_capacity(k.min(handle.live_len()));
    while out.len() < k {
        match bf.next_entry() {
            Some(p) => out.push((p.id, p.score)),
            None => break,
        }
    }
    (out, bf.nodes_visited())
}

/// Bichromatic reverse top-k by RTA over the handle, members ascending.
pub fn rta(
    handle: &DatasetHandle,
    population: &[Weight],
    q: &[f64],
    k: usize,
    scratch: &mut RtaScratch,
) -> (Vec<usize>, RtaStats) {
    let order = rta_sorted_order(population);
    let (mut members, stats) = rta_over_order_view_masked(
        &handle.index,
        &handle.view,
        population,
        &order,
        q,
        k,
        handle.dom.as_deref(),
        scratch,
    );
    members.sort_unstable();
    (members, stats)
}

/// Answers `request` (a read) through the lower layers of `handle`.
pub fn lower(
    catalog: &Catalog,
    handle: &DatasetHandle,
    request: &Request,
    scratch: &mut RtaScratch,
) -> Result<Lowered, String> {
    let mut clock = Clock {
        origin: Instant::now(),
        calls: Vec::new(),
    };
    let mut topk_nodes = None;
    let mut rta_stats = None;
    let response = match request {
        Request::TopK { weight, k, .. } => {
            let (out, nodes) = clock.time("query.topk", || topk(handle, weight, *k));
            topk_nodes = Some(nodes);
            Response::TopK(out)
        }
        Request::WhyNotExplain {
            weight, q, limit, ..
        } => {
            let (e, _) = clock.time("core.explain", || {
                wqrtq_core::explain_view_with_stats(&handle.index, &handle.view, weight, q, *limit)
            });
            Response::Explanation {
                rank: e.rank,
                culprits: e.culprits.iter().map(|c| (c.id, c.score)).collect(),
                truncated: e.truncated,
            }
        }
        Request::ReverseTopKBi { weights, q, k, .. } => {
            let population = match weights {
                WeightSet::Named(name) => catalog.weights(name).map_err(|e| e.to_string())?,
                WeightSet::Inline(ws) => {
                    std::sync::Arc::new(ws.iter().map(|w| Weight::new(w.clone())).collect())
                }
            };
            let (members, stats) =
                clock.time("query.rta", || rta(handle, &population, q, *k, scratch));
            rta_stats = Some(stats);
            Response::ReverseTopKBi(members)
        }
        Request::WhyNot { .. } => Response::Plan(plan(handle, request, &mut clock)?),
        other => return Err(format!("no lower-layer replay for {:?}", other.kind())),
    };
    Ok(Lowered {
        response,
        calls: clock.calls,
        topk_nodes,
        rta: rta_stats,
    })
}

/// Replays a `WhyNot` request step by step through the core facade:
/// validation, one explanation per why-not vector, then each strategy's
/// `refine_step`, ranked cheapest-first — the advisor's own sequence.
fn plan(handle: &DatasetHandle, request: &Request, clock: &mut Clock) -> Result<Plan, String> {
    let Request::WhyNot {
        q,
        k,
        why_not,
        options,
        ..
    } = request
    else {
        return Err("not a plan request".into());
    };
    let why_not: Vec<Weight> = why_not.iter().map(|w| Weight::new(w.clone())).collect();
    let (wqrtq, ranks) = clock.time("core.validate", || {
        let wqrtq = Wqrtq::with_view(handle.index.clone(), handle.view.clone(), q, *k)
            .map_err(|e| e.to_string())?
            .with_tolerances(options.tol);
        let ranks = wqrtq
            .validate_why_not(&why_not)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((wqrtq, ranks))
    })?;
    let k_max = ranks.iter().copied().max().ok_or("empty why-not set")?;
    let explanations: Vec<Explanation> = why_not
        .iter()
        .map(|w| clock.time("core.explain", || wqrtq.explain(w, options.culprit_limit)))
        .collect();
    let mut steps = Vec::new();
    for strategy in StrategyKind::ALL {
        if !options.strategies.contains(&strategy) {
            continue;
        }
        let name = match strategy {
            StrategyKind::Mqp => "core.mqp",
            StrategyKind::Mwk => "core.mwk",
            StrategyKind::Mqwk => "core.mqwk",
        };
        let step = clock
            .time(name, || {
                wqrtq.refine_step(&why_not, strategy, options, &ranks)
            })
            .map_err(|e| e.to_string())?;
        steps.push(step);
    }
    steps.sort_by(|a, b| a.answer.penalty.total_cmp(&b.answer.penalty));
    Ok(Plan {
        explanations: explanations.iter().map(plan_explanation).collect(),
        k_max,
        steps: steps.iter().map(plan_step).collect(),
    })
}

fn plan_explanation(e: &Explanation) -> PlanExplanation {
    PlanExplanation {
        rank: e.rank,
        culprits: e.culprits.iter().map(|c| (c.id, c.score)).collect(),
        truncated: e.truncated,
    }
}

fn plan_step(step: &RankedStep) -> PlanStep {
    PlanStep {
        strategy: step.strategy,
        refinement: refinement(step.answer.clone()),
        breakdown: step.breakdown,
        verified: step.verified,
        exact: step.stats.exact,
        sample_size: step.stats.sample_size,
        query_samples: step.stats.query_samples,
    }
}

fn refinement(answer: WqrtqAnswer) -> Refinement {
    let raw = |ws: Vec<Weight>| ws.into_iter().map(Weight::into_vec).collect::<Vec<_>>();
    let (q_prime, why_not, k) = match answer.refined {
        RefinedQuery::QueryPoint { q_prime } => (Some(q_prime), None, None),
        RefinedQuery::Preferences { why_not, k } => (None, Some(raw(why_not)), Some(k)),
        RefinedQuery::Everything {
            q_prime,
            why_not,
            k,
        } => (Some(q_prime), Some(raw(why_not)), Some(k)),
    };
    Refinement {
        q_prime,
        why_not,
        k,
        penalty: answer.penalty,
    }
}
