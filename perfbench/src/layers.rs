//! The traced run: replays the request stream one request at a time
//! through every layer — the wire (`Client::submit`), a twin engine
//! (`Engine::submit`) and the lower-layer calls on the twin's dataset
//! handle — and records a span around each call. No tracing is added
//! inside the program; each layer's own cost is its span minus its
//! child's.

use crate::checks;
use crate::inputs::{Inputs, Workload};
use crate::replay::{self, since, Call};
use crate::report::{json_str, metric, percentile, ratio, Metric};
use crate::stack::{self, ScratchDir};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use wqrtq_engine::{
    DatasetEpoch, DatasetHandle, Engine, Request, Response, StatsSnapshot, WeightSet,
};
use wqrtq_geom::flat::ScanStats;
use wqrtq_geom::{score, DeltaView, Weight};
use wqrtq_query::brtopk::{RtaScratch, RtaStats};
use wqrtq_rtree::{DominanceIndex, RTree};
use wqrtq_server::Client;

/// The datasets the why-not metrics are split by.
pub const PLAN_DATASETS: [&str; 4] = ["ind2", "ind3", "anti3", "ind5"];

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call (`wire`, `engine`, `core.mqwk`, ...).
    pub name: &'static str,
    /// Stream index of the request the span belongs to.
    pub request: usize,
    /// Start, nanoseconds after the replay began.
    pub start: u64,
    /// End, nanoseconds after the replay began.
    pub end: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn json(&self) -> String {
        format!(
            "{{\"name\": {}, \"request\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
            json_str(self.name),
            self.request,
            self.start,
            self.end,
            self.parent.map_or("null".into(), |p| p.to_string())
        )
    }
}

/// Running means.
#[derive(Default)]
struct Means(BTreeMap<String, (f64, u64)>);

impl Means {
    fn add(&mut self, name: impl Into<String>, value: f64) {
        let e = self.0.entry(name.into()).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(s, n)| s / *n as f64)
    }

    fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(s, _)| *s)
    }
}

/// What the traced run produced.
pub struct Traced {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Every span, in recording order.
    pub spans: Vec<Span>,
    /// Mismatches between layers that saw the same dataset state.
    pub mismatches: Vec<String>,
    /// Requests replayed.
    pub replayed: usize,
    /// Replayed request pairs whose answers were compared.
    pub compared: usize,
    /// The first write the wire engine and the twin applied on different
    /// bases; their reads are not compared after it.
    pub diverged_at: Option<usize>,
}

/// Counter deltas of the measured window, from two public snapshots.
pub struct WindowCounters<'a> {
    /// Snapshot before the window.
    pub before: &'a StatsSnapshot,
    /// Snapshot after the window.
    pub after: &'a StatsSnapshot,
    /// Overlay rows across datasets when the window ended.
    pub overlay_rows: usize,
    /// Untraced wire throughput of the window, requests per second.
    pub throughput: f64,
    /// Ack latencies of the window's writes, nanoseconds.
    pub write_latencies: &'a [u64],
}

/// The weight/threshold pairs a read asks the counting kernels about.
fn kernel_probes(
    request: &Request,
    population: &[Weight],
    i: usize,
    answer: &Response,
) -> Vec<(Vec<f64>, f64)> {
    match (request, answer) {
        (Request::TopK { weight, .. }, Response::TopK(top)) => top
            .last()
            .map(|&(_, s)| vec![(weight.clone(), s)])
            .unwrap_or_default(),
        (Request::WhyNotExplain { weight, q, .. }, _) => vec![(weight.clone(), score(weight, q))],
        (Request::ReverseTopKBi { q, .. }, _) if !population.is_empty() => {
            let w = population[i % population.len()].as_slice().to_vec();
            let t = score(&w, q);
            vec![(w, t)]
        }
        (Request::WhyNot { q, why_not, .. }, _) => {
            why_not.iter().map(|w| (w.clone(), score(w, q))).collect()
        }
        _ => Vec::new(),
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &mut self,
        name: &'static str,
        request: usize,
        start: Instant,
        nanos: u64,
        parent: Option<usize>,
    ) -> usize {
        let start = self.at(start);
        self.spans.push(Span {
            name,
            request,
            start,
            end: start + nanos,
            parent,
        });
        self.spans.len() - 1
    }

    fn push_call(&mut self, call: &Call, base: Instant, request: usize, parent: usize) {
        let start = self.at(base) + call.start;
        self.spans.push(Span {
            name: call.name,
            request,
            start,
            end: start + call.nanos,
            parent: Some(parent),
        });
    }
}

/// Runs the traced replay of `inputs` for about `seconds`.
pub fn traced(
    inputs: &Inputs,
    root: &Path,
    seconds: u64,
    window: &WindowCounters<'_>,
) -> Result<Traced, String> {
    let mut m = Means::default();
    // rtree: the builds set-up pays, one dataset at a time.
    let mut bulk_s = 0.0;
    let mut mask_s = 0.0;
    for ds in &inputs.datasets {
        let t = Instant::now();
        let tree = RTree::bulk_load(ds.dim, &ds.coords);
        bulk_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let dom = DominanceIndex::build(&tree);
        mask_s += t.elapsed().as_secs_f64();
        std::hint::black_box((tree.len(), dom.cap()));
    }

    let mutate = inputs.workload == Workload::Mutate;
    let wire_dir = ScratchDir::new(root, "trace-wire").map_err(|e| e.to_string())?;
    let twin_dir = ScratchDir::new(root, "trace-twin").map_err(|e| e.to_string())?;
    let (server, _) = stack::setup(inputs, mutate.then(|| wire_dir.path()))?;
    let wire_engine = server.engine().clone();
    let twin = stack::engine_builder(inputs.workload, mutate.then(|| twin_dir.path()))
        .try_build()
        .map_err(|e| format!("twin engine: {e}"))?;
    let coords = inputs.datasets.iter().map(|d| d.coords.clone()).collect();
    stack::load(&twin, inputs, coords)?;
    let mut client = Client::connect_v2(server.local_addr()).map_err(|e| e.to_string())?;

    let population: Vec<Weight> = match inputs.weights.first() {
        Some((name, _)) => twin
            .catalog()
            .weights(name)
            .map(|w| w.to_vec())
            .unwrap_or_default(),
        None => Vec::new(),
    };
    let mut rec = Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut mismatches = Vec::new();
    let mut compared = 0usize;
    let mut diverged_at = None;
    let mut scratch = RtaScratch::new();
    let mut scan = ScanStats::default();
    let mut rta = RtaStats::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut replayed = 0usize;
    for (i, request) in inputs.stream.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        replayed += 1;
        let ds = request.dataset();
        let wire_epoch = wire_engine.catalog().epoch(ds).ok();
        let t = Instant::now();
        let wire = client
            .submit(request)
            .map_err(|e| format!("wire request {i}: {e}"))?;
        let wire_ns = since(t);
        let wire_span = rec.push("wire", i, t, wire_ns, None);
        let twin_epoch = twin.catalog().epoch(ds).ok();
        let t = Instant::now();
        let engine = twin.submit(request.clone());
        let engine_ns = since(t);
        let engine_span = rec.push("engine", i, t, engine_ns, Some(wire_span));
        m.add("server.self", wire_ns.saturating_sub(engine_ns) as f64);
        if wire.is_error() || engine.is_error() {
            mismatches.push(format!(
                "request {i} failed: wire {wire:?}, engine {engine:?}"
            ));
            continue;
        }
        // Answers are comparable when both engines held the same dataset
        // state throughout (asynchronous compactions may land at
        // different points of the two replays). A delete names rows by
        // position and a compaction renumbers them, so once a write lands
        // on different bases in the two engines their rows may differ
        // even where their epochs agree again.
        let twin_after = twin.catalog().epoch(ds).ok();
        let wire_after = wire_engine.catalog().epoch(ds).ok();
        let base = |e: Option<DatasetEpoch>| e.map(|e| e.base);
        let aligned = wire_epoch == twin_epoch
            && base(wire_epoch) == base(wire_after)
            && base(twin_epoch) == base(twin_after);
        if request.kind().is_mutation() && !aligned && diverged_at.is_none() {
            diverged_at = Some(i);
        }
        let same_state = diverged_at.is_none()
            && wire_epoch == twin_epoch
            && wire_after == twin_after
            && twin_epoch == twin_after;
        if same_state || request.kind().is_mutation() {
            compared += 1;
            if wire != engine {
                mismatches.push(format!("request {i}: wire and engine answers differ"));
            }
        }
        if request.kind().is_mutation() {
            continue;
        }
        let handle = twin.catalog().handle(ds).map_err(|e| e.to_string())?;
        let base = Instant::now();
        let lowered = replay::lower(twin.catalog(), &handle, request, &mut scratch)?;
        let lower_ns: u64 = lowered.calls.iter().map(|c| c.nanos).sum();
        m.add("engine.self", engine_ns.saturating_sub(lower_ns) as f64);
        for call in &lowered.calls {
            rec.push_call(call, base, i, engine_span);
            record_call(&mut m, call, ds);
        }
        if matches!(request, Request::WhyNot { .. }) {
            m.add("core.advise", lower_ns as f64);
            if PLAN_DATASETS.contains(&ds) {
                m.add(format!("core.advise.{ds}"), lower_ns as f64);
            }
        }
        if let Some(nodes) = lowered.topk_nodes {
            m.add("rtree.nodes_per_topk", nodes as f64);
        }
        if let Some(s) = lowered.rta {
            rta.merge(s);
        }
        let settled = twin_epoch == twin_after && twin_after == Some(handle.epoch);
        if settled && twin.catalog().epoch(ds).ok() == Some(handle.epoch) {
            compared += 1;
            if lowered.response != engine {
                mismatches.push(format!(
                    "request {i}: lower layers answer {:?}, engine {engine:?}",
                    lowered.response
                ));
            }
        }
        query_layer(
            &mut m,
            &mut rec,
            &handle,
            request,
            i,
            engine_span,
            &population,
            &mut scratch,
            &mut rta,
            &mut mismatches,
        )?;
        for (w, threshold) in kernel_probes(request, &population, i, &engine) {
            let t = Instant::now();
            let base_count = handle.flat.count_better_than(&w, threshold);
            let ns = since(t);
            rec.push("geom.count", i, t, ns, Some(engine_span));
            m.add(
                "geom.count_ns_per_point",
                ns as f64 / handle.flat.len().max(1) as f64,
            );
            let t = Instant::now();
            let view_count = handle.view.count_better_than(&w, threshold);
            let ns = since(t);
            rec.push("geom.view_count", i, t, ns, Some(engine_span));
            m.add(
                "geom.view_count_ns_per_point",
                ns as f64 / handle.view.live_len().max(1) as f64,
            );
            let (again, stats) =
                handle
                    .flat
                    .count_better_than_capped_stats(&w, threshold, usize::MAX);
            scan.blocks_visited += stats.blocks_visited;
            scan.blocks_skipped += stats.blocks_skipped;
            scan.quantized_blocks += stats.quantized_blocks;
            scan.quantized_fallbacks += stats.quantized_fallbacks;
            if again != base_count {
                mismatches.push(format!("request {i}: count kernels disagree"));
            }
            // The view's count is the explanation's rank − 1.
            if let Response::Explanation { rank, .. } = &engine {
                if settled && view_count + 1 != *rank {
                    mismatches.push(format!(
                        "request {i}: view count {view_count} vs rank {rank}"
                    ));
                }
            }
        }
    }
    let replay_s = rec.origin.elapsed().as_secs_f64();
    if mutate {
        // Whatever their histories, each engine's final rows must answer
        // the probes as a fresh engine built on them does; with one history
        // the two states must be equal.
        let ds = &inputs.datasets[0].name;
        match (
            checks::final_state(&wire_engine, ds, inputs),
            checks::final_state(&twin, ds, inputs),
        ) {
            (Ok(wire), Ok(twin)) => {
                if diverged_at.is_none() && wire != twin {
                    mismatches.push("wire and twin engines end in different states".into());
                }
            }
            (wire, twin) => mismatches.extend(wire.err().into_iter().chain(twin.err())),
        }
    }
    drop(client);
    server.shutdown();

    let storage = if mutate {
        storage_probe(inputs, root)?
    } else {
        StorageProbe::default()
    };
    mismatches.extend(storage.mismatches.iter().cloned());

    let c = &window.after.metrics;
    let b = &window.before.metrics;
    let (sa, sb) = (
        window.after.server.unwrap_or_default(),
        window.before.server.unwrap_or_default(),
    );
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let hits = d(c.cache.hits, b.cache.hits);
    let misses = d(c.cache.misses, b.cache.misses);
    let done = d(c.catalog.compactions, b.catalog.compactions);
    let abandoned = d(
        c.catalog.compactions_abandoned,
        b.catalog.compactions_abandoned,
    );
    let traced_rps = replayed as f64 / replay_s.max(1e-9);

    let mut metrics = vec![
        metric("server.self_us", m.mean("server.self") / 1e3, "us"),
        metric(
            "server.frames_per_read",
            ratio(
                d(sa.frames_in, sb.frames_in),
                d(sa.read_syscalls, sb.read_syscalls),
            ),
            "ratio",
        ),
        metric(
            "server.frames_per_write",
            ratio(
                d(sa.frames_out, sb.frames_out),
                d(sa.write_syscalls, sb.write_syscalls),
            ),
            "ratio",
        ),
        metric(
            "server.busy_rejections",
            d(sa.busy_rejections, sb.busy_rejections),
            "count",
        ),
        metric("engine.self_us", m.mean("engine.self") / 1e3, "us"),
        metric(
            "engine.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        metric("engine.overlay_rows", window.overlay_rows as f64, "count"),
        metric(
            "engine.compaction_useful_ratio",
            ratio(done, done + abandoned),
            "ratio",
        ),
        metric(
            "engine.index_builds",
            d(c.catalog.index_builds, b.catalog.index_builds),
            "count",
        ),
        metric("engine.compact_s", storage.compact_s, "s"),
        metric("storage.append_us", storage.append_us, "us"),
        metric(
            "storage.write_ack_p50_ms",
            percentile(window.write_latencies, 0.5) as f64 / 1e6,
            "ms",
        ),
        metric(
            "storage.write_ack_p90_ms",
            percentile(window.write_latencies, 0.9) as f64 / 1e6,
            "ms",
        ),
        metric(
            "storage.wal_appends",
            d(c.catalog.wal_appends, b.catalog.wal_appends),
            "count",
        ),
        metric(
            "storage.snapshot_writes",
            d(c.catalog.snapshot_writes, b.catalog.snapshot_writes),
            "count",
        ),
        metric(
            "storage.bytes_per_user_byte",
            storage.bytes_per_user_byte,
            "ratio",
        ),
        metric("storage.checkpoint_s", storage.checkpoint_s, "s"),
        metric("storage.recovery_s", storage.recovery_s, "s"),
    ];
    for step in ["advise", "explain", "mqp", "mwk", "mqwk"] {
        metrics.push(metric(
            format!("core.{step}_ms"),
            m.mean(&format!("core.{step}")) / 1e6,
            "ms",
        ));
        for ds in PLAN_DATASETS {
            metrics.push(metric(
                format!("core.{step}_ms.{ds}"),
                m.mean(&format!("core.{step}.{ds}")) / 1e6,
                "ms",
            ));
        }
    }
    metrics.extend([
        metric(
            "core.mqwk_share",
            ratio(m.sum("core.mqwk"), m.sum("core.advise")),
            "ratio",
        ),
        metric("query.topk_us", m.mean("query.topk") / 1e3, "us"),
        metric(
            "query.topk_plain_us",
            m.mean("query.topk_plain") / 1e3,
            "us",
        ),
        metric("query.rta_us", m.mean("query.rta") / 1e3, "us"),
        metric("query.rta_plain_us", m.mean("query.rta_plain") / 1e3, "us"),
        metric(
            "query.rta_prune_ratio",
            ratio(
                rta.buffer_prunes as f64,
                (rta.buffer_prunes + rta.tree_verifications) as f64,
            ),
            "ratio",
        ),
        metric("rtree.bulk_load_s", bulk_s, "s"),
        metric("rtree.mask_build_s", mask_s, "s"),
        metric(
            "rtree.nodes_per_topk",
            m.mean("rtree.nodes_per_topk"),
            "count",
        ),
        metric(
            "geom.count_ns_per_point",
            m.mean("geom.count_ns_per_point"),
            "ns",
        ),
        metric(
            "geom.view_count_ns_per_point",
            m.mean("geom.view_count_ns_per_point"),
            "ns",
        ),
        metric(
            "geom.quantized_fallback_ratio",
            ratio(
                scan.quantized_fallbacks as f64,
                scan.quantized_blocks as f64,
            ),
            "ratio",
        ),
        metric(
            "geom.bound_skip_ratio",
            ratio(
                scan.blocks_skipped as f64,
                (scan.blocks_skipped + scan.blocks_visited) as f64,
            ),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(window.throughput, traced_rps),
            "ratio",
        ),
    ]);
    Ok(Traced {
        metrics,
        spans: rec.spans,
        mismatches,
        replayed,
        compared,
        diverged_at,
    })
}

/// Folds one lower-layer call into the per-layer means.
fn record_call(m: &mut Means, call: &Call, ds: &str) {
    let split = PLAN_DATASETS.contains(&ds);
    match call.name {
        "core.explain" | "core.mqp" | "core.mwk" | "core.mqwk" => {
            m.add(call.name, call.nanos as f64);
            if split {
                m.add(format!("{}.{ds}", call.name), call.nanos as f64);
            }
        }
        "query.topk" | "query.rta" => m.add(call.name, call.nanos as f64),
        _ => {}
    }
}

/// The query layer around one request, with the run's overlay and
/// without it: top-k and RTA for reads that carry them, and for a
/// why-not plan the reverse top-k query it questions — RTA over the
/// why-not vectors must return none of them — plus top-k under each.
#[allow(clippy::too_many_arguments)]
fn query_layer(
    m: &mut Means,
    rec: &mut Recorder,
    handle: &DatasetHandle,
    request: &Request,
    i: usize,
    parent: usize,
    population: &[Weight],
    scratch: &mut RtaScratch,
    rta: &mut RtaStats,
    mismatches: &mut Vec<String>,
) -> Result<(), String> {
    let plain = DatasetHandle {
        view: DeltaView::plain(handle.flat.clone()),
        ..handle.clone()
    };
    let topk = |m: &mut Means, rec: &mut Recorder, w: &[f64], k: usize, timed_live: bool| {
        if timed_live {
            let t = Instant::now();
            let (_, nodes) = replay::topk(handle, w, k);
            let ns = since(t);
            rec.push("query.topk", i, t, ns, Some(parent));
            m.add("query.topk", ns as f64);
            m.add("rtree.nodes_per_topk", nodes as f64);
        }
        let t = Instant::now();
        let _ = replay::topk(&plain, w, k);
        let ns = since(t);
        rec.push("query.topk_plain", i, t, ns, Some(parent));
        m.add("query.topk_plain", ns as f64);
    };
    match request {
        Request::TopK { weight, k, .. } => topk(m, rec, weight, *k, false),
        Request::ReverseTopKBi {
            weights: WeightSet::Named(_),
            q,
            k,
            ..
        } => {
            let t = Instant::now();
            let _ = replay::rta(&plain, population, q, *k, scratch);
            let ns = since(t);
            rec.push("query.rta_plain", i, t, ns, Some(parent));
            m.add("query.rta_plain", ns as f64);
        }
        Request::WhyNot { q, k, why_not, .. } => {
            for w in why_not {
                topk(m, rec, w, *k, true);
            }
            let wm: Vec<Weight> = why_not.iter().map(|w| Weight::new(w.clone())).collect();
            for (name, h) in [("query.rta", handle), ("query.rta_plain", &plain)] {
                let t = Instant::now();
                let (members, stats) = replay::rta(h, &wm, q, *k, scratch);
                let ns = since(t);
                if name == "query.rta" {
                    rta.merge(stats);
                }
                rec.push(name, i, t, ns, Some(parent));
                m.add(name, ns as f64);
                if !members.is_empty() {
                    mismatches.push(format!(
                        "request {i}: why-not vectors {members:?} already admit q"
                    ));
                }
            }
        }
        _ => {}
    }
    Ok(())
}

#[derive(Default)]
struct StorageProbe {
    append_us: f64,
    compact_s: f64,
    checkpoint_s: f64,
    recovery_s: f64,
    bytes_per_user_byte: f64,
    mismatches: Vec<String>,
}

/// The storage layer under the mutate stream's writes: each write is
/// applied to a durable engine and an in-memory one with compaction off,
/// so the WAL only grows. Then the durable engine is reopened (recovery)
/// and checkpointed, and the in-memory one compacts its overlay.
fn storage_probe(inputs: &Inputs, root: &Path) -> Result<StorageProbe, String> {
    let dataset = "mutate";
    let writes: Vec<&Request> = inputs.stream_writes().collect();
    let ds = inputs
        .datasets
        .iter()
        .find(|d| d.name == dataset)
        .ok_or("mutate dataset missing")?;
    let dir = ScratchDir::new(root, "storage").map_err(|e| e.to_string())?;
    let durable_builder = || {
        Engine::builder()
            .data_dir(dir.path())
            .fsync(stack::FSYNC)
            .overlay_limit(usize::MAX)
    };
    let durable = durable_builder().try_build().map_err(|e| e.to_string())?;
    let memory = Engine::builder().overlay_limit(usize::MAX).build();
    for e in [&durable, &memory] {
        e.register_dataset(dataset, ds.dim, ds.coords.clone())
            .map_err(|e| e.to_string())?;
    }
    let bytes_before = dir.bytes();
    let mut user_bytes = 0usize;
    let mut m = Means::default();
    // Stop early on long streams: a few thousand writes fix the means.
    for request in writes.iter().take(4_000) {
        for (name, engine) in [("durable", &durable), ("memory", &memory)] {
            let t = Instant::now();
            let out = match request {
                Request::Append { points, .. } => engine.append_points(dataset, points),
                Request::Delete { ids, .. } => engine.delete_points(dataset, ids),
                _ => continue,
            };
            let ns = since(t) as f64;
            out.map_err(|e| format!("storage probe {name}: {e}"))?;
            if matches!(request, Request::Append { .. }) {
                m.add(name, ns);
            }
        }
        user_bytes += match request {
            Request::Append { points, .. } => points.len() * 8,
            Request::Delete { ids, .. } => ids.len() * 4,
            _ => 0,
        };
    }
    let bytes_per_user_byte = ratio((dir.bytes() - bytes_before) as f64, user_bytes as f64);
    let probes: Vec<Request> = (0..16u32)
        .map(|j| {
            let t = f64::from(j + 1) / 17.0;
            Request::TopK {
                dataset: dataset.into(),
                weight: std::iter::once(t)
                    .chain(std::iter::repeat_n(
                        (1.0 - t) / (ds.dim - 1) as f64,
                        ds.dim - 1,
                    ))
                    .collect(),
                k: 10,
            }
        })
        .collect();
    let expected = checks::canonical(&memory, dataset, &probes)?;
    drop(durable);
    let t = Instant::now();
    let recovered = durable_builder()
        .try_build()
        .map_err(|e| format!("recovery: {e}"))?;
    let recovery_s = t.elapsed().as_secs_f64();
    let mut mismatches = Vec::new();
    if checks::canonical(&recovered, dataset, &probes)? != expected {
        mismatches.push("storage probe: recovered state differs from the in-memory one".into());
    }
    let t = Instant::now();
    recovered
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    memory
        .compact(dataset)
        .map_err(|e| format!("compact: {e}"))?;
    let compact_s = t.elapsed().as_secs_f64();
    Ok(StorageProbe {
        append_us: (m.mean("durable") - m.mean("memory")) / 1e3,
        compact_s,
        checkpoint_s,
        recovery_s,
        bytes_per_user_byte,
        mismatches,
    })
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", s.json())?;
    }
    out.flush()
}

/// Replay counts for the report line.
pub fn summary(traced: &Traced) -> String {
    format!(
        "{{\"replayed\": {}, \"compared\": {}, \"diverged_at\": {}, \"spans\": {}}}",
        traced.replayed,
        traced.compared,
        traced.diverged_at.map_or("null".into(), |i| i.to_string()),
        traced.spans.len()
    )
}
