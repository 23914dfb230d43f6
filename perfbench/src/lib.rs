//! The repository's benchmark: three workloads driven over loopback TCP
//! through `wqrtq_server::Client` against an in-process
//! `wqrtq_server::Server`, correctness checks on the answers, and a
//! traced per-layer replay of the same request stream.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the run's context (machine, code, seed) and report.

mod checks;
mod closed_loop;
mod inputs;
mod layers;
mod replay;
mod report;
mod rng;
mod stack;
#[cfg(test)]
mod tests;

use inputs::{Inputs, Scale, Workload};
use report::{metric, percentile, Metric};
use stack::ScratchDir;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wqrtq_engine::{Response, StatsSnapshot};
use wqrtq_server::{Client, Server};

/// Times set-up is repeated in a run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Serve replies checked against the scan oracles (every n-th request).
const ORACLE_STRIDE: usize = 509;
/// At most this many serve replies are checked against the (slow) scan
/// oracles.
const ORACLE_CHECKS: usize = 150;
/// Why-not plans replayed through the core layer in an untraced run.
const CORE_REPLAYS: usize = 4;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Whether to run the traced per-layer replay instead of reporting
    /// end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where the run writes its data directories and spans.
    pub out_dir: PathBuf,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            scale: Scale::full(),
            out_dir: PathBuf::from(".perfbench"),
        })
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Measured requests sent.
    pub attempted: usize,
    /// Measured requests that failed.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Failed checks.
    pub problems: Vec<String>,
    /// Extra detail for the report line (JSON object).
    pub detail: String,
}

fn stats(addr: std::net::SocketAddr) -> Result<StatsSnapshot, String> {
    Client::connect(addr)
        .map_err(|e| e.to_string())?
        .stats()
        .map_err(|e| e.to_string())
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Runs one workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let inputs = Inputs::generate(args.workload, args.seed, args.seconds, &args.scale);
    let root = args
        .out_dir
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let outcome = run_in(args, &inputs, &root);
    let _ = std::fs::remove_dir_all(&root);
    outcome
}

fn run_in(args: &Args, inputs: &Inputs, root: &Path) -> Result<Outcome, String> {
    let mutate = args.workload == Workload::Mutate;
    let mut problems = Vec::new();

    // Set-up, repeated; the last server serves the run.
    let mut setups = Vec::new();
    let mut serving = None;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    for rep in 0..repeats {
        let dir = ScratchDir::new(root, &format!("data-{rep}")).map_err(|e| e.to_string())?;
        let (server, seconds) = stack::setup(inputs, mutate.then(|| dir.path()))?;
        setups.push(seconds);
        if let Some((old, _)) = serving.replace((server, dir)) {
            old.shutdown();
        }
    }
    let (server, data_dir) = serving.ok_or("no set-up ran")?;
    let addr = server.local_addr();
    let conns = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .min(2);

    // Untimed warm-up, then the measured window between two snapshots.
    let keep_none = |_: usize| false;
    let warm = closed_loop::run(&closed_loop::Load {
        addr,
        stream: &inputs.stream,
        range: 0..inputs.warmup,
        duration: None,
        wrap: false,
        connections: conns,
        depth: args.workload.depth(),
        keep: &keep_none,
    })?;
    if warm.failed > 0 {
        problems.push(format!("warm-up failures: {:?}", warm.errors));
    }
    let keep = |i: usize| match args.workload {
        Workload::WhyNot => true,
        Workload::Serve => {
            (inputs.hot[i].is_some() && i.is_multiple_of(4)) || i.is_multiple_of(ORACLE_STRIDE)
        }
        Workload::Mutate => inputs.stream[i].kind().is_mutation(),
    };
    // A traced run splits its time between this window (for the counter
    // deltas and the untraced throughput) and the replay.
    let window_s = if args.trace {
        args.seconds.div_ceil(2)
    } else {
        args.seconds
    };
    let before = stats(addr)?;
    let window = closed_loop::run(&closed_loop::Load {
        addr,
        stream: &inputs.stream,
        range: inputs.warmup..inputs.stream.len(),
        duration: Some(Duration::from_secs(window_s)),
        // Serve and why-not requests repeat only after far more than the
        // result cache holds, so a second pass still misses the cache;
        // mutate's deletes must never repeat.
        wrap: !mutate,
        connections: conns,
        depth: args.workload.depth(),
        keep: &keep,
    })?;
    let after = stats(addr)?;
    if window.failed > 0 {
        problems.push(format!(
            "{} of {} requests failed: {:?}",
            window.failed, window.attempted, window.errors
        ));
    }
    let overlay_rows: usize = inputs
        .datasets
        .iter()
        .filter_map(|d| server.engine().catalog().overlay_size(&d.name).ok())
        .map(|(overlay, _)| overlay)
        .sum();

    let mut detail = Vec::new();
    match args.workload {
        Workload::WhyNot => {
            check_whynot(&server, inputs, &window.kept, &mut problems, &mut detail);
            let by_dataset: Vec<String> = inputs
                .datasets
                .iter()
                .map(|d| {
                    let lat: Vec<u64> = window
                        .indices
                        .iter()
                        .zip(&window.latencies)
                        .filter(|(i, _)| inputs.stream[**i].dataset() == d.name)
                        .map(|(_, l)| *l)
                        .collect();
                    format!(
                        "\"{}\": [{}, {}, {}]",
                        d.name,
                        lat.len(),
                        ms(percentile(&lat, 0.5)),
                        ms(percentile(&lat, 0.9))
                    )
                })
                .collect();
            detail.push(format!(
                "\"plans_n_p50_p90_ms\": {{{}}}",
                by_dataset.join(", ")
            ));
        }
        Workload::Serve => check_serve(inputs, &window.kept, &mut problems, &mut detail),
        // Checked below: the recovery check takes the server down.
        Workload::Mutate => {}
    }
    if mutate {
        let (a, b) = (&after.metrics.catalog, &before.metrics.catalog);
        let compactions = a.compactions - b.compactions;
        detail.push(format!(
            "\"compactions\": {compactions}, \"compactions_abandoned\": {}, \"index_builds\": {}",
            a.compactions_abandoned - b.compactions_abandoned,
            a.index_builds - b.index_builds
        ));
        if compactions < args.scale.min_compactions {
            problems.push(format!(
                "only {compactions} compactions completed in the window (need {})",
                args.scale.min_compactions
            ));
        }
        check_mutate(
            server,
            inputs,
            &warm,
            &window,
            data_dir.path(),
            &mut problems,
        )?;
    } else {
        server.shutdown();
    }

    let metrics = if args.trace {
        let traced = layers::traced(
            inputs,
            root,
            args.seconds / 2,
            &layers::WindowCounters {
                before: &before,
                after: &after,
                overlay_rows,
                throughput: window.throughput(),
                write_latencies: &window.write_latencies,
            },
        )?;
        problems.extend(traced.mismatches.iter().take(8).cloned());
        let spans = args.out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        layers::write_spans(&spans, &traced.spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        detail.push(format!("\"trace\": {}", layers::summary(&traced)));
        detail.push(format!(
            "\"spans_file\": {}",
            report::json_str(&spans.to_string_lossy())
        ));
        traced.metrics
    } else {
        let lat = &window.latencies;
        vec![
            metric("setup_s", report::median(&setups), "s"),
            metric("throughput_rps", window.throughput(), "ops/s"),
            metric("latency_p50_ms", ms(percentile(lat, 0.50)), "ms"),
            metric("latency_p90_ms", ms(percentile(lat, 0.90)), "ms"),
            metric(
                "success_ratio",
                report::ratio(
                    (window.attempted - window.failed) as f64,
                    window.attempted as f64,
                ),
                "ratio",
            ),
            metric("peak_rss_mb", report::peak_rss_mb(), "MiB"),
        ]
    };
    let mut per_second = vec![0usize; window_s as usize + 1];
    for &t in &window.completed_at {
        per_second[((t / 1_000_000_000) as usize).min(window_s as usize)] += 1;
    }
    detail.push(format!("\"completed_per_second\": {per_second:?}"));
    // Tails the metrics leave out: on mutate their run-to-run spread is
    // wider than any bound the benchmark may set.
    let w = &window.write_latencies;
    detail.push(format!(
        "\"latency_p99_ms\": {}, \"write_p50_p90_p99_ms\": [{}, {}, {}]",
        ms(percentile(&window.latencies, 0.99)),
        ms(percentile(w, 0.5)),
        ms(percentile(w, 0.9)),
        ms(percentile(w, 0.99))
    ));
    detail.push(format!(
        "\"samples\": {{\"latency\": {}, \"write\": {}}}",
        window.latencies.len(),
        window.write_latencies.len()
    ));
    detail.push(format!(
        "\"setup_s\": [{}]",
        setups
            .iter()
            .map(|s| report::json_num(*s))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: window.attempted,
        failed: window.failed,
        metrics,
        problems,
        detail: format!("{{{}}}", detail.join(", ")),
    })
}

/// Every plan verifies and recommends its minimum; a sample replayed
/// through the core layer is bit-identical to the wire's plan.
fn check_whynot(
    server: &Server,
    inputs: &Inputs,
    kept: &[(usize, Response)],
    problems: &mut Vec<String>,
    detail: &mut Vec<String>,
) {
    let mut plans: Vec<&(usize, Response)> = kept.iter().collect();
    plans.sort_by_key(|(i, _)| *i);
    for (i, response) in &plans {
        match response {
            Response::Plan(plan) => {
                if let Err(e) = checks::plan(plan) {
                    problems.push(format!("plan {i}: {e}"));
                }
            }
            other => problems.push(format!("plan {i}: unexpected reply {other:?}")),
        }
    }
    let engine = server.engine();
    let mut scratch = wqrtq_query::brtopk::RtaScratch::new();
    for (i, response) in plans.iter().take(CORE_REPLAYS) {
        let request = &inputs.stream[*i];
        let replayed = engine
            .catalog()
            .handle(request.dataset())
            .map_err(|e| e.to_string())
            .and_then(|h| replay::lower(engine.catalog(), &h, request, &mut scratch));
        match replayed {
            Ok(l) if l.response == *response => {}
            Ok(_) => problems.push(format!("plan {i}: core replay differs from the wire plan")),
            Err(e) => problems.push(format!("plan {i}: core replay failed: {e}")),
        }
    }
    detail.push(format!("\"plans_checked\": {}", plans.len()));
}

/// Sampled replies equal the scan oracles; hot repeats equal their first
/// answer.
fn check_serve(
    inputs: &Inputs,
    kept: &[(usize, Response)],
    problems: &mut Vec<String>,
    detail: &mut Vec<String>,
) {
    let ds = &inputs.datasets[0];
    let oracle = checks::Oracle::new(&ds.coords, ds.dim, &inputs.weights[0].1);
    let mut checked = 0;
    for (i, response) in kept {
        if i % ORACLE_STRIDE == 0 && checked < ORACLE_CHECKS {
            checked += 1;
            if let Err(e) = oracle.check(&inputs.stream[*i], response) {
                problems.push(format!("request {i}: {e}"));
            }
        }
    }
    match checks::repeats(inputs, kept) {
        Ok(n) => detail.push(format!(
            "\"oracle_checked\": {checked}, \"repeats_checked\": {n}"
        )),
        Err(e) => problems.push(e),
    }
}

/// Every write succeeded and the live count adds up; the final state
/// matches a fresh engine on the live rows; reopening the data directory
/// recovers that state.
fn check_mutate(
    server: Server,
    inputs: &Inputs,
    warm: &closed_loop::Window,
    window: &closed_loop::Window,
    data_dir: &Path,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let engine = server.engine().clone();
    let ds = &inputs.datasets[0];
    let sent = warm.attempted + window.attempted;
    let mut expected_live = ds.coords.len() / ds.dim;
    for request in &inputs.stream[..sent] {
        match request {
            wqrtq_engine::Request::Append { points, .. } => expected_live += points.len() / ds.dim,
            wqrtq_engine::Request::Delete { ids, .. } => expected_live -= ids.len(),
            _ => {}
        }
    }
    let live = engine
        .catalog()
        .handle(&ds.name)
        .map_err(|e| e.to_string())?
        .live_len();
    if live != expected_live {
        problems.push(format!(
            "live rows {live}, expected {expected_live} after every write"
        ));
    }
    for (i, response) in &window.kept {
        if !matches!(response, Response::Mutated { .. }) {
            problems.push(format!("write {i} answered {response:?}"));
        }
    }
    let state = match checks::final_state(&engine, &ds.name, inputs) {
        Ok(state) => state,
        Err(e) => {
            problems.push(e);
            return Ok(());
        }
    };
    drop(engine);
    server.shutdown();
    let recovered = stack::engine_builder(Workload::Mutate, Some(data_dir))
        .try_build()
        .map_err(|e| format!("reopen data dir: {e}"))?;
    if checks::canonical(&recovered, &ds.name, &inputs.probes)? != state {
        problems.push("reopened data dir answers the probes differently".into());
    }
    Ok(())
}

/// Runs the command line and prints the context, report and result
/// lines. Returns the process exit code: 0 when every check passed.
pub fn main_with(args: &[String]) -> i32 {
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload whynot|serve|mutate --seed N --seconds S --trace 0|1: {e}"
            );
            return 2;
        }
    };
    let started = Instant::now();
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return 1;
        }
    };
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    let fsync = if args.workload == Workload::Mutate {
        format!("{:?}", stack::FSYNC)
    } else {
        "none (in-memory)".into()
    };
    println!(
        "{{\"context\": {}, \"report\": {}}}",
        report::context(
            args.workload.name(),
            args.seed,
            &fsync,
            started.elapsed().as_secs_f64()
        ),
        outcome.detail
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        report::metrics_json(&outcome.metrics)
    );
    if outcome.correct {
        0
    } else {
        1
    }
}
