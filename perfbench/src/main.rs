//! The repository's benchmark: one workload through all six execution
//! paths (`Cluster::run`, `run_async`, `run_distributed` in-process and
//! over TCP, `run_spawned`, `QueryService`), timed from outside each call
//! and checked against answers computed apart from the engine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --workerd <path to mpc_workerd> [--out <dir>]
//! ```
//!
//! Set-up (inputs, reference answers, service start and one warm-up
//! round) runs three times and reports its median. The measured rounds
//! then run the paths round-robin until `--seconds` have passed, so that
//! host drift hits every path alike. `--trace 1` alternates untraced and
//! traced rounds, replays every layer beside each traced round, writes the
//! spans as JSON lines under `--out`, and reports per-layer metrics. The
//! last line of standard output is the result object.

mod check;
mod paths;
mod replay;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mpc_lp::LpCache;
use mpc_net::{QueryService, ServiceConfig};
use mpc_sim::{Cluster, MpcConfig};

use paths::{Expect, Path, DEDICATED};
use trace::{self_times, Span, Tracer};
use workload::{Workload, BLOCK_CAPACITY, EPSILON, P, QUEUE_CAPACITY};

const SETUP_REPEATS: usize = 3;

/// A traced run needs one untraced and one traced round at least.
const MIN_ROUNDS: usize = 2;

const PATH_NAMES: [&str; 6] = ["sync", "async", "inproc", "tcp", "spawned", "service"];
const SERVICE: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workerd: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k.as_str(), v.as_str());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {:?}", workload::NAMES));
    }
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        workerd: PathBuf::from(get("--workerd")?),
        out: PathBuf::from(kv.get("--out").copied().unwrap_or(".bench_out")),
    })
}

struct State {
    w: Workload,
    cluster: Cluster,
    /// Per template: what the dedicated paths must report.
    planned: Vec<Expect>,
    /// Per template: what the service must report (its own plan).
    served: Vec<Expect>,
    svc: QueryService,
}

fn setup(args: &Args) -> Result<State, String> {
    let w = workload::build(&args.workload, args.seed)?;
    let planned: Vec<Expect> =
        w.templates.iter().map(|t| Expect::for_plan(t.plan, t)).collect::<Result<_, _>>()?;
    let served: Vec<Expect> = w
        .templates
        .iter()
        .map(|t| Expect::for_plan(t.service_plan(), t))
        .collect::<Result<_, _>>()?;
    let cluster = Cluster::new(MpcConfig::new(P, EPSILON)).map_err(|e| format!("cluster: {e}"))?;
    let svc = QueryService::start(&ServiceConfig {
        p: P,
        epsilon: EPSILON,
        queue_capacity: QUEUE_CAPACITY,
        block_capacity: BLOCK_CAPACITY,
        admission_capacity_bytes: w.admission_capacity_bytes,
        deferral_depth: w.service_window,
    })
    .map_err(|e| format!("service start: {e}"))?;
    Ok(State { w, cluster, planned, served, svc })
}

#[derive(Default)]
struct Tally {
    attempted: [usize; 6],
    failed: [usize; 6],
    errors: Vec<String>,
    /// Service outcomes whose analysis ran the simplex, per template.
    simplex: BTreeMap<&'static str, usize>,
}

impl Tally {
    fn fail(&mut self, path: usize, e: String) {
        self.failed[path] += 1;
        if self.errors.len() < 8 {
            self.errors.push(format!("{}: {e}", PATH_NAMES[path]));
        }
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    /// Per dedicated path, per query: wall and CPU time in ms. A round's
    /// sample is the mean over its query sequence, so that a mixed
    /// workload's median is not the boundary between two templates' costs.
    wall_ms: [Vec<f64>; 5],
    cpu_ms: [Vec<f64>; 5],
    service_wall_ms_per_query: f64,
    service_cpu_ms_per_query: f64,
    service_qps: f64,
    service_queries: usize,
    service_deferred: usize,
    max_load_bytes: u64,
    total_bytes: u64,
    pool_reuse: Vec<f64>,
    scanned_tuples: Vec<f64>,
    heavy_values: Vec<f64>,
}

fn op_span(path: Path) -> &'static str {
    match path {
        Path::Sync => "op.sync",
        Path::Async => "op.async",
        Path::InProc => "op.inproc",
        Path::Tcp => "op.tcp",
        Path::Spawned => "op.spawned",
    }
}

/// One round: every dedicated path runs the workload's query sequence,
/// then the service runs its closed loop.
fn run_round(
    st: &mut State,
    args: &Args,
    tr: &mut Tracer,
    tally: &mut Tally,
    qid: &mut u64,
) -> Round {
    let mut r = Round::default();
    for (pi, &path) in DEDICATED.iter().enumerate() {
        let (mut max_load, mut total) = (0, 0);
        for &ti in &st.w.sequence {
            let t = &st.w.templates[ti];
            *qid += 1;
            let open = tr.begin(op_span(path), *qid);
            let (t0, cpu0, kids0) = (Instant::now(), sys::process_cpu(), sys::children_cpu());
            let out = paths::run_query(path, t, &st.cluster, &args.workerd, tr, *qid);
            let wall = t0.elapsed();
            let cpu = (sys::process_cpu() - cpu0) + (sys::children_cpu() - kids0);
            tr.end(open);
            tally.attempted[pi] += 1;
            let checked = out.and_then(|ex| {
                st.planned[ti].check(t, &ex.result.output, &ex.result.rounds).map(|()| ex)
            });
            match checked {
                Ok(ex) => {
                    r.wall_ms[pi].push(ms(wall));
                    r.cpu_ms[pi].push(ms(cpu));
                    max_load = max_load.max(ex.result.max_load_bytes());
                    total += ex.result.total_bytes();
                    if let Some(pool) = ex.pool {
                        r.pool_reuse.push(pool.reused as f64 / pool.checked_out.max(1) as f64);
                    }
                    if path != Path::Spawned {
                        r.scanned_tuples.push(ex.scanned_tuples as f64);
                        r.heavy_values.push(ex.heavy_values as f64);
                    }
                }
                Err(e) => tally.fail(pi, e),
            }
        }
        if path == Path::Sync {
            (r.max_load_bytes, r.total_bytes) = (max_load, total);
        }
    }
    *qid += 1;
    let s = paths::service_round(&mut st.svc, &st.w, &mut st.served, tr, *qid);
    *qid += s.attempted as u64;
    tally.attempted[SERVICE] += s.attempted;
    for e in s.failures {
        tally.fail(SERVICE, e);
    }
    for (t, n) in st.w.templates.iter().zip(s.simplex) {
        *tally.simplex.entry(t.name).or_default() += n;
    }
    let n = s.attempted.max(1) as f64;
    r.service_wall_ms_per_query = ms(s.wall) / n;
    r.service_cpu_ms_per_query = ms(s.cpu) / n;
    r.service_qps = s.completed as f64 / s.wall.as_secs_f64();
    r.service_queries = s.attempted;
    r.service_deferred = s.deferred;
    r
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Per-layer figures of one traced round, per query, with their units.
fn layers_of(
    spans: &[Span],
    r: &Round,
    counts: &[replay::Counts],
) -> BTreeMap<&'static str, (f64, &'static str)> {
    let selfs = self_times(spans);
    let roots: Vec<usize> = spans.iter().filter(|s| s.name == "replay").map(|s| s.id).collect();
    let nq = roots.len().max(1) as f64;
    let in_replay = |s: &Span| s.parent.is_some_and(|p| roots.contains(&p));
    let replayed_ms = |name: &str| {
        spans.iter().filter(|s| s.name == name && in_replay(s)).map(|s| selfs[&s.id]).sum::<u64>()
            as f64
            / 1e6
            / nq
    };
    let service_ms = |name: &str| {
        spans.iter().filter(|s| s.name == name).map(|s| selfs[&s.id]).sum::<u64>() as f64
            / 1e6
            / r.service_queries.max(1) as f64
    };
    let (mut local_max, mut local_sum) = (0.0, 0.0);
    for &root in &roots {
        let local: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "join.local" && s.parent == Some(root))
            .map(|s| selfs[&s.id] as f64 / 1e6)
            .collect();
        local_max += local.iter().copied().fold(0.0, f64::max);
        local_sum += local.iter().sum::<f64>();
    }
    let per_query = |f: fn(&replay::Counts) -> u64| {
        counts.iter().map(f).sum::<u64>() as f64 / counts.len().max(1) as f64
    };
    BTreeMap::from([
        ("data.stats_ms", (replayed_ms("data.stats"), "ms")),
        ("data.scanned_tuples", (mean(&r.scanned_tuples), "count")),
        ("lp.analyze_us", (replayed_ms("lp.analyze") * 1e3, "us")),
        ("plan.build_ms", (replayed_ms("plan.build"), "ms")),
        ("plan.heavy_values", (mean(&r.heavy_values), "count")),
        ("route.input_ms", (replayed_ms("route.input"), "ms")),
        ("route.tuple_copies", (per_query(|c| c.tuple_copies), "count")),
        ("block.assemble_ms", (replayed_ms("block.assemble"), "ms")),
        ("block.count", (per_query(|c| c.blocks), "count")),
        ("pool.reuse_ratio", (mean(&r.pool_reuse), "ratio")),
        ("schedule.replay_ms", (replayed_ms("schedule.replay"), "ms")),
        ("schedule.makespan_ticks", (per_query(|c| c.makespan_ticks), "ticks")),
        ("frame.encode_ms", (replayed_ms("frame.encode"), "ms")),
        ("frame.decode_ms", (replayed_ms("frame.decode"), "ms")),
        ("frame.wire_bytes", (per_query(|c| c.wire_bytes), "bytes")),
        ("spec.build_ms", (replayed_ms("spec.build"), "ms")),
        ("service.submit_ms", (service_ms("service.submit"), "ms")),
        ("service.wait_ms", (service_ms("service.wait"), "ms")),
        ("service.deferred", (r.service_deferred as f64, "count")),
        ("join.eval_ms", (replayed_ms("join.eval"), "ms")),
        ("join.local_max_ms", (local_max / nq, "ms")),
        ("join.local_sum_ms", (local_sum / nq, "ms")),
    ])
}

fn metric(out: &mut Vec<String>, name: &str, value: f64, unit: &str) {
    let value = if value.is_finite() { value } else { 0.0 };
    out.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut tally = Tally::default();
    let mut tr = Tracer::new();
    let mut qid = 0u64;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut warm = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = warm.take() {
            shutdown(old)?;
        }
        let t0 = Instant::now();
        let mut st = setup(args)?;
        run_round(&mut st, args, &mut tr, &mut tally, &mut qid);
        setup_s.push(t0.elapsed().as_secs_f64());
        warm = Some(st);
    }
    let mut st = warm.expect("set up at least once");
    // Warm-up solved every LP the workload needs; from here on each one
    // must come from the closed form or the cache.
    let lp0 = LpCache::global().stats();

    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, (f64, &'static str)>> = Vec::new();
    let mut replay_errors = Vec::new();
    let steal0 = sys::CpuTicks::now();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && rounds.len() % 2 == 1;
        tr.enabled = traced;
        let mark = tr.len();
        let r = run_round(&mut st, args, &mut tr, &mut tally, &mut qid);
        if traced {
            let mut counts = Vec::new();
            for &ti in &st.w.sequence {
                qid += 1;
                match replay::replay_query(&st.w.templates[ti], &mut tr, qid) {
                    Ok(c) => counts.push(c),
                    Err(e) => replay_errors.push(e),
                }
            }
            layers.push(layers_of(tr.since(mark), &r, &counts));
        }
        tr.enabled = false;
        rounds.push((traced, r));
    }
    let steal = sys::CpuTicks::now().steal_share_since(&steal0);
    let measured_s = start.elapsed().as_secs_f64();
    let w = &st.w;

    // Run-wide properties.
    let mut broken: Vec<String> = replay_errors;
    for (name, n) in &tally.simplex {
        if *n > 1 {
            broken.push(format!("service solved the LP of {name} {n} times"));
        }
    }
    let lp1 = LpCache::global().stats();
    let (hits, misses) = (lp1.hits - lp0.hits, lp1.misses - lp0.misses);
    if misses > 0 {
        broken.push(format!("{misses} LP solves after warm-up, every LP should be cached"));
    }
    if w.name == "c3-skew-wco" && st.planned.iter().any(|e| e.rounds != 2) {
        broken.push("the WCO plan of the skewed triangle is not two rounds".to_string());
    }
    let plan_rounds = st.planned.iter().map(|e| e.rounds).max().unwrap_or(0);

    let attempted: usize = tally.attempted.iter().sum();
    let failed: usize = tally.failed.iter().sum();
    let per_path: Vec<String> = (0..6)
        .map(|i| {
            format!(
                "\"{}\": {{\"attempted\": {}, \"failed\": {}}}",
                PATH_NAMES[i], tally.attempted[i], tally.failed[i]
            )
        })
        .collect();
    let quote = |v: &[String]| v.iter().map(|e| format!("{e:?}")).collect::<Vec<_>>().join(", ");
    println!(
        "{{\"diagnostics\": {{\"workload\": \"{}\", \"seed\": {}, \"rounds\": {}, \"measured_s\": {measured_s}, \
         \"steal_share\": {steal}, \"lp_cache\": {{\"hits\": {hits}, \"misses\": {misses}}}, \
         \"paths\": {{{}}}, \"errors\": [{}], \"broken\": [{}]}}}}",
        w.name,
        args.seed,
        rounds.len(),
        per_path.join(", "),
        quote(&tally.errors),
        quote(&broken),
    );

    let mut m = Vec::new();
    if args.trace {
        if let Some(first) = layers.first() {
            for (name, (_, unit)) in first {
                let v: Vec<f64> = layers.iter().map(|l| l[name].0).collect();
                metric(&mut m, name, median(&v), unit);
            }
        }
        let lookups = hits + misses;
        metric(
            &mut m,
            "lp.cache_hit_ratio",
            if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
            "ratio",
        );
        metric(&mut m, "plan.rounds", plan_rounds as f64, "count");
        metric(&mut m, "trace.overhead_pct", overhead_pct(&rounds), "%");
        let path = args.out.join(format!("trace-{}-{}.jsonl", w.name, args.seed));
        tr.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    } else {
        let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
            median(&rounds.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
        };
        for (pi, path) in DEDICATED.iter().enumerate() {
            let value = per_round(&|r| mean(&r.wall_ms[pi]));
            metric(&mut m, &format!("{}.p50_ms", path.name()), value, "ms");
        }
        for (pi, path) in DEDICATED.iter().enumerate() {
            let value = per_round(&|r| mean(&r.cpu_ms[pi]));
            metric(&mut m, &format!("{}.cpu_ms", path.name()), value, "ms");
        }
        metric(&mut m, "service.cpu_ms", per_round(&|r| r.service_cpu_ms_per_query), "ms");
        metric(&mut m, "service.qps", per_round(&|r| r.service_qps), "1/s");
        let first = &rounds[0].1;
        metric(&mut m, "load.max_bytes", first.max_load_bytes as f64, "bytes");
        metric(&mut m, "comm.total_bytes", first.total_bytes as f64, "bytes");
        metric(&mut m, "setup_s", median(&setup_s), "s");
        metric(&mut m, "peak_rss_mb", sys::peak_rss_mb(), "MB");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        broken.is_empty(),
        m.join(", ")
    );
    shutdown(st)
}

/// End-to-end cost of tracing: per-query wall medians of every path in
/// traced rounds against untraced ones, as a percentage of the untraced.
fn overhead_pct(rounds: &[(bool, Round)]) -> f64 {
    let sum = |traced: bool| -> f64 {
        let sel: Vec<&Round> =
            rounds.iter().filter(|(t, _)| *t == traced).map(|(_, r)| r).collect();
        let dedicated: f64 = (0..5)
            .map(|pi| median(&sel.iter().map(|r| mean(&r.wall_ms[pi])).collect::<Vec<_>>()))
            .sum();
        dedicated + median(&sel.iter().map(|r| r.service_wall_ms_per_query).collect::<Vec<_>>())
    };
    let (on, off) = (sum(true), sum(false));
    if off == 0.0 {
        0.0
    } else {
        100.0 * (on - off) / off
    }
}

fn shutdown(st: State) -> Result<(), String> {
    st.svc.shutdown().map_err(|e| format!("service shutdown: {e}"))
}
