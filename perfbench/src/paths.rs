//! The six execution paths, each driven the way a user calls it: from a
//! query and a database to an answer, planning included (statistics scan,
//! analysis, program build). And the checks every answer must pass.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpc_core::analysis::QueryAnalysis;
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::{MultiRoundPlan, PlanProgram};
use mpc_core::wco::WcoProgram;
use mpc_data::{DbStatistics, StatsMode};
use mpc_net::{
    run_distributed, run_spawned, Admission, DistConfig, QueryJob, QueryOutcome, QueryService,
    TransportKind,
};
use mpc_sim::{AsyncConfig, Cluster, MpcProgram, PoolStats, RoundStats, RunResult};

use crate::check;
use crate::sys;
use crate::trace::Tracer;
use crate::workload::{PlanKind, Template, Workload, BLOCK_CAPACITY, P, QUEUE_CAPACITY};

/// The five paths that run one query on a dedicated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Sync,
    Async,
    InProc,
    Tcp,
    Spawned,
}

pub const DEDICATED: [Path; 5] = [Path::Sync, Path::Async, Path::InProc, Path::Tcp, Path::Spawned];

impl Path {
    pub fn name(self) -> &'static str {
        match self {
            Path::Sync => "sync",
            Path::Async => "async",
            Path::InProc => "inproc",
            Path::Tcp => "tcp",
            Path::Spawned => "spawned",
        }
    }
}

/// What one dedicated-path query returned, beside its result.
pub struct Executed {
    pub result: RunResult,
    /// Block-pool accounting (`run_async` only).
    pub pool: Option<PoolStats>,
    /// Tuples the statistics scan visited while planning.
    pub scanned_tuples: usize,
    /// Heavy values the plan chose.
    pub heavy_values: usize,
}

/// Prefix an error with what failed.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn execute<Prog: MpcProgram>(
    path: Path,
    cluster: &Cluster,
    program: &Prog,
    t: &Template,
    tr: &mut Tracer,
    qid: u64,
) -> Result<Executed, String> {
    let db = &*t.db;
    let open = tr.begin("execute", qid);
    let out = match path {
        Path::Sync => cluster.run(program, db).map(|r| (r, None)).map_err(err("run")),
        Path::Async => cluster
            .run_async(program, db, &AsyncConfig::default())
            .map(|a| (a.result, Some(a.pool)))
            .map_err(err("run_async")),
        Path::InProc | Path::Tcp => {
            let transport =
                if path == Path::Tcp { TransportKind::Tcp } else { TransportKind::InProcess };
            let cfg = DistConfig {
                transport,
                queue_capacity: QUEUE_CAPACITY,
                block_capacity: BLOCK_CAPACITY,
            };
            run_distributed(cluster, program, db, &cfg)
                .map(|r| (r, None))
                .map_err(err("run_distributed"))
        }
        Path::Spawned => unreachable!("spawned workers plan for themselves"),
    };
    tr.end(open);
    let (result, pool) = out?;
    Ok(Executed { result, pool, scanned_tuples: 0, heavy_values: 0 })
}

/// One query on one dedicated path, planning included.
pub fn run_query(
    path: Path,
    t: &Template,
    cluster: &Cluster,
    workerd: &std::path::Path,
    tr: &mut Tracer,
    qid: u64,
) -> Result<Executed, String> {
    if path == Path::Spawned {
        let job = t.job_spec();
        let result =
            tr.span("execute", qid, || run_spawned(&job, workerd)).map_err(err("run_spawned"))?;
        return Ok(Executed { result, pool: None, scanned_tuples: 0, heavy_values: 0 });
    }
    let (q, db) = (&t.query, &*t.db);
    let analyze = |tr: &mut Tracer| {
        tr.span("lp.analyze", qid, || QueryAnalysis::analyze(q))
            .map(|_| ())
            .map_err(err("analysis"))
    };
    match t.plan {
        PlanKind::HyperCube => {
            analyze(tr)?;
            let prog = tr
                .span("plan.build", qid, || HyperCubeProgram::new(q, P, t.route_seed))
                .map_err(err("hypercube"))?;
            execute(path, cluster, &prog, t, tr, qid)
        }
        PlanKind::Wco => {
            let stats = tr.span("data.stats", qid, || DbStatistics::collect(db, StatsMode::Exact));
            analyze(tr)?;
            let prog = tr
                .span("plan.build", qid, || {
                    WcoProgram::new_with_stats(q, db, P, t.route_seed, &stats)
                })
                .map_err(err("wco plan"))?;
            let mut ex = execute(path, cluster, &prog, t, tr, qid)?;
            let heavy = prog.plan().heavy();
            ex.heavy_values = heavy.heavy_vars().iter().map(|v| heavy.count(*v)).sum();
            ex.scanned_tuples = stats.scanned_tuples();
            Ok(ex)
        }
        PlanKind::Gamma(eps) => {
            analyze(tr)?;
            let prog = tr
                .span("plan.build", qid, || {
                    MultiRoundPlan::build(q, eps)
                        .and_then(|plan| PlanProgram::new(&plan, P, t.route_seed))
                })
                .map_err(err("gamma plan"))?;
            execute(path, cluster, &prog, t, tr, qid)
        }
    }
}

/// Per-round volume as `[max bytes, total bytes, max tuples, total tuples]`.
pub type Vol = [u64; 4];

fn vol(r: &RoundStats) -> Vol {
    [r.max_bytes_received, r.total_bytes_received, r.max_tuples_received, r.total_tuples_received]
}

/// What every run of one program over one template must report.
#[derive(Debug, Clone)]
pub struct Expect {
    pub rounds: usize,
    /// Round 1, from the per-server counts `route_input` implies.
    pub round1: Vol,
    /// Later rounds, as the first run reported them; every other run
    /// must match.
    pub later: Option<Vec<Vol>>,
    /// HyperCube bound on the most bytes a server receives (skew-free,
    /// one-round runs only).
    pub load_bound: Option<u64>,
}

impl Expect {
    fn of<Prog: MpcProgram>(prog: &Prog, t: &Template) -> Result<Expect, String> {
        let mut bytes = [0u64; P];
        let mut tuples = [0u64; P];
        for rel in t.db.relations() {
            for msg in prog.route_input(rel, P).map_err(err("route_input"))? {
                for &d in &msg.destinations {
                    bytes[d] += msg.bytes_per_delivery();
                    tuples[d] += 1;
                }
            }
        }
        let max = |v: &[u64; P]| v.iter().copied().max().unwrap_or(0);
        let round1 = [max(&bytes), bytes.iter().sum(), max(&tuples), tuples.iter().sum()];
        Ok(Expect { rounds: prog.num_rounds(), round1, later: None, load_bound: None })
    }

    /// Expectations for `plan` over `t`.
    pub fn for_plan(plan: PlanKind, t: &Template) -> Result<Expect, String> {
        let (q, db) = (&t.query, &*t.db);
        match plan {
            PlanKind::HyperCube => {
                let prog = HyperCubeProgram::new(q, P, t.route_seed).map_err(err("hypercube"))?;
                let mut e = Expect::of(&prog, t)?;
                if t.skew_free {
                    e.load_bound =
                        Some(check::hypercube_load_bound(q, db, &prog.allocation().shares));
                }
                Ok(e)
            }
            PlanKind::Wco => {
                Expect::of(&WcoProgram::new(q, db, P, t.route_seed).map_err(err("wco"))?, t)
            }
            PlanKind::Gamma(eps) => {
                let plan = MultiRoundPlan::build(q, eps).map_err(err("gamma plan"))?;
                Expect::of(&PlanProgram::new(&plan, P, t.route_seed).map_err(err("gamma"))?, t)
            }
        }
    }

    /// Check one run's answer and per-round volumes.
    pub fn check(
        &mut self,
        t: &Template,
        output: &mpc_storage::Relation,
        rounds: &[RoundStats],
    ) -> Result<(), String> {
        if !output.same_tuples(&t.expected) {
            return Err(format!(
                "{}: {} answers differ from the {} computed apart",
                t.name,
                output.len(),
                t.expected.len()
            ));
        }
        if rounds.len() != self.rounds {
            return Err(format!(
                "{}: {} rounds, the plan has {}",
                t.name,
                rounds.len(),
                self.rounds
            ));
        }
        let vols: Vec<Vol> = rounds.iter().map(vol).collect();
        if vols[0] != self.round1 {
            return Err(format!(
                "{}: round 1 delivered {:?}, route_input implies {:?}",
                t.name, vols[0], self.round1
            ));
        }
        match &self.later {
            None => self.later = Some(vols[1..].to_vec()),
            Some(later) if later[..] != vols[1..] => {
                return Err(format!(
                    "{}: later rounds {:?} differ from {:?}",
                    t.name,
                    &vols[1..],
                    later
                ));
            }
            Some(_) => {}
        }
        if let Some(bound) = self.load_bound {
            if vols[0][0] > bound {
                return Err(format!(
                    "{}: load {} bytes above the HyperCube bound {bound}",
                    t.name, vols[0][0]
                ));
            }
        }
        Ok(())
    }
}

/// One service round: the closed loop over the workload's service
/// sequence, a fixed window of queries in flight.
pub struct ServiceRound {
    pub wall: Duration,
    pub cpu: Duration,
    pub attempted: usize,
    pub completed: usize,
    /// Per failure, the reason.
    pub failures: Vec<String>,
    pub deferred: usize,
    /// Outcomes whose analysis ran the simplex, per template.
    pub simplex: Vec<usize>,
}

pub fn service_round(
    svc: &mut QueryService,
    w: &Workload,
    expect: &mut [Expect],
    tr: &mut Tracer,
    qid_base: u64,
) -> ServiceRound {
    let seq = &w.service_sequence;
    let mut failures = Vec::new();
    let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(seq.len());
    let mut template_of: HashMap<u64, usize> = HashMap::new();
    let mut deferred = 0;
    let (mut next, mut outstanding) = (0, 0);
    let (t0, cpu0) = (Instant::now(), sys::process_cpu());
    while next < seq.len() || outstanding > 0 {
        while next < seq.len() && outstanding < w.service_window {
            let t = &w.templates[seq[next]];
            let job = QueryJob {
                query: t.query.clone(),
                db: Arc::clone(&t.db),
                seed: t.route_seed,
                plan_epsilon: match t.service_plan() {
                    PlanKind::Gamma(eps) => Some(eps),
                    _ => None,
                },
            };
            let qid = qid_base + next as u64;
            match tr.span("service.submit", qid, || svc.submit(&job)) {
                Ok(sub) => {
                    if matches!(sub.admission, Admission::Deferred { .. }) {
                        deferred += 1;
                    }
                    template_of.insert(sub.qid, seq[next]);
                    outstanding += 1;
                }
                Err(e) => failures.push(format!("service submit: {e}")),
            }
            next += 1;
        }
        if outstanding == 0 {
            // Every remaining submission failed: nothing left to wait for.
            break;
        }
        match tr.span("service.wait", qid_base, || svc.next_outcome()) {
            Ok(o) => outcomes.push(o),
            Err(e) => failures.push(format!("service outcome: {e}")),
        }
        outstanding -= 1;
    }
    let (wall, cpu) = (t0.elapsed(), sys::process_cpu() - cpu0);
    let mut simplex = vec![0; w.templates.len()];
    for o in &outcomes {
        let Some(&ti) = template_of.get(&o.qid) else {
            failures.push(format!("service returned unknown query {}", o.qid));
            continue;
        };
        simplex[ti] += usize::from(o.analysis_path == "simplex");
        let t = &w.templates[ti];
        if let Err(e) = expect[ti].check(t, &o.output, &o.rounds) {
            failures.push(format!("service: {e}"));
        }
    }
    let completed = outcomes.len();
    ServiceRound { wall, cpu, attempted: seq.len(), completed, failures, deferred, simplex }
}
