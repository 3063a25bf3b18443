//! Layer replays for the traced run: each layer's public function re-run
//! beside the end-to-end calls, on the same inputs, one span per call.
//! These are re-executions, not a split of an end-to-end call.

use std::sync::Arc;

use mpc_core::analysis::QueryAnalysis;
use mpc_core::hypercube::HyperCubeProgram;
use mpc_core::multiround::{MultiRoundPlan, PlanProgram};
use mpc_core::wco::WcoProgram;
use mpc_data::{DbStatistics, StatsMode};
use mpc_net::frame::{decode_body, encode_frame, Frame};
use mpc_sim::schedule::{simulate_overlapped, CostModel, MsgRecord};
use mpc_sim::{BlockAssembler, BlockPool, MpcProgram};
use mpc_storage::{join, Database, Relation};

use crate::paths::err;
use crate::trace::Tracer;
use crate::workload::{PlanKind, Template, BLOCK_CAPACITY, P, QUEUE_CAPACITY};

/// Counts the replays of one query produce.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub tuple_copies: u64,
    pub blocks: u64,
    pub wire_bytes: u64,
    pub makespan_ticks: u64,
}

/// Round-1 data plane of `prog` over `db`: routing, block assembly, wire
/// encode and decode, and the virtual-clock schedule of those blocks.
fn data_plane<Prog: MpcProgram>(
    prog: &Prog,
    db: &Database,
    tr: &mut Tracer,
    qid: u64,
) -> Result<Counts, String> {
    let routed = tr
        .span("route.input", qid, || {
            db.relations().map(|rel| prog.route_input(rel, P)).collect::<Result<Vec<_>, _>>()
        })
        .map_err(err("route_input"))?;
    let tuple_copies = routed.iter().flatten().map(|m| m.destinations.len() as u64).sum();

    let pool = Arc::new(BlockPool::new());
    let blocks = tr.span("block.assemble", qid, || {
        let mut blocks = Vec::new();
        for (ri, msgs) in routed.iter().enumerate() {
            let mut asm = BlockAssembler::new(Arc::clone(&pool), BLOCK_CAPACITY, P + ri, 1);
            for msg in msgs {
                for &dest in &msg.destinations {
                    if let Some(b) = asm.push(dest, &msg.tag, msg.tuple.values()) {
                        blocks.push((dest, b));
                    }
                }
            }
            blocks.extend(asm.flush());
        }
        blocks
    });
    let records: Vec<MsgRecord> = blocks
        .iter()
        .map(|(to, b)| MsgRecord {
            round: 1,
            from: b.from,
            to: *to,
            seq: b.seq,
            bytes: b.payload_bytes(),
            tuples: b.len() as u64,
        })
        .collect();
    let n_blocks = blocks.len() as u64;

    let frames: Vec<Vec<u8>> = tr.span("frame.encode", qid, || {
        blocks
            .into_iter()
            .map(|(_, b)| {
                let mut buf = Vec::new();
                encode_frame(&Frame::Block(b), &mut buf);
                buf
            })
            .collect()
    });
    let wire_bytes = frames.iter().map(|f| f.len() as u64).sum();
    let decoded = tr
        .span("frame.decode", qid, || {
            frames.iter().map(|f| decode_body(&f[4..], &pool)).collect::<Result<Vec<_>, _>>()
        })
        .map_err(err("decode"))?;
    for frame in decoded {
        if let Frame::Block(b) = frame {
            pool.give_back(b.into_columns());
        }
    }

    let sched = tr.span("schedule.replay", qid, || {
        simulate_overlapped(P, 1, &records, &CostModel::default(), &[1; P], QUEUE_CAPACITY, 1)
    });
    Ok(Counts { tuple_copies, blocks: n_blocks, wire_bytes, makespan_ticks: sched.makespan })
}

/// Each server's fragment of the one-round HyperCube plan of `t`.
fn hypercube_fragments(t: &Template) -> Result<Vec<Database>, String> {
    let prog = HyperCubeProgram::new(&t.query, P, t.route_seed).map_err(err("hypercube"))?;
    let mut frags: Vec<Vec<Relation>> = (0..P)
        .map(|_| {
            t.query.atoms().iter().map(|a| Relation::empty(a.name.clone(), a.arity())).collect()
        })
        .collect();
    for (ai, atom) in t.query.atoms().iter().enumerate() {
        let rel = t.db.relation(&atom.name).map_err(err("relation"))?;
        for msg in prog.route_input(rel, P).map_err(err("route_input"))? {
            for &d in &msg.destinations {
                frags[d][ai].insert(msg.tuple.clone()).map_err(err("fragment"))?;
            }
        }
    }
    Ok(frags
        .into_iter()
        .map(|rels| {
            let mut db = Database::new(t.db.domain_size());
            rels.into_iter().for_each(|r| db.insert_relation(r));
            db
        })
        .collect())
}

/// Replay every layer once for one query of `t`, under one root span.
/// Fails when a layer fails, or when the HyperCube fragments' local
/// answers do not union to the expected answer.
pub fn replay_query(t: &Template, tr: &mut Tracer, qid: u64) -> Result<Counts, String> {
    let root = tr.begin("replay", qid);
    let out = replay_layers(t, tr, qid);
    tr.end(root);
    out
}

fn replay_layers(t: &Template, tr: &mut Tracer, qid: u64) -> Result<Counts, String> {
    let (q, db) = (&t.query, &*t.db);
    let stats = tr.span("data.stats", qid, || DbStatistics::collect(db, StatsMode::Exact));
    tr.span("lp.analyze", qid, || QueryAnalysis::analyze(q)).map_err(err("analysis"))?;
    let counts = match t.plan {
        PlanKind::HyperCube => {
            let prog = tr
                .span("plan.build", qid, || HyperCubeProgram::new(q, P, t.route_seed))
                .map_err(err("hypercube"))?;
            data_plane(&prog, db, tr, qid)?
        }
        PlanKind::Wco => {
            let prog = tr
                .span("plan.build", qid, || {
                    WcoProgram::new_with_stats(q, db, P, t.route_seed, &stats)
                })
                .map_err(err("wco"))?;
            data_plane(&prog, db, tr, qid)?
        }
        PlanKind::Gamma(eps) => {
            let prog = tr
                .span("plan.build", qid, || {
                    MultiRoundPlan::build(q, eps)
                        .and_then(|plan| PlanProgram::new(&plan, P, t.route_seed))
                })
                .map_err(err("gamma"))?;
            data_plane(&prog, db, tr, qid)?
        }
    };
    let spec = t.job_spec();
    tr.span("spec.build", qid, || spec.build()).map_err(err("job spec"))?;
    tr.span("join.eval", qid, || join::evaluate(q, db)).map_err(err("join"))?;

    let frags = hypercube_fragments(t)?;
    let mut union = Relation::empty(q.name(), q.num_vars());
    for frag in &frags {
        let local =
            tr.span("join.local", qid, || join::evaluate(q, frag)).map_err(err("local join"))?;
        for tuple in local.iter() {
            union.insert(tuple.clone()).map_err(err("union"))?;
        }
    }
    if !union.same_tuples(&t.expected) {
        return Err(format!(
            "{}: HyperCube fragments join to {} answers, expected {}",
            t.name,
            union.len(),
            t.expected.len()
        ));
    }
    Ok(counts)
}
