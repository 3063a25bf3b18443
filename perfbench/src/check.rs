//! Answers computed apart from the program, and the load bound the
//! HyperCube method must meet. Nothing here calls the engine's join,
//! planners or routing: the checks must not share a fault with what they
//! check.

use std::collections::{HashMap, HashSet};

use mpc_cq::Query;
use mpc_storage::{Database, Relation, Tuple, Value};

/// The answers of a connected query over a database whose relations are
/// all matchings (every column a key): fixing one variable fixes every
/// other along the atoms, so each tuple of the first atom seeds at most one
/// answer, found by walking key lookups. On a cycle this is the set of
/// fixed points of the composed permutations, in O(n) per atom.
pub fn matching_answers(q: &Query, db: &Database) -> Relation {
    let atoms = q.atoms();
    let rels: Vec<&Relation> =
        atoms.iter().map(|a| db.relation(&a.name).expect("relation of the query")).collect();
    // keys[a][c]: value in column c of atom a -> the tuple holding it.
    let keys: Vec<Vec<HashMap<Value, &Tuple>>> = rels
        .iter()
        .map(|r| {
            (0..r.arity())
                .map(|c| r.iter().map(|t| (t.values()[c], t)).collect::<HashMap<_, _>>())
                .collect()
        })
        .collect();
    // Walk order: every atom after the first shares a variable with an
    // earlier one (the query is connected).
    let mut order = vec![0usize];
    let mut bound: HashSet<usize> = atoms[0].vars.iter().map(|v| v.0).collect();
    while order.len() < atoms.len() {
        let next = (0..atoms.len())
            .find(|a| !order.contains(a) && atoms[*a].vars.iter().any(|v| bound.contains(&v.0)))
            .expect("a connected query");
        bound.extend(atoms[next].vars.iter().map(|v| v.0));
        order.push(next);
    }
    let mut out = Relation::empty(q.name(), q.num_vars());
    'seed: for seed in rels[0].iter() {
        let mut val: Vec<Option<Value>> = vec![None; q.num_vars()];
        for &a in &order {
            let vars = &atoms[a].vars;
            let tuple = if a == order[0] {
                seed
            } else {
                let c = vars.iter().position(|v| val[v.0].is_some()).expect("walk order");
                match keys[a][c].get(&val[vars[c].0].expect("bound")) {
                    Some(t) => t,
                    None => continue 'seed,
                }
            };
            for (c, v) in vars.iter().enumerate() {
                match val[v.0] {
                    Some(x) if x != tuple.values()[c] => continue 'seed,
                    _ => val[v.0] = Some(tuple.values()[c]),
                }
            }
        }
        let t: Vec<Value> = val.into_iter().map(|v| v.expect("every variable bound")).collect();
        out.insert(Tuple(t)).expect("arity matches");
    }
    out
}

/// The triangle `S1(x,y), S2(y,z), S3(z,x)` by a plain hash join: index
/// `S2` on its first column, probe with every `S1` tuple, and keep the
/// pairs whose closing edge is in `S3`. Works on any input, skewed or not.
pub fn triangle_hash_join(q: &Query, db: &Database) -> Relation {
    let atoms = q.atoms();
    assert!(atoms.len() == 3, "a triangle has three atoms");
    let (x, y, z) = (atoms[0].vars[0], atoms[0].vars[1], atoms[1].vars[1]);
    assert!(
        atoms[1].vars[0] == y && atoms[2].vars[0] == z && atoms[2].vars[1] == x,
        "atoms in S1(x,y), S2(y,z), S3(z,x) order"
    );
    let rel = |i: usize| db.relation(&atoms[i].name).expect("relation of the query");
    let mut s2: HashMap<Value, Vec<Value>> = HashMap::new();
    for t in rel(1).iter() {
        s2.entry(t.values()[0]).or_default().push(t.values()[1]);
    }
    let s3: HashSet<(Value, Value)> =
        rel(2).iter().map(|t| (t.values()[0], t.values()[1])).collect();
    let mut out = Relation::empty(q.name(), 3);
    for t in rel(0).iter() {
        let (a, b) = (t.values()[0], t.values()[1]);
        for &c in s2.get(&b).map_or(&[][..], Vec::as_slice) {
            if s3.contains(&(c, a)) {
                let mut row = vec![0; 3];
                (row[x.0], row[y.0], row[z.0]) = (a, b, c);
                out.insert(Tuple(row)).expect("arity 3");
            }
        }
    }
    out
}

/// Upper bound on the bytes any server receives in a one-round HyperCube
/// run over a matching database, at the integer shares actually used.
///
/// A server receives the tuples of atom `j` whose hashed coordinates match
/// its own: `μ_j = |R_j| / Π_{v ∈ vars(j)} share(v)` in expectation. The
/// bound adds the Chernoff deviation that a count of `μ` exceeds with
/// probability below `1e-9` (`δ = sqrt(3·ln(1e9)/μ)`), so a correct run
/// crosses it on no practical seed.
pub fn hypercube_load_bound(q: &Query, db: &Database, shares: &[usize]) -> u64 {
    let mut bound = 0.0;
    for atom in q.atoms() {
        let n = db.relation(&atom.name).map_or(0, Relation::len) as f64;
        let cells: usize = atom.distinct_vars().iter().map(|v| shares[v.0]).product();
        let mu = n / cells as f64;
        let delta = if cells == 1 || mu == 0.0 { 0.0 } else { (3.0 * 1e9f64.ln() / mu).sqrt() };
        bound += (mu * (1.0 + delta)).ceil() * (atom.arity() * 8) as f64;
    }
    bound as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_cq::families;

    #[test]
    fn walk_and_hash_join_agree_with_each_other_on_a_matching_triangle() {
        let q = families::triangle();
        let db = mpc_data::matching_database(&q, 3000, 5);
        assert!(matching_answers(&q, &db).same_tuples(&triangle_hash_join(&q, &db)));
    }

    #[test]
    fn acyclic_matching_queries_have_exactly_n_answers() {
        for q in [families::chain(4), families::star(3), families::witness_query()] {
            let db = mpc_data::matching_database(&q, 500, 9);
            assert_eq!(matching_answers(&q, &db).len(), 500, "{q}");
        }
    }
}
