//! Reference answers computed apart from the engines.
//!
//! [`Tables`] is the benchmark's own copy of every relation: plain row sets
//! that edit batches are applied to directly, never through the program's
//! incremental paths. [`count`] evaluates a [`Query`] over them with index
//! nested loops — hash indexes keyed on the columns bound so far, one loop per
//! atom, filters checked as soon as both sides are bound. It shares no code
//! with the engines or their tries, so a wrong engine count cannot also be the
//! reference's count.

use graphjoin::{Query, Relation};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One relation as a set of rows.
pub type Rows = BTreeSet<Vec<i64>>;

/// The benchmark's own copy of a database: relation name → rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tables(BTreeMap<String, Rows>);

impl Tables {
    /// Copies `relations` row by row.
    pub fn from_relations<'a>(
        relations: impl IntoIterator<Item = (&'a str, &'a Relation)>,
    ) -> Self {
        Tables(
            relations
                .into_iter()
                .map(|(name, rel)| (name.to_string(), rel.iter().map(<[i64]>::to_vec).collect()))
                .collect(),
        )
    }

    /// The rows of `name`, if the relation exists.
    pub fn rows(&self, name: &str) -> Option<&Rows> {
        self.0.get(name)
    }

    /// Relation names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// Applies one batch with [`graphjoin::Database::edit_rows`] semantics: a
    /// row named in both `del` and `ins` ends up deleted. Returns the number of
    /// rows that changed.
    pub fn apply(&mut self, name: &str, ins: &[Vec<i64>], del: &[Vec<i64>]) -> usize {
        let rows = self.0.entry(name.to_string()).or_default();
        let mut changed = 0;
        for row in del {
            changed += usize::from(rows.remove(row));
        }
        for row in ins {
            if !del.contains(row) {
                changed += usize::from(rows.insert(row.clone()));
            }
        }
        changed
    }

    /// Whether relation `name` holds exactly the rows of `relation`.
    pub fn matches(&self, name: &str, relation: &Relation) -> bool {
        self.rows(name).is_some_and(|rows| {
            rows.len() == relation.len() && relation.iter().all(|row| rows.contains(row))
        })
    }
}

/// One loop of the nested-loop plan: an atom, the atom columns already bound
/// when the loop runs (the index key) and the columns it binds.
struct Step {
    /// Key columns → flat list of the free columns' values.
    index: HashMap<Vec<i64>, Vec<i64>>,
    key_vars: Vec<usize>,
    free_vars: Vec<usize>,
    /// Filters `(x, y)`, meaning `x < y`, first decidable at this step.
    filters: Vec<(usize, usize)>,
}

/// Counts the answers of `query` over `tables` (set semantics, order filters
/// applied). Errors when the query names a relation `tables` lacks or an atom's
/// arity differs from its relation's.
pub fn count(query: &Query, tables: &Tables) -> Result<u64, String> {
    let mut relations = Vec::with_capacity(query.atoms.len());
    for atom in &query.atoms {
        let rows = tables
            .rows(&atom.relation)
            .ok_or_else(|| format!("{}: no relation {}", query.name, atom.relation))?;
        if rows.iter().any(|row| row.len() != atom.vars.len()) {
            return Err(format!("{}: arity mismatch on {}", query.name, atom.relation));
        }
        relations.push(rows);
    }

    // Greedy order: start from the smallest relation, then always take the
    // atom with the most variables already bound (ties: the smaller relation).
    let mut bound = vec![false; query.num_vars()];
    let mut decided = vec![false; query.filters.len()];
    let mut remaining: Vec<usize> = (0..query.atoms.len()).collect();
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .enumerate()
            .max_by_key(|&(_, &a)| {
                let shared = query.atoms[a].vars.iter().filter(|&&v| bound[v]).count();
                (shared, std::cmp::Reverse(relations[a].len()))
            })
            .map(|(pos, _)| pos)
            .ok_or("empty plan")?;
        let a = remaining.swap_remove(pick);
        let atom = &query.atoms[a];
        let key_cols: Vec<usize> = (0..atom.vars.len()).filter(|&c| bound[atom.vars[c]]).collect();
        let free_cols: Vec<usize> =
            (0..atom.vars.len()).filter(|&c| !bound[atom.vars[c]]).collect();
        let mut index: HashMap<Vec<i64>, Vec<i64>> = HashMap::new();
        for row in relations[a] {
            let key = key_cols.iter().map(|&c| row[c]).collect();
            index.entry(key).or_default().extend(free_cols.iter().map(|&c| row[c]));
        }
        for &c in &free_cols {
            bound[atom.vars[c]] = true;
        }
        let mut filters = Vec::new();
        for (i, &(x, y)) in query.filters.iter().enumerate() {
            if !decided[i] && bound[x] && bound[y] {
                decided[i] = true;
                filters.push((x, y));
            }
        }
        steps.push(Step {
            index,
            key_vars: key_cols.iter().map(|&c| atom.vars[c]).collect(),
            free_vars: free_cols.iter().map(|&c| atom.vars[c]).collect(),
            filters,
        });
    }
    if bound.iter().any(|b| !b) {
        return Err(format!("{}: a variable is bound by no atom", query.name));
    }
    let mut binding = vec![0i64; query.num_vars()];
    let mut key = Vec::new();
    Ok(descend(&steps, &mut binding, &mut key))
}

fn descend(steps: &[Step], binding: &mut [i64], key: &mut Vec<i64>) -> u64 {
    let Some((step, rest)) = steps.split_first() else { return 1 };
    key.clear();
    key.extend(step.key_vars.iter().map(|&v| binding[v]));
    let Some(values) = step.index.get(key.as_slice()) else { return 0 };
    let width = step.free_vars.len();
    if width == 0 {
        // A membership test: every variable of the atom was already bound.
        let passes = step.filters.iter().all(|&(x, y)| binding[x] < binding[y]);
        return if passes { descend(rest, binding, key) } else { 0 };
    }
    let mut total = 0;
    for tuple in values.chunks_exact(width) {
        for (&v, &value) in step.free_vars.iter().zip(tuple) {
            binding[v] = value;
        }
        if step.filters.iter().all(|&(x, y)| binding[x] < binding[y]) {
            total += if rest.is_empty() { 1 } else { descend(rest, binding, key) };
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gj_datagen::{LdbcConfig, SocialNetwork};
    use graphjoin::{naive_count, CatalogQuery, Graph, Instance, LdbcQuery};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(nodes: u32, edges: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs =
            (0..edges).map(|_| (rng.gen_range(0..nodes), rng.gen_range(0..nodes))).collect();
        Graph::new_undirected(nodes as usize, pairs)
    }

    fn sample(nodes: u32, seed: u64) -> Relation {
        let mut rng = StdRng::seed_from_u64(seed);
        Relation::from_values((0..i64::from(nodes)).filter(|_| rng.gen_bool(0.4)))
    }

    #[test]
    fn agrees_with_naive_count_on_the_graph_suite() {
        for seed in 0..6u64 {
            let graph = random_graph(14, 30, seed);
            let mut instance = Instance::new();
            instance.add_relation("edge", graph.edge_relation());
            for (i, name) in ["v1", "v2", "v3", "v4"].into_iter().enumerate() {
                instance.add_relation(name, sample(14, seed * 10 + i as u64));
            }
            let tables = Tables::from_relations(
                ["edge", "v1", "v2", "v3", "v4"]
                    .into_iter()
                    .map(|n| (n, instance.relation(n).expect("added above"))),
            );
            for cq in CatalogQuery::all() {
                let q = cq.query();
                assert_eq!(
                    count(&q, &tables),
                    Ok(naive_count(&instance, &q)),
                    "{} seed {seed}",
                    q.name
                );
            }
        }
    }

    #[test]
    fn agrees_with_naive_count_on_the_social_suite() {
        for seed in 0..3u64 {
            let config = LdbcConfig { persons: 24, tags: 6, seed, ..LdbcConfig::default() };
            let net = SocialNetwork::generate(&config).expect("tiny network");
            let mut instance = Instance::new();
            for (name, rel) in net.relations() {
                instance.add_relation(*name, rel.clone());
            }
            let tables = Tables::from_relations(net.relations().iter().map(|(n, r)| (*n, r)));
            for lq in LdbcQuery::all() {
                let q = lq.query();
                assert_eq!(
                    count(&q, &tables),
                    Ok(naive_count(&instance, &q)),
                    "{} seed {seed}",
                    q.name
                );
            }
        }
    }

    #[test]
    fn edits_follow_edit_rows_semantics() {
        let mut tables = Tables::from_relations([("r", &Relation::from_pairs([(1, 2), (3, 4)]))]);
        // (5, 6) is both inserted and deleted: it ends up absent.
        let changed = tables.apply("r", &[vec![5, 6], vec![1, 2]], &[vec![3, 4], vec![5, 6]]);
        assert_eq!(changed, 1);
        assert!(tables.matches("r", &Relation::from_pairs([(1, 2)])));
        assert!(
            count(&graphjoin::QueryBuilder::new("q").atom("s", &["a"]).build(), &tables).is_err()
        );
    }
}
