//! The workloads: their inputs, query suites, read mixes and edit batches.
//!
//! The graph and the social network are generated from the fixed
//! [`DATA_SEED`]; the run's `--seed` drives the edit batches, the serving
//! trace and the sample of checked reads. The program under test only ever
//! sees the generated relations.

use crate::reference::Tables;
use gj_datagen::{powerlaw_cluster, sample_relations, LdbcConfig, SocialNetwork};
use graphjoin::{
    CatalogQuery, Database, Engine, ExecLimits, Graph, LdbcQuery, MsConfig, Query, Relation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// What a workload generates.
#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// A Holme–Kim power-law cluster graph plus `v1..v4` node samples.
    Graph {
        /// Nodes.
        nodes: usize,
        /// Edges each new node attaches with.
        degree: usize,
        /// Each sample keeps a node with probability `1/selectivity`.
        selectivity: u32,
    },
    /// The typed social network of `SocialNetwork::generate`.
    Social {
        /// Persons (tags scale with them).
        persons: usize,
    },
}

/// One workload: inputs, what runs on them, and how the run's measuring time
/// is shared between the phases.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Generated inputs.
    pub data: Data,
    /// Queries every engine counts in the analytics passes.
    pub suite: Vec<Query>,
    /// Count-only cells checked once per run (graph engine, hybrid).
    pub reference_cells: Vec<(Query, Engine)>,
    /// Reads the serving sessions draw from, uniformly.
    pub read_mix: Vec<(Query, Engine)>,
    /// Relations edit batches go to.
    pub edit_relations: &'static [&'static str],
    /// Durable edit batches in the edit series.
    pub edit_batches: usize,
    /// Operations in one serving round (a fresh service replays the same
    /// trace each round).
    pub round_ops: usize,
    /// Shares of `--seconds` given to the analytics passes, the serving
    /// rounds and the post-edit LFTJ passes.
    pub shares: [f64; 3],
}

/// The four engines every analytics pass runs, by metric prefix.
pub fn engines() -> [(&'static str, Engine); 4] {
    [
        ("lftj", Engine::Lftj),
        ("minesweeper", Engine::Minesweeper(MsConfig::default())),
        ("hash", Engine::HashJoin(ExecLimits::default())),
        ("merge", Engine::SortMergeJoin(ExecLimits::default())),
    ]
}

/// Whether `query` is cyclic (the paper's split of the suite).
pub fn is_cyclic(query: &Query) -> bool {
    CatalogQuery::all().iter().any(|c| c.name() == query.name && c.is_cyclic())
        || LdbcQuery::all().iter().any(|l| l.name() == query.name && l.is_cyclic())
}

/// A serving read mix: each of `queries` on each serving engine (LFTJ,
/// Minesweeper, hash join).
fn read_mix(queries: &[Query]) -> Vec<(Query, Engine)> {
    let [lftj, ms, hash, _] = engines().map(|(_, e)| e);
    queries
        .iter()
        .flat_map(|q| {
            [(q.clone(), lftj.clone()), (q.clone(), ms.clone()), (q.clone(), hash.clone())]
        })
        .collect()
}

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "graph-olap" => Workload {
            name: "graph-olap",
            data: Data::Graph { nodes: 1000, degree: 8, selectivity: 10 },
            suite: [
                CatalogQuery::ThreeClique,
                CatalogQuery::FourClique,
                CatalogQuery::FourCycle,
                CatalogQuery::ThreePath,
                CatalogQuery::TwoComb,
                CatalogQuery::OneTree,
            ]
            .iter()
            .map(CatalogQuery::query)
            .collect(),
            reference_cells: vec![
                (CatalogQuery::ThreeClique.query(), Engine::GraphEngine),
                (CatalogQuery::FourClique.query(), Engine::GraphEngine),
                (
                    CatalogQuery::TwoLollipop.query(),
                    Engine::hybrid_for(CatalogQuery::TwoLollipop).expect("2-lollipop splits"),
                ),
            ],
            // The suite's cheapest acyclic and cyclic queries: on every
            // engine, 1-tree and 3-clique take the least time of the suite.
            read_mix: read_mix(&[CatalogQuery::OneTree.query(), CatalogQuery::ThreeClique.query()]),
            edit_relations: &["edge"],
            edit_batches: 120,
            round_ops: 300,
            shares: [0.6, 0.25, 0.15],
        },
        "ldbc" => Workload {
            name: "ldbc",
            data: Data::Social { persons: 300 },
            suite: LdbcQuery::all().iter().map(LdbcQuery::query).collect(),
            reference_cells: Vec::new(),
            // Cheap social patterns, 0.1–14 ms a read.
            read_mix: read_mix(
                &[
                    LdbcQuery::TwoHopFriends,
                    LdbcQuery::FriendTriangle,
                    LdbcQuery::FreshLikes,
                    LdbcQuery::CommonTagPair,
                ]
                .map(|lq| lq.query()),
            ),
            edit_relations: &["knows", "likes", "hasTag"],
            edit_batches: 75,
            round_ops: 400,
            shares: [0.6, 0.3, 0.1],
        },
        _ => return None,
    })
}

/// Seed of the generated graph and social network. At these sizes the work
/// of the query suites varies up to 2.5× between generated instances (which
/// persons a sample holds decides `3-hop-friends` and `fan-fan-tag`), far
/// more than any regression bound, so every run measures the same instance
/// and the run's seed varies the edit and traffic streams instead.
pub const DATA_SEED: u64 = 0x5eed;

/// Names of every workload.
pub const WORKLOADS: [&str; 2] = ["graph-olap", "ldbc"];

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The graph, for the graph workload.
    pub graph: Option<Graph>,
    /// Every relation (for the graph workload: `edge` and the samples).
    pub relations: Vec<(String, Relation)>,
}

impl Inputs {
    /// Generates the inputs of `data` from `seed`.
    pub fn generate(data: Data, seed: u64) -> Inputs {
        match data {
            Data::Graph { nodes, degree, selectivity } => {
                let graph = powerlaw_cluster(nodes, degree, 0.4, seed);
                let mut relations = vec![("edge".to_string(), graph.edge_relation())];
                relations.extend(sample_relations(nodes, selectivity, 4, seed ^ 0x5a3c));
                Inputs { graph: Some(graph), relations }
            }
            Data::Social { persons } => {
                let config = LdbcConfig {
                    persons,
                    tags: (persons / 8).clamp(16, 400),
                    seed,
                    ..LdbcConfig::default()
                };
                let net =
                    SocialNetwork::generate(&config).expect("valid social-network configuration");
                let relations =
                    net.relations().iter().map(|(n, r)| (n.to_string(), r.clone())).collect();
                Inputs { graph: None, relations }
            }
        }
    }

    /// An in-memory database over the inputs.
    pub fn database(&self) -> Database {
        let mut db = Database::new();
        if let Some(graph) = &self.graph {
            db.add_graph(graph.clone());
        }
        for (name, rel) in &self.relations {
            if name != "edge" || self.graph.is_none() {
                db.add_relation(name.clone(), rel.clone());
            }
        }
        db
    }

    /// The benchmark's own copy of the inputs.
    pub fn tables(&self) -> Tables {
        Tables::from_relations(self.relations.iter().map(|(n, r)| (n.as_str(), r)))
    }
}

/// One edit batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Target relation.
    pub relation: &'static str,
    /// Rows entering.
    pub ins: Vec<Vec<i64>>,
    /// Rows leaving.
    pub del: Vec<Vec<i64>>,
}

/// Relations stored with both orientations of each pair; their edits keep
/// that symmetry.
fn symmetric(relation: &str) -> bool {
    matches!(relation, "edge" | "knows")
}

/// Rows (pairs, for symmetric relations) each edit batch deletes, and as many
/// it inserts. One size for every batch keeps the edit latency unimodal: with
/// a seeded mix of sizes the median fell between the sizes' clusters and
/// moved with the seed.
const BATCH_UNITS: usize = 2;

/// Generates `count` edit batches over `relations` of `base`, each deleting
/// and inserting [`BATCH_UNITS`] rows (pairs, for symmetric relations). No row is deleted
/// or inserted twice and no inserted row exists in `base`, so every batch
/// changes the state whatever order the batches land in, and the state after
/// any subset of them is `base` plus that subset.
pub fn edit_batches(
    base: &Tables,
    relations: &[&'static str],
    count: usize,
    seed: u64,
) -> Vec<Batch> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut used: BTreeSet<Vec<i64>> = BTreeSet::new();
    let mut deletable: Vec<Vec<Vec<i64>>> = relations
        .iter()
        .map(|r| {
            let mut rows: Vec<Vec<i64>> = base
                .rows(r)
                .map(|rows| {
                    rows.iter().filter(|row| !symmetric(r) || row[0] < row[1]).cloned().collect()
                })
                .unwrap_or_default();
            // Deletes are drawn without replacement.
            shuffle(&mut rows, &mut rng);
            rows
        })
        .collect();
    let mut batches = Vec::with_capacity(count);
    for i in 0..count {
        let which = i % relations.len();
        let relation = relations[which];
        let rows = base.rows(relation).expect("edit relations exist in the inputs");
        let mut batch = Batch { relation, ins: Vec::new(), del: Vec::new() };
        for _ in 0..BATCH_UNITS {
            let row = deletable[which].pop().expect("enough rows to delete");
            if symmetric(relation) {
                batch.del.push(vec![row[1], row[0]]);
            }
            batch.del.push(row);
            let fresh = loop {
                match fresh_row(relation, base, &mut rng) {
                    Some(row) if !rows.contains(&row) && !used.contains(&row) => break row,
                    _ => continue,
                }
            };
            if symmetric(relation) {
                let mirror = vec![fresh[1], fresh[0]];
                used.insert(mirror.clone());
                batch.ins.push(mirror);
            }
            used.insert(fresh.clone());
            batch.ins.push(fresh);
        }
        batches.push(batch);
    }
    batches
}

/// Fisher–Yates shuffle of `items`.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// A candidate row for `relation` drawn from the values its columns already
/// use (`None` for a self-loop).
fn fresh_row(relation: &str, base: &Tables, rng: &mut StdRng) -> Option<Vec<i64>> {
    let pick = |name: &str, rng: &mut StdRng| -> Vec<i64> {
        let rows = base.rows(name).expect("relation exists");
        rows.iter().nth(rng.gen_range(0..rows.len())).expect("index in range").clone()
    };
    match relation {
        "edge" | "knows" => {
            // Endpoints of two existing rows, so they stay in the node domain.
            let a = pick(relation, rng)[0];
            let b = pick(relation, rng)[1];
            (a != b).then(|| vec![a.min(b), a.max(b)])
        }
        "likes" => {
            // A person who likes something, and a post on its creation day.
            let person = pick("likes", rng)[0];
            let post = pick("post", rng);
            Some(vec![person, post[0], post[1]])
        }
        "hasTag" => {
            let post = pick("post", rng)[0];
            let tag = pick("tag", rng)[0];
            Some(vec![post, tag])
        }
        other => panic!("no edit generator for relation {other}"),
    }
}
