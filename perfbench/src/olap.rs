//! Set-up, the analytics passes, the durable edit series and the reopen check.

use crate::reference::{self, Tables};
use crate::spec::{engines, is_cyclic, Batch, Inputs, Workload};
use crate::stats::median;
use crate::Run;
use graphjoin::{CountSink, Database, Engine, PreparedQuery, Query, RunStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One set-up: inputs generated, persisted, reopened from disk, and every
/// timed cell prepared cold.
pub struct Setup {
    /// The generated inputs.
    pub inputs: Inputs,
    /// The database reopened from its store.
    pub db: Database,
    /// Where the store lives.
    pub dir: PathBuf,
    /// Wall time of the whole set-up, in seconds.
    pub secs: f64,
    /// Trie indexes the cold prepares built.
    pub indexes_built: usize,
    /// Indexes in the shared cache afterwards.
    pub cache_indexes: usize,
    /// Bytes of the checkpoint image and WAL right after persisting.
    pub image_bytes: u64,
}

/// Every (query, engine) cell a workload times or checks.
fn cells(wl: &Workload) -> Vec<(Query, Engine)> {
    let mut cells: Vec<(Query, Engine)> = engines()
        .into_iter()
        .flat_map(|(_, engine)| wl.suite.iter().map(move |q| (q.clone(), engine.clone())))
        .collect();
    cells.extend(wl.reference_cells.iter().cloned());
    cells
}

/// Runs one set-up into `dir`.
pub fn setup(run: &Run, wl: &Workload, dir: &Path) -> Result<Setup, String> {
    let tracer = &run.tracer;
    let start = Instant::now();
    let (db, secs, indexes_built, cache_indexes, image_bytes, inputs) = tracer
        .time("setup", wl.name, || -> Result<_, String> {
            let (inputs, _) = tracer.ms("datagen.generate", wl.name, || {
                Inputs::generate(wl.data, crate::spec::DATA_SEED)
            });
            let (memory, _) = tracer.ms("core.load", wl.name, || inputs.database());
            let (persisted, _) = tracer.ms("store.persist", wl.name, || memory.persist(dir));
            persisted.map_err(|e| format!("persist: {e}"))?;
            let image_bytes = dir_bytes(dir);
            let (opened, _) = tracer.ms("store.open", wl.name, || Database::open(dir));
            let db = opened.map_err(|e| format!("open: {e}"))?;
            let mut built = 0;
            for (query, engine) in cells(wl) {
                let detail = cell_name(&query, &engine);
                let (prepared, _) =
                    tracer.ms("query.prepare_cold", &detail, || db.prepare(&query, &engine));
                built += prepared.map_err(|e| format!("prepare {detail}: {e}"))?.indexes_built();
            }
            let cache_indexes = db.cache().len();
            Ok((db, start.elapsed().as_secs_f64(), built, cache_indexes, image_bytes, inputs))
        })
        .0?;
    Ok(Setup {
        inputs,
        db,
        dir: dir.to_path_buf(),
        secs,
        indexes_built,
        cache_indexes,
        image_bytes,
    })
}

/// Total size of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// `engine-label:query` — how cells are named in spans and the summary.
pub fn cell_name(query: &Query, engine: &Engine) -> String {
    format!("{}:{}", engine_prefix(engine), query.name)
}

/// The metric prefix of an engine.
pub fn engine_prefix(engine: &Engine) -> &'static str {
    match engine {
        Engine::Lftj => "lftj",
        Engine::Minesweeper(_) => "minesweeper",
        Engine::HashJoin(_) => "hash",
        Engine::SortMergeJoin(_) => "merge",
        Engine::GraphEngine => "graph",
        Engine::Hybrid { .. } => "hybrid",
    }
}

/// Reference counts of `queries` over `tables`.
pub fn reference_counts<'q>(
    queries: impl IntoIterator<Item = &'q Query>,
    tables: &Tables,
) -> Result<BTreeMap<String, u64>, String> {
    queries.into_iter().map(|q| Ok((q.name.clone(), reference::count(q, tables)?))).collect()
}

/// The analytics suites: engines (indexes into [`engines`]) run serially or on
/// every thread, each pass counting every query of the suite.
pub const SUITES: [(&str, &[usize], bool); 7] = [
    ("lftj_ms", &[0], false),
    ("lftj_par_ms", &[0], true),
    ("minesweeper_ms", &[1], false),
    ("minesweeper_par_ms", &[1], true),
    ("hash_ms", &[2], false),
    ("merge_ms", &[3], false),
    ("pairwise_par_ms", &[2, 3], true),
];

/// Timed passes each suite runs at least, after its first (warm-up) pass.
pub const MIN_PASSES: usize = 5;

/// What the analytics passes measured.
#[derive(Debug, Default)]
pub struct Olap {
    /// Suite metric → each timed pass's mean time of one suite, in ms.
    pub passes: BTreeMap<&'static str, Vec<f64>>,
    /// Serial cell (`engine:query`) → [first execution, later executions...].
    pub cells: BTreeMap<String, Vec<f64>>,
    /// Counters from the first serial pass of each engine, and morsels from
    /// the first parallel pass of each suite.
    pub counters: BTreeMap<String, u64>,
    /// Reference cells: name → (count, ms).
    pub reference_cells: Vec<(String, u64, f64)>,
}

/// Counts one cell serially (`parallel == false`) or on the run's threads,
/// checking the answer and accounting the operation under `kind`. Returns the run statistics and the time in ms.
fn count_cell(
    run: &Run,
    kind: &'static str,
    prepared: &PreparedQuery<'_>,
    parallel: bool,
    expect: u64,
) -> Option<(RunStats, f64)> {
    let detail = cell_name(prepared.query(), prepared.engine());
    let span = if parallel { "runtime.count" } else { serial_span(prepared.engine()) };
    let (result, ms) = run.tracer.ms(span, &detail, || {
        if parallel {
            let mut sink = CountSink::new();
            prepared.run_parallel(&mut sink, run.threads).map(|stats| (sink.rows(), stats))
        } else {
            prepared.count_with_stats()
        }
    });
    match result {
        Ok((count, stats)) => {
            run.ops.ok(kind);
            run.check(count == expect, || {
                format!("{detail} ({kind}): counted {count}, reference {expect}")
            });
            Some((stats, ms))
        }
        Err(e) => {
            run.ops.failed(kind, &e);
            None
        }
    }
}

fn serial_span(engine: &Engine) -> &'static str {
    match engine {
        Engine::Lftj => "lftj.count",
        Engine::Minesweeper(_) => "minesweeper.count",
        Engine::HashJoin(_) => "hash.count",
        Engine::SortMergeJoin(_) => "merge.count",
        _ => "reference.count",
    }
}

/// The analytics suites of one database, prepared once and run a pass at a
/// time.
pub struct Analytics<'db> {
    /// Per suite, per engine of the suite, one prepared query per suite
    /// query. Suites never share a prepared query, so the state a pairwise
    /// plan keeps between executions stays with one suite.
    prepared: Vec<Vec<Vec<PreparedQuery<'db>>>>,
    expect: &'db BTreeMap<String, u64>,
    /// What the passes measured.
    pub out: Olap,
}

impl<'db> Analytics<'db> {
    /// Prepares every suite cell of `wl` on `db`.
    pub fn new(
        run: &Run,
        wl: &Workload,
        db: &'db Database,
        expect: &'db BTreeMap<String, u64>,
    ) -> Self {
        let engines = engines();
        let mut prepared = Vec::new();
        for (_, suite_engines, _) in SUITES {
            let mut suite = Vec::new();
            for &e in suite_engines {
                let engine = &engines[e].1;
                let mut row = Vec::new();
                for q in &wl.suite {
                    match db.prepare(q, engine) {
                        Ok(p) => row.push(p),
                        Err(e) => {
                            run.check(false, || format!("prepare {}: {e}", cell_name(q, engine)))
                        }
                    }
                }
                suite.push(row);
            }
            prepared.push(suite);
        }
        let mut out = Olap::default();
        for (query, engine) in &wl.reference_cells {
            let name = cell_name(query, engine);
            let Ok(p) = db.prepare(query, engine) else {
                run.check(false, || format!("prepare {name}"));
                continue;
            };
            let expect = expect[&query.name];
            let times: Vec<f64> = (0..MIN_PASSES)
                .filter_map(|_| {
                    count_cell(run, "olap.reference", &p, false, expect).map(|(_, ms)| ms)
                })
                .collect();
            out.reference_cells.push((name, expect, median(&times)));
        }
        Analytics { prepared, expect, out }
    }

    /// Runs one pass of suite `s` (an index into [`SUITES`]); the first pass
    /// of a suite warms it up and is kept out of its pass times.
    pub fn pass(&mut self, run: &Run, s: usize) -> f64 {
        let (metric, _, parallel) = SUITES[s];
        let first = !self.out.passes.contains_key(metric);
        let kind = if parallel { "olap.parallel" } else { "olap.serial" };
        let (reps, took) = run.tracer.time("olap.pass", metric, || {
            repeat_suite(!first, || {
                for row in &self.prepared[s] {
                    for p in row {
                        let Some((stats, ms)) =
                            count_cell(run, kind, p, parallel, self.expect[&p.query().name])
                        else {
                            continue;
                        };
                        if !parallel {
                            self.out
                                .cells
                                .entry(cell_name(p.query(), p.engine()))
                                .or_default()
                                .push(ms);
                        }
                        if first {
                            note_counters(&mut self.out.counters, p, &stats, parallel);
                        }
                    }
                }
            })
        });
        let secs = took.as_secs_f64();
        let times = self.out.passes.entry(metric).or_default();
        if !first {
            times.push(secs * 1e3 / reps as f64);
        }
        secs
    }
}

/// Shortest timed pass. A timed pass of a faster suite counts the whole suite
/// again until it has taken this long, and its time is the mean per suite:
/// single passes of the 15–60 ms `ldbc` suites varied by ±30 % within a run,
/// and their medians jumped between runs.
pub const MIN_PASS_MS: f64 = 100.0;

/// Runs `suite` once, or, for a `timed` pass, until [`MIN_PASS_MS`] have
/// passed; returns how many times it ran.
fn repeat_suite(timed: bool, mut suite: impl FnMut()) -> u32 {
    let start = Instant::now();
    let mut reps = 0;
    while reps == 0 || (timed && start.elapsed().as_secs_f64() * 1e3 < MIN_PASS_MS) {
        suite();
        reps += 1;
    }
    reps
}

/// Adds one execution's counters under `<engine>.<counter>` (serial) or to
/// `runtime.morsels` (parallel).
fn note_counters(
    counters: &mut BTreeMap<String, u64>,
    p: &PreparedQuery<'_>,
    stats: &RunStats,
    parallel: bool,
) {
    if parallel {
        *counters.entry("runtime.morsels".into()).or_default() += stats.morsels as u64;
        return;
    }
    let prefix = engine_prefix(p.engine());
    for &(name, value) in &stats.extras {
        let key = match name {
            "bindings_explored" => "bindings",
            other => other,
        };
        let slot = counters.entry(format!("{prefix}.{key}")).or_default();
        if key == "peak_intermediate" {
            *slot = (*slot).max(value);
        } else {
            *slot += value;
        }
    }
    let class = if is_cyclic(p.query()) { "cyclic" } else { "acyclic" };
    *counters.entry(format!("{prefix}.{class}_queries")).or_default() += 1;
}

/// Timed LFTJ passes per edit round, after one warm-up pass. Commit times
/// differ by up to 40 % from one edit round to the next within a run, so a
/// run makes more, shorter rounds rather than fewer, longer ones.
const EDITED_PASSES: usize = 2;

/// What the durable edit rounds measured.
#[derive(Debug, Default)]
pub struct Edits {
    /// `commit_edits` time of each batch, in ms (`inf` for a failed one).
    pub commit_ms: Vec<f64>,
    /// LFTJ pass times over the edited indexes, in ms.
    pub edited_ms: Vec<f64>,
    /// WAL bytes appended per effective row.
    pub wal_bytes_per_row: f64,
    /// Pending delta rows over the edited relations after a series.
    pub delta_rows: u64,
    /// Rounds run.
    pub rounds: usize,
}

/// Durable edit rounds. Each round opens a fresh copy of the set-up's store,
/// warms the LFTJ indexes, applies the whole batch series through
/// `commit_edits` (and, without durability, to an in-memory twin), times an
/// LFTJ pass over the base-plus-delta indexes, then reopens the store and
/// compares every relation with the benchmark's own copy of the edits.
pub struct Editor<'a> {
    wl: &'a Workload,
    store: PathBuf,
    work: PathBuf,
    batches: Vec<Batch>,
    /// Rows each batch changes, by the benchmark's own copy.
    changes: Vec<usize>,
    /// The benchmark's copy of the state after the series.
    tables: Tables,
    expect: BTreeMap<String, u64>,
    /// What the rounds measured.
    pub out: Edits,
}

impl<'a> Editor<'a> {
    /// Edit rounds of `batches` against copies of the store in `store`, whose
    /// contents `base` copies; scratch stores go under `work`.
    pub fn new(
        wl: &'a Workload,
        store: &Path,
        work: &Path,
        base: &Tables,
        batches: Vec<Batch>,
    ) -> Result<Self, String> {
        let mut tables = base.clone();
        let changes = batches.iter().map(|b| tables.apply(b.relation, &b.ins, &b.del)).collect();
        let expect = reference_counts(&wl.suite, &tables)?;
        let (store, work) = (store.to_path_buf(), work.to_path_buf());
        Ok(Editor { wl, store, work, batches, changes, tables, expect, out: Edits::default() })
    }

    /// Runs one round; returns its wall time in seconds.
    pub fn round(&mut self, run: &Run) -> Result<f64, String> {
        let start = Instant::now();
        let dir = self.work.join(format!("edit-{}", self.out.rounds));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        for file in ["data.gj", "wal.gj"] {
            std::fs::copy(self.store.join(file), dir.join(file))
                .map_err(|e| format!("copy {file}: {e}"))?;
        }
        let (opened, _) = run.tracer.ms("store.open", "edit", || Database::open(&dir));
        let mut db = opened.map_err(|e| format!("open {}: {e}", dir.display()))?;
        for q in &self.wl.suite {
            if let Err(e) = db.prepare(q, &Engine::Lftj) {
                run.check(false, || format!("prepare {}: {e}", q.name));
            }
        }
        let mut twin = db.clone();
        let wal = dir.join("wal.gj");
        let wal_before = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        let mut rows = 0;
        for (b, &expect) in self.batches.iter().zip(&self.changes) {
            rows += expect;
            let (committed, ms) = run.tracer.ms("store.commit_edits", b.relation, || {
                db.commit_edits(b.relation, &b.ins, &b.del)
            });
            match committed {
                Ok(n) => {
                    run.ops.ok("edit.commit");
                    run.check(n == expect, || {
                        format!(
                            "commit_edits on {} changed {n} rows, expected {expect}",
                            b.relation
                        )
                    });
                    self.out.commit_ms.push(ms);
                }
                Err(e) => {
                    run.ops.failed("edit.commit", &e);
                    self.out.commit_ms.push(f64::INFINITY);
                }
            }
            let (edited, _) = run
                .tracer
                .ms("core.edit_rows", b.relation, || twin.edit_rows(b.relation, &b.ins, &b.del));
            match edited {
                Ok(n) => {
                    run.ops.ok("edit.twin");
                    run.check(n == expect, || {
                        format!("edit_rows on {} changed {n} rows, expected {expect}", b.relation)
                    });
                }
                Err(e) => run.ops.failed("edit.twin", &e),
            }
        }
        drop(twin);
        let wal_after = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
        self.out.wal_bytes_per_row =
            wal_after.saturating_sub(wal_before) as f64 / rows.max(1) as f64;
        self.out.delta_rows =
            self.wl.edit_relations.iter().map(|r| db.cache().pending_delta_len(r) as u64).sum();
        run.check(self.out.delta_rows > 0, || {
            "the edit series left no pending delta to merge".into()
        });

        // Passes over the edited indexes: the first warms, the others are timed.
        let prepared: Vec<PreparedQuery<'_>> =
            self.wl.suite.iter().filter_map(|q| db.prepare(q, &Engine::Lftj).ok()).collect();
        for pass in 0..=EDITED_PASSES {
            let timed = pass > 0;
            let (reps, took) = run.tracer.time("olap.pass", "lftj_edited_ms", || {
                repeat_suite(timed, || {
                    for p in &prepared {
                        count_cell(run, "olap.edited", p, false, self.expect[&p.query().name]);
                    }
                })
            });
            if timed {
                self.out.edited_ms.push(took.as_secs_f64() * 1e3 / reps as f64);
            }
        }
        drop(prepared);
        drop(db);

        let (reopened, _) = run.tracer.ms("store.open", "reopen", || Database::open(&dir));
        match reopened {
            Ok(db) => {
                for name in self.tables.names() {
                    let same = db
                        .instance()
                        .relation(name)
                        .is_some_and(|rel| self.tables.matches(name, rel));
                    run.check(same, || {
                        format!("relation {name} after reopen differs from the committed batches")
                    });
                }
            }
            Err(e) => run.check(false, || format!("reopen after the edit series: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
        self.out.rounds += 1;
        Ok(start.elapsed().as_secs_f64())
    }
}
