//! The benchmark of the graph-pattern join engines.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ldbc --seed 1 --seconds 45 --trace 0
//! ```
//!
//! One run generates a workload's inputs from the fixed `spec::DATA_SEED` and
//! sets them up several times (persist, reopen, cold prepare); `--seed` drives
//! the edit batches, the serving trace and the sample of checked reads. It
//! then measures for about `--seconds`:
//! analytics passes of four engines, serial and parallel; closed-loop serving
//! rounds; a durable edit series and LFTJ passes over the edited indexes. Every
//! answer is checked against the benchmark's own reference evaluator, the
//! store is reopened and compared with the applied edits, and the serving
//! history is checked. The last line of standard output is one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
//! See README.md for what each metric measures and why.

mod olap;
mod reference;
mod serve;
mod spec;
mod stats;
mod trace;

use stats::{median, quantile, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

/// One kind of step the run interleaves: a suite pass, a serving round, an
/// edit round or a set-up.
struct Task {
    /// Seconds of the run this task may spend.
    share: f64,
    /// Steps it makes whatever the time.
    min: usize,
    spent: f64,
    made: usize,
    /// Seconds of its latest step.
    last: f64,
}

impl Task {
    fn new(share: f64, min: usize) -> Self {
        Task { share, min, spent: 0.0, made: 0, last: 0.0 }
    }
}

/// The level `l` at which `sum(max(minimum[i], l)) == budget`, or 0 when the
/// minimums alone exceed the budget.
fn water_level(minimum: &[f64], budget: f64) -> f64 {
    let mut sorted = minimum.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    // The k largest minimums stay above the level; the rest share what is left.
    let mut above = 0.0;
    for (k, &m) in sorted.iter().enumerate() {
        let level = (budget - above) / (sorted.len() - k) as f64;
        if m <= level {
            return level;
        }
        above += m;
    }
    0.0
}

/// Attempted and failed operations, by kind; failures also by error kind.
#[derive(Debug, Default)]
pub struct Ops(Mutex<BTreeMap<String, (u64, u64)>>);

impl Ops {
    /// Counts one completed operation of `kind`.
    pub fn ok(&self, kind: &str) {
        self.bump(kind, false);
    }

    /// Counts one failed operation of `kind` with its error.
    pub fn failed(&self, kind: &str, err: &graphjoin::EngineError) {
        eprintln!("failed {kind}: {err}");
        self.bump(kind, true);
        let reason = match err {
            graphjoin::EngineError::Exec(e) => e.kind(),
            _ => "error",
        };
        self.entries().entry(format!("{kind}/{reason}")).or_default().1 += 1;
    }

    fn bump(&self, kind: &str, failed: bool) {
        let mut map = self.entries();
        let slot = map.entry(kind.to_string()).or_default();
        slot.0 += 1;
        slot.1 += u64::from(failed);
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, (u64, u64)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(attempted, failed)` over every kind.
    pub fn totals(&self) -> (u64, u64) {
        self.entries()
            .iter()
            .filter(|(k, _)| !k.contains('/'))
            .fold((0, 0), |t, (_, v)| (t.0 + v.0, t.1 + v.1))
    }
}

/// State shared by every phase of a run.
pub struct Run {
    /// The workload seed.
    pub seed: u64,
    /// Threads for parallel passes and serving sessions: the machine's
    /// available parallelism.
    pub threads: usize,
    /// Times calls; records spans in a traced run.
    pub tracer: Tracer,
    /// Operation accounting.
    pub ops: Ops,
    correct: AtomicBool,
}

impl Run {
    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("CHECK FAILED: {}", what());
            self.correct.store(false, Ordering::SeqCst);
        }
    }

    fn correct(&self) -> bool {
        self.correct.load(Ordering::SeqCst)
    }
}

struct Args {
    workload: spec::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(spec::workload(&value).ok_or_else(|| {
                    format!("unknown workload {value}; one of {}", spec::WORKLOADS.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => trace = matches!(value.as_str(), "1" | "true"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(45.0),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(0) => {}
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs every phase and prints the summary and the result line. Returns the
/// exit code.
fn run(args: &Args, work: &Path) -> Result<i32, String> {
    let wl = &args.workload;
    let run = Run {
        seed: args.seed,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        tracer: Tracer::new(args.trace),
        ops: Ops::default(),
        correct: AtomicBool::new(true),
    };
    // The first set-up is the one measured on; the others are spread over
    // the run, so `setup_s` samples the same conditions as the rest.
    let setup = olap::setup(&run, wl, &work.join("store"))?;
    let mut setup_secs = vec![setup.secs];
    let (indexes_built, cache_indexes, image_bytes) =
        (setup.indexes_built, setup.cache_indexes, setup.image_bytes);
    let olap::Setup { inputs, db, dir, .. } = setup;

    // References, outside every timed region.
    let reference_start = Instant::now();
    let base_tables = inputs.tables();
    let mut all_queries: Vec<&graphjoin::Query> = wl.suite.iter().collect();
    all_queries.extend(wl.reference_cells.iter().map(|(q, _)| q));
    let base_counts = olap::reference_counts(all_queries, &base_tables)?;
    let batches =
        spec::edit_batches(&base_tables, wl.edit_relations, wl.edit_batches, run.seed ^ 0xd0_ab1e);
    let mut editor = olap::Editor::new(wl, &dir, work, &base_tables, batches)?;
    let mut server = serve::Server::new(&run, wl, &db, &base_tables)?;
    let reference_secs = reference_start.elapsed().as_secs_f64();
    let mut analytics = olap::Analytics::new(&run, wl, &db, &base_counts);

    // Every task takes turns, one step at a time, until each has spent its
    // share of `--seconds` and made its minimum number of steps. After the
    // second turn (the suites' warm-up and first timed passes) the analytics
    // share is split so that suites too slow for an equal share make just
    // their minimum passes and the others share the rest equally. A suite's
    // minimum is costed at its timed pass: warm-up passes pay lazy set-up
    // (the first sort-merge pass takes about 4× a warm one).
    let [olap_share, serve_share, edit_share] = wl.shares.map(|s| s * args.seconds);
    let suites = olap::SUITES.len();
    let mut tasks: Vec<Task> = (0..suites)
        .map(|_| Task::new(0.0, olap::MIN_PASSES + 1))
        .chain([
            Task::new(serve_share, server.min_rounds()),
            Task::new(edit_share, 2),
            Task::new(0.0, SETUPS - 1),
        ])
        .collect();
    let start = Instant::now();
    for turn in 0.. {
        let mut ran = false;
        for (t, task) in tasks.iter_mut().enumerate() {
            if task.made >= task.min && task.spent >= task.share {
                continue;
            }
            ran = true;
            task.last = match t {
                t if t < suites => analytics.pass(&run, t),
                t if t == suites => server.round(&run)?,
                t if t == suites + 1 => editor.round(&run)?,
                _ => {
                    let extra = work.join(format!("setup-{}", task.made));
                    let secs = olap::setup(&run, wl, &extra)?.secs;
                    let _ = std::fs::remove_dir_all(&extra);
                    setup_secs.push(secs);
                    secs
                }
            };
            task.spent += task.last;
            task.made += 1;
        }
        if turn == 1 {
            let rest = (olap::MIN_PASSES - 1) as f64;
            let minimum: Vec<f64> =
                tasks[..suites].iter().map(|t| t.spent + t.last * rest).collect();
            let level = water_level(&minimum, olap_share);
            for (task, min) in tasks[..suites].iter_mut().zip(minimum) {
                task.share = level.max(min);
            }
        }
        if !ran {
            break;
        }
    }
    let measured_secs = start.elapsed().as_secs_f64();
    let served = server.finish(&run)?;
    let olap = analytics.out;
    let edits = editor.out;
    let edited = &edits.edited_ms;
    let pass = |name: &str| median(olap.passes.get(name).map_or(&[][..], Vec::as_slice));
    let lftj_ms = pass("lftj_ms");
    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setup_secs), "s");
    for name in [
        "lftj_ms",
        "minesweeper_ms",
        "hash_ms",
        "merge_ms",
        "lftj_par_ms",
        "minesweeper_par_ms",
        "pairwise_par_ms",
    ] {
        e2e.set(name, pass(name), "ms");
    }
    e2e.set("lftj_edited_ms", median(edited), "ms");
    let edit_ms = &edits.commit_ms;
    e2e.set("edit_p50_ms", median(edit_ms), "ms");
    e2e.set("edit_p90_ms", quantile(edit_ms, 0.9), "ms");
    e2e.set("read_p50_ms", median(&served.read_ms), "ms");
    e2e.set("read_p99_ms", quantile(&served.read_ms, 0.99), "ms");
    e2e.set("serve_ops_s", served.ops_per_s, "ops/s");

    let mut layers = Metrics::default();
    if run.tracer.enabled() {
        let spans = run.tracer.spans();
        let span_median = |name: &str, skip: &str| {
            let v: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name && s.detail != skip)
                .map(trace::Span::ms)
                .collect();
            median(&v)
        };
        layers.set("datagen.generate_ms", span_median("datagen.generate", ""), "ms");
        layers.set("store.persist_ms", span_median("store.persist", ""), "ms");
        layers.set("store.open_ms", span_median("store.open", "reopen"), "ms");
        layers.set("store.image_bytes", image_bytes as f64, "bytes");
        layers.set("store.commit_edits_ms", span_median("store.commit_edits", ""), "ms");
        layers.set("store.wal_bytes_per_row", edits.wal_bytes_per_row, "bytes");
        layers.set("core.edit_rows_ms", span_median("core.edit_rows", ""), "ms");
        let cold: f64 =
            spans.iter().filter(|s| s.name == "query.prepare_cold").map(trace::Span::ms).sum();
        layers.set("query.prepare_cold_ms", cold / SETUPS as f64, "ms");
        layers.set("query.indexes_built", indexes_built as f64, "count");
        layers.set("query.cache_indexes", cache_indexes as f64, "count");
        let lazy: f64 =
            olap.cells.values().map(|times| (times[0] - median(&times[1..])).max(0.0)).sum();
        layers.set("query.lazy_setup_ms", lazy, "ms");
        layers.set("query.prepare_warm_ms", served.prepare_warm_ms, "ms");
        layers.set("storage.delta_rows", edits.delta_rows as f64, "count");
        layers.set("storage.lftj_edited_ratio", median(edited) / lftj_ms, "ratio");
        layers.set("storage.serve_delta_rows", served.delta_rows as f64, "count");
        let counter = |name: &str| olap.counters.get(name).copied().unwrap_or(0) as f64;
        layers.set("lftj.bindings", counter("lftj.bindings"), "count");
        layers.set("lftj.ns_per_binding", lftj_ms * 1e6 / counter("lftj.bindings").max(1.0), "ns");
        for c in [
            "iterations",
            "probes",
            "probes_skipped",
            "constraints_inserted",
            "cds_nodes",
            "cached_intervals",
            "truncations",
        ] {
            layers.set(format!("minesweeper.{c}"), counter(&format!("minesweeper.{c}")), "count");
        }
        for e in ["hash", "merge"] {
            layers.set(
                format!("{e}.materialized_rows"),
                counter(&format!("{e}.materialized_rows")),
                "count",
            );
            layers.set(
                format!("{e}.peak_intermediate"),
                counter(&format!("{e}.peak_intermediate")),
                "count",
            );
        }
        // Per-engine serial time split along the paper's cyclic/acyclic line.
        for (e, _) in spec::engines() {
            for cyclic in [true, false] {
                let ms: f64 = olap
                    .cells
                    .iter()
                    .filter(|(cell, _)| cell.starts_with(&format!("{e}:")))
                    .filter(|(cell, _)| {
                        wl.suite.iter().any(|q| {
                            cell.ends_with(&format!(":{}", q.name)) && spec::is_cyclic(q) == cyclic
                        })
                    })
                    .map(|(_, times)| median(&times[1..]))
                    .sum();
                layers.set(
                    format!("{e}.{}_ms", if cyclic { "cyclic" } else { "acyclic" }),
                    ms,
                    "ms",
                );
            }
        }
        layers.set("runtime.morsels", counter("runtime.morsels"), "count");
        layers.set("runtime.lftj_speedup", lftj_ms / pass("lftj_par_ms"), "ratio");
        layers.set(
            "runtime.minesweeper_speedup",
            pass("minesweeper_ms") / pass("minesweeper_par_ms"),
            "ratio",
        );
        layers.set(
            "runtime.pairwise_speedup",
            (pass("hash_ms") + pass("merge_ms")) / pass("pairwise_par_ms"),
            "ratio",
        );
        layers.set("service.snapshot_clone_ms", served.snapshot_clone_ms, "ms");
        layers.set("service.edit_relation_ms", median(&served.edit_ms), "ms");
        layers.set("service.read_exec_ms", served.read_exec_ms, "ms");
        layers.set("service.history_events", served.history_events as f64, "count");
    }

    // The human-readable summary: everything above plus the per-query cells.
    println!(
        "workload {} seed {} threads {} seconds {} trace {}",
        wl.name,
        run.seed,
        run.threads,
        args.seconds,
        u8::from(args.trace)
    );
    for (i, secs) in setup_secs.iter().enumerate() {
        println!("setup {i}: {secs:.4} s");
    }
    println!(
        "reference and trace generation: {reference_secs:.3} s; measuring: {measured_secs:.3} s"
    );
    println!("edit rounds: {}", edits.rounds);
    for (cell, times) in &olap.cells {
        println!(
            "cell {cell}: first {:.3} ms, median {:.3} ms over {}",
            times[0],
            median(&times[1..]),
            times.len() - 1
        );
    }
    for (name, count, ms) in &olap.reference_cells {
        println!("reference cell {name}: count {count}, median {ms:.3} ms");
    }
    for (suite, times) in &olap.passes {
        let all: Vec<String> = times.iter().map(|t| format!("{t:.2}")).collect();
        println!(
            "suite {suite}: {} passes, quartiles {:.3} / {:.3} / {:.3} ms: {}",
            times.len(),
            quantile(times, 0.25),
            median(times),
            quantile(times, 0.75),
            all.join(" ")
        );
    }
    println!(
        "serve: {} rounds, {} reads, {} edits, {:.1} ops/s",
        served.rounds,
        served.read_ms.len(),
        served.edit_ms.len(),
        served.ops_per_s
    );
    for (kind, (attempted, failed)) in run.ops.entries().iter() {
        println!("ops {kind}: attempted {attempted}, failed {failed}");
    }
    for (name, value, unit) in e2e.iter() {
        println!("metric {name} = {value} {unit}");
    }
    if run.tracer.enabled() {
        for (name, ms) in trace::self_times(&run.tracer.spans()) {
            println!("self time {name}: {ms:.3} ms");
        }
        for (name, value, unit) in layers.iter() {
            println!("layer {name} = {value} {unit}");
        }
        let path = Path::new(".bench_work").join(format!("trace-{}-{}.jsonl", wl.name, run.seed));
        run.tracer.write(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }

    let (attempted, failed) = run.ops.totals();
    let metrics = if run.tracer.enabled() { &layers } else { &e2e };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    run.check(finite, || "a metric has no finite value".into());
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        run.correct(),
        metrics.to_json()
    );
    Ok(if run.correct() { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::water_level;

    #[test]
    fn water_level_gives_slow_suites_their_minimum_and_shares_the_rest() {
        assert_eq!(water_level(&[1.0, 1.0, 1.0, 1.0], 8.0), 2.0);
        // 10 s of minimums leave 2 s for the other three.
        assert!((water_level(&[10.0, 0.1, 0.2, 0.3], 12.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(water_level(&[10.0, 5.0], 12.0), 0.0);
    }
}
