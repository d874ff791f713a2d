//! Serving rounds: closed-loop sessions replaying a seeded read/edit trace
//! through `gj-service`, with the read and history checks.

use crate::olap::cell_name;
use crate::reference::{self, Tables};
use crate::spec::{edit_batches, shuffle, Batch, Workload};
use crate::stats::median;
use crate::Run;
use gj_service::{Service, ServiceConfig, SessionEvent};
use graphjoin::{Database, QueryBudget};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Share of trace operations that are edit batches.
const EDIT_SHARE: f64 = 0.25;
/// Completed reads per round checked against the reference at their epoch.
const CHECKED_READS: usize = 24;
/// Reads a run makes at least, so that `read_p99_ms` has ten reads beyond it.
const MIN_READS: usize = 1000;

/// One trace operation.
enum Op {
    /// A read of `read_mix[i]`.
    Read(usize),
    /// An edit batch.
    Edit(Batch),
}

/// One finished operation as its session saw it.
struct Done {
    /// Position in the trace.
    op: usize,
    ms: f64,
    /// Epoch an edit produced; `None` for a read or a failure.
    epoch: Option<u64>,
    ok: bool,
}

/// What the serving rounds measured.
#[derive(Debug, Default)]
pub struct Serve {
    /// Latency of every read, in ms (`inf` for a failed one).
    pub read_ms: Vec<f64>,
    /// Latency of every edit, in ms (`inf` for a failed one).
    pub edit_ms: Vec<f64>,
    /// Completed operations per second of round wall time.
    pub ops_per_s: f64,
    /// Rounds replayed.
    pub rounds: usize,
    /// `Database::clone` of the final snapshot, median ms.
    pub snapshot_clone_ms: f64,
    /// Direct prepare + count of the read mix on the final snapshot: the
    /// mean over the mix of each cell's median, in ms.
    pub read_exec_ms: f64,
    /// Warm `Database::prepare` of the read mix: the mean over the mix of each
    /// cell's median, in ms.
    pub prepare_warm_ms: f64,
    /// History events one round records.
    pub history_events: u64,
    /// Pending delta rows over the edited relations of the final snapshot.
    pub delta_rows: u64,
}

/// Serving rounds over one base database: each round replays the same
/// seeded trace on a fresh service created over `base`.
pub struct Server<'a> {
    wl: &'a Workload,
    base: &'a Database,
    tables: &'a Tables,
    trace: Vec<Op>,
    /// The benchmark's copy of the state after every edit of the trace.
    final_tables: Tables,
    final_counts: BTreeMap<String, u64>,
    config: ServiceConfig,
    wall: f64,
    completed: usize,
    first: Option<Service>,
    last: Option<Service>,
    /// What the rounds measured.
    pub out: Serve,
}

impl<'a> Server<'a> {
    /// Generates the trace from the run's seed.
    pub fn new(
        run: &Run,
        wl: &'a Workload,
        base: &'a Database,
        tables: &'a Tables,
    ) -> Result<Self, String> {
        // Every seed's trace holds the same operations, in its own order: a
        // fixed number of edits, and reads spread evenly over the mix. With
        // each operation drawn at random, the share of slow reads varied
        // with the seed and `serve_ops_s` spread by 19 % across five seeds.
        let mut rng = StdRng::seed_from_u64(run.seed ^ 0x5e7e);
        let edits = (wl.round_ops as f64 * EDIT_SHARE).round() as usize;
        let mut shape: Vec<Option<usize>> = (0..wl.round_ops - edits)
            .map(|i| Some(i % wl.read_mix.len()))
            .chain((0..edits).map(|_| None))
            .collect();
        shuffle(&mut shape, &mut rng);
        let mut batches =
            edit_batches(tables, wl.edit_relations, edits, run.seed ^ 0xed17).into_iter();
        let trace: Vec<Op> = shape
            .into_iter()
            .map(|read| match read {
                Some(r) => Op::Read(r),
                None => Op::Edit(batches.next().expect("one batch per edit")),
            })
            .collect();
        let mut final_tables = tables.clone();
        for op in &trace {
            if let Op::Edit(b) = op {
                final_tables.apply(b.relation, &b.ins, &b.del);
            }
        }
        let final_counts =
            crate::olap::reference_counts(wl.read_mix.iter().map(|(q, _)| q), &final_tables)?;
        let config = ServiceConfig {
            max_concurrent: run.threads,
            queue_depth: run.threads,
            exec_threads: 1,
            default_budget: QueryBudget::new(),
        };
        Ok(Server {
            wl,
            base,
            tables,
            trace,
            final_tables,
            final_counts,
            config,
            wall: 0.0,
            completed: 0,
            first: None,
            last: None,
            out: Serve::default(),
        })
    }

    /// Rounds a run makes at least: enough for [`MIN_READS`] reads.
    pub fn min_rounds(&self) -> usize {
        let reads = self.trace.iter().filter(|op| matches!(op, Op::Read(_))).count();
        MIN_READS.div_ceil(reads.max(1))
    }

    /// Replays the trace once on `run.threads` closed-loop sessions and
    /// checks the round; returns its wall time in seconds.
    pub fn round(&mut self, run: &Run) -> Result<f64, String> {
        let service = Service::new(self.base.clone(), self.config.clone());
        let sessions = run.threads;
        let (per_session, took) = run.tracer.time("serve.round", self.wl.name, || {
            // Each session's spans are children of this round's span.
            let parent = run.tracer.current();
            gj_runtime::scoped_workers(sessions, |w| {
                run.tracer.adopt(parent);
                replay_session(run, self.wl, &service, &self.trace, w, sessions)
            })
        });
        self.wall += took.as_secs_f64();
        let mut done = Vec::with_capacity(self.trace.len());
        for session in per_session {
            done.extend(session.map_err(|e| format!("session worker: {e}"))?);
        }
        self.completed += done.iter().filter(|d| d.ok).count();
        for d in &done {
            let ms = if d.ok { d.ms } else { f64::INFINITY };
            match self.trace[d.op] {
                Op::Read(_) => self.out.read_ms.push(ms),
                Op::Edit(_) => self.out.edit_ms.push(ms),
            }
        }
        let history = service.history();
        self.out.history_events = history.len() as u64;
        self.check_round(run, &done, &history, &service.snapshot())?;
        self.out.rounds += 1;
        if self.first.is_none() {
            self.first = Some(service);
        } else {
            self.last = Some(service);
        }
        Ok(took.as_secs_f64())
    }

    /// Measures the final snapshot directly and checks the first round's
    /// history serially.
    pub fn finish(mut self, run: &Run) -> Result<Serve, String> {
        let wl = self.wl;
        self.out.ops_per_s = self.completed as f64 / self.wall.max(1e-9);
        let first = self.first.take().ok_or("no serving round ran")?;
        let last = self.last.take().unwrap_or_else(|| first.clone());
        let snapshot = last.snapshot();
        let clones: Vec<f64> = (0..20)
            .map(|_| {
                run.tracer.ms("service.snapshot_clone", wl.name, || snapshot.as_ref().clone()).1
            })
            .collect();
        self.out.snapshot_clone_ms = median(&clones);
        self.out.delta_rows =
            wl.edit_relations.iter().map(|r| snapshot.cache().pending_delta_len(r) as u64).sum();
        let mut exec = Vec::new();
        let mut prepare = Vec::new();
        for (query, engine) in &wl.read_mix {
            let detail = cell_name(query, engine);
            let mut exec_ms = Vec::new();
            let mut prepare_ms = Vec::new();
            for _ in 0..5 {
                let ((prepared, count), ms) = run.tracer.ms("service.read_exec", &detail, || {
                    let (prepared, ms) = run
                        .tracer
                        .ms("query.prepare_warm", &detail, || snapshot.prepare(query, engine));
                    (ms, prepared.and_then(|p| p.count()))
                });
                prepare_ms.push(prepared);
                exec_ms.push(ms);
                let expect = self.final_counts.get(&query.name);
                run.check(count.as_ref().ok() == expect, || {
                    format!(
                        "{detail} on the final snapshot: counted {count:?}, reference {expect:?}"
                    )
                });
            }
            exec.push(median(&exec_ms));
            prepare.push(median(&prepare_ms));
        }
        self.out.read_exec_ms = exec.iter().sum::<f64>() / exec.len().max(1) as f64;
        self.out.prepare_warm_ms = prepare.iter().sum::<f64>() / prepare.len().max(1) as f64;
        let (verified, verify_ms) =
            run.tracer.ms("service.verify_history", wl.name, || first.verify_history(self.base));
        println!("verify_history: {verify_ms:.1} ms");
        run.check(verified.is_ok(), || format!("verify_history: {verified:?}"));
        Ok(self.out)
    }
}

/// One closed-loop session: every `sessions`-th operation from `w`, each sent
/// after the previous one returned.
fn replay_session(
    run: &Run,
    wl: &Workload,
    service: &Service,
    trace: &[Op],
    w: usize,
    sessions: usize,
) -> Vec<Done> {
    let session = service.session();
    let mut done = Vec::new();
    for (i, op) in trace.iter().enumerate().skip(w).step_by(sessions) {
        match op {
            Op::Read(r) => {
                let (query, engine) = &wl.read_mix[*r];
                let detail = cell_name(query, engine);
                let (result, ms) = run
                    .tracer
                    .ms("service.session_count", &detail, || session.count(query, engine));
                match result {
                    Ok(_) => run.ops.ok("serve.read"),
                    Err(ref e) => run.ops.failed("serve.read", e),
                }
                done.push(Done { op: i, ms, epoch: None, ok: result.is_ok() });
            }
            Op::Edit(b) => {
                let (result, ms) = run.tracer.ms("service.edit_relation", b.relation, || {
                    service.edit_relation(b.relation, &b.ins, &b.del)
                });
                match result {
                    Ok(_) => run.ops.ok("serve.edit"),
                    Err(ref e) => run.ops.failed("serve.edit", e),
                }
                done.push(Done {
                    op: i,
                    ms,
                    epoch: result.as_ref().ok().copied(),
                    ok: result.is_ok(),
                });
            }
        }
    }
    done
}

impl Server<'_> {
    /// Checks one round: every edit produced its own epoch, the final
    /// snapshot holds exactly the applied batches, and a seeded sample of the
    /// recorded reads counted what the reference counts at the epoch each
    /// read saw.
    fn check_round(
        &self,
        run: &Run,
        done: &[Done],
        history: &[SessionEvent],
        snapshot: &Database,
    ) -> Result<(), String> {
        let (trace, tables, final_tables) = (&self.trace, self.tables, &self.final_tables);
        let round = self.out.rounds as u64;
        // Edits by the epoch they produced. Batches are disjoint, so each one that
        // landed changed the state and bumped the epoch exactly once.
        let mut by_epoch: BTreeMap<u64, &Batch> = BTreeMap::new();
        for d in done {
            if let (Op::Edit(b), Some(epoch)) = (&trace[d.op], d.epoch) {
                run.check(by_epoch.insert(epoch, b).is_none(), || {
                    format!("two edits acknowledged epoch {epoch}")
                });
            }
        }
        let edits = by_epoch.len() as u64;
        run.check(by_epoch.keys().copied().eq(1..=edits), || {
            "edit epochs are not 1..=edits".to_string()
        });

        let reads: Vec<(u64, &graphjoin::Query, u64)> = history
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Read { epoch, query, count, .. } => Some((*epoch, query, *count)),
                SessionEvent::Update { .. } => None,
            })
            .collect();
        let expected_reads = trace.iter().filter(|op| matches!(op, Op::Read(_))).count();
        let completed_reads =
            done.iter().filter(|d| d.ok && matches!(trace[d.op], Op::Read(_))).count();
        run.check(reads.len() == completed_reads && completed_reads <= expected_reads, || {
            format!("history holds {} reads, sessions completed {completed_reads}", reads.len())
        });

        let mut rng = StdRng::seed_from_u64(run.seed ^ round.wrapping_mul(0x9e37_79b9));
        let mut sample: Vec<(u64, &graphjoin::Query, u64)> = (0..CHECKED_READS.min(reads.len()))
            .map(|_| reads[rng.gen_range(0..reads.len())])
            .collect();
        sample.sort_by_key(|&(epoch, q, _)| (epoch, q.name.clone()));
        let mut state = tables.clone();
        let mut applied = 0;
        let mut cache: BTreeMap<(u64, String), u64> = BTreeMap::new();
        for (epoch, query, count) in sample {
            while applied < epoch {
                applied += 1;
                let b = by_epoch
                    .get(&applied)
                    .ok_or_else(|| format!("read at epoch {epoch} beyond the edits"))?;
                state.apply(b.relation, &b.ins, &b.del);
            }
            let key = (epoch, query.name.clone());
            let expect = match cache.get(&key) {
                Some(&c) => c,
                None => *cache.entry(key).or_insert(reference::count(query, &state)?),
            };
            run.check(count == expect, || {
                format!("{} read {count} at epoch {epoch}, reference {expect}", query.name)
            });
        }
        while applied < edits {
            applied += 1;
            let b = by_epoch[&applied];
            state.apply(b.relation, &b.ins, &b.del);
        }
        run.check(&state == final_tables || done.iter().any(|d| !d.ok), || {
            "replayed edits differ from the trace".into()
        });
        for name in state.names() {
            let same =
                snapshot.instance().relation(name).is_some_and(|rel| state.matches(name, rel));
            run.check(same, || format!("final snapshot's {name} differs from the replayed edits"));
        }
        Ok(())
    }
}
