//! Learning runs. [`learn_model`] is the one learn → verify → compile →
//! report pipeline, shared by `autobias learn` and the server's background
//! jobs; [`LearnOptions`] is the one set of options both take.
//!
//! A `POST /jobs/learn` request returns immediately with a job id; the run
//! happens on its own thread against the shared read-only
//! [`relstore::Database`], and clients poll `GET /jobs/{id}` or follow
//! `GET /jobs/{id}/events`, both views over the job's one record, its run
//! report ([`Job::report`]). Cancellation is cooperative —
//! the flag is polled by [`autobias::learn::Learner::learn_with_progress`]
//! once per covering-loop iteration, so a cancelled job still returns the
//! clauses accepted so far.

use crate::ledger::RunLedger;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::trace::{KeepReason, RequestRecord, StoredTrace};
use autobias::bias::auto::{induce_bias, AutoBiasConfig, ConstantThreshold};
use autobias::bias::LanguageBias;
use autobias::bottom::{BcConfig, SamplingStrategy};
use autobias::example::TrainingSet;
use autobias::learn::{LearnStats, Learner, LearnerConfig};
use datasets::Dataset;
use obs::report::{PlanReport, ReportBuilder};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuples kept per selection by the sampling strategies that sample, unless
/// a `sample-size` is given.
pub const DEFAULT_SAMPLE_SIZE: usize = 20;

/// The constant threshold `bias auto` induces with: an attribute with fewer
/// than 50 distinct values may hold constants in modes. A job always uses
/// it; `autobias learn` and `autobias induce` unless given `--absolute` or
/// `--relative`.
pub const DEFAULT_CONSTANT_THRESHOLD: ConstantThreshold = ConstantThreshold::Absolute(50);

/// How to learn: the options `autobias learn` takes as flags and
/// `POST /jobs/learn` as body keys. [`resolve_bias`] turns `auto` and
/// `manual` into a bias; a bias file is the CLI's alone.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnOptions {
    /// The bias as the caller named it: `auto` (induced from constraints),
    /// `manual` (the dataset's expert bias file), or, for the CLI, a bias
    /// file.
    pub bias: String,
    /// Bottom-clause sampling strategy.
    pub sampling: SamplingStrategy,
    /// Bottom-clause depth.
    pub depth: usize,
    /// RNG seed.
    pub seed: u64,
    /// Cap on learned clauses.
    pub max_clauses: usize,
    /// Post-reduce learned clauses for readability.
    pub reduce: bool,
}

impl Default for LearnOptions {
    fn default() -> Self {
        Self {
            bias: "auto".to_string(),
            sampling: SamplingStrategy::Naive {
                per_selection: DEFAULT_SAMPLE_SIZE,
            },
            depth: 2,
            seed: 7,
            max_clauses: LearnerConfig::default().max_clauses,
            reduce: true,
        }
    }
}

impl LearnOptions {
    /// The strategy a sampling word names, keeping `sample_size` tuples per
    /// selection where the strategy samples.
    pub fn parse_sampling(word: &str, sample_size: usize) -> Result<SamplingStrategy, String> {
        Ok(match word {
            "naive" => SamplingStrategy::Naive {
                per_selection: sample_size,
            },
            "random" => SamplingStrategy::Random {
                per_selection: sample_size,
                oversample: 10,
            },
            "stratified" => SamplingStrategy::Stratified { per_stratum: 2 },
            "full" => SamplingStrategy::Full,
            other => {
                return Err(format!(
                    "unknown sampling {other:?} (naive|random|stratified|full)"
                ))
            }
        })
    }

    /// The learner configuration these options select.
    pub fn learner_config(&self) -> LearnerConfig {
        LearnerConfig {
            bc: BcConfig {
                depth: self.depth,
                strategy: self.sampling,
                ..BcConfig::default()
            },
            seed: self.seed,
            max_clauses: self.max_clauses,
            reduce_clauses: self.reduce,
            ..LearnerConfig::default()
        }
    }

    /// The options as run-report params, in report order.
    pub fn report_params(&self) -> Vec<(String, String)> {
        let sampling = match self.sampling {
            SamplingStrategy::Naive { per_selection } => format!("naive:{per_selection}"),
            SamplingStrategy::Random { per_selection, .. } => format!("random:{per_selection}"),
            SamplingStrategy::Stratified { per_stratum } => format!("stratified:{per_stratum}"),
            SamplingStrategy::Full => "full".to_string(),
        };
        [
            ("bias", self.bias.clone()),
            ("sampling", sampling),
            ("depth", self.depth.to_string()),
            ("seed", self.seed.to_string()),
            ("max_clauses", self.max_clauses.to_string()),
            ("reduce", self.reduce.to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// The bias `auto` or `manual` names over `ds`: induced from the data's
/// constraints under `threshold`, or the dataset's expert bias file. The one
/// resolution behind `autobias learn` and `POST /jobs/learn`.
pub fn resolve_bias(
    ds: &Dataset,
    bias: &str,
    threshold: ConstantThreshold,
) -> Result<LanguageBias, String> {
    match bias {
        "auto" => {
            let cfg = AutoBiasConfig {
                constant_threshold: threshold,
                ..AutoBiasConfig::default()
            };
            let (bias, _, _) =
                induce_bias(&ds.db, ds.target, &cfg).map_err(|e| format!("bias induction: {e}"))?;
            Ok(bias)
        }
        "manual" => ds.manual_bias().map_err(|e| format!("manual bias: {e}")),
        other => Err(format!("unknown bias {other:?} (auto|manual)")),
    }
}

/// What one learn run produced.
pub struct LearnedModel {
    /// The learned definition (`model.definition`), compiled for serving.
    pub model: ModelEntry,
    /// Learner statistics.
    pub stats: LearnStats,
    /// The static verifier's findings on the learned definition; acting on
    /// them is the caller's policy.
    pub verdict: analyze::Report,
}

/// The one learning run behind `autobias learn` and `POST /jobs/learn`.
/// Learns from `ds` under `bias` with every progress event kept by
/// `report`, the run's one record, checks the definition with the static
/// verifier, compiles it the way the registry loads a model (named `name`),
/// and records the compile outcome in `report`. `cancel` stops the covering
/// loop early, keeping the clauses accepted so far.
pub fn learn_model(
    ds: &Dataset,
    bias: &LanguageBias,
    opts: &LearnOptions,
    name: String,
    report: &ReportBuilder,
    cancel: &AtomicBool,
) -> LearnedModel {
    let train = TrainingSet::new(ds.pos.clone(), ds.neg.clone());
    let (definition, stats) = Learner::new(opts.learner_config())
        .learn_with_progress(&ds.db, bias, &train, cancel, report);
    let verdict = analyze::check_definition(&ds.db, &definition, Some(bias));
    let model = ModelEntry::new(&ds.db, name, definition, vec![], None);
    report.set_plan(PlanReport {
        compiled_clauses: model.plan.num_compiled(),
        fallback_clauses: model.plan.num_declined(),
        declined: model.plan.decline_reasons(),
    });
    LearnedModel {
        model,
        stats,
        verdict,
    }
}

/// A `POST /jobs/learn` body: `key value` lines.
#[derive(Debug, Clone, Default)]
pub struct JobSpec {
    /// Registry name for the learned model (default `job-<id>`).
    pub model_name: Option<String>,
    /// What to learn and how. `bias` is `auto` or `manual`.
    pub learn: LearnOptions,
}

impl JobSpec {
    /// Parses `key value` lines (blank lines and `#` comments ignored).
    /// An empty body yields the default spec.
    pub fn parse(body: &str) -> Result<Self, String> {
        let mut spec = Self::default();
        let opts = &mut spec.learn;
        let mut sample_size = DEFAULT_SAMPLE_SIZE;
        let mut sampling_word = "naive";
        for line in body.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(char::is_whitespace)
                .map(|(k, v)| (k, v.trim()))
                .ok_or_else(|| format!("expected `key value`, got {line:?}"))?;
            match key {
                "name" => spec.model_name = Some(value.to_string()),
                "bias" => match value {
                    "auto" | "manual" => opts.bias = value.to_string(),
                    other => return Err(format!("unknown bias {other:?} (auto|manual)")),
                },
                "sampling" => sampling_word = value,
                "sample-size" => {
                    sample_size = value
                        .parse()
                        .map_err(|_| format!("bad sample-size {value:?}"))?;
                }
                "depth" => {
                    opts.depth = value.parse().map_err(|_| format!("bad depth {value:?}"))?;
                }
                "seed" => {
                    opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                }
                "max-clauses" => {
                    opts.max_clauses = value
                        .parse()
                        .map_err(|_| format!("bad max-clauses {value:?}"))?;
                }
                "reduce" => {
                    opts.reduce = value
                        .parse()
                        .map_err(|_| format!("bad reduce {value:?} (true|false)"))?;
                }
                other => return Err(format!("unknown job option {other:?}")),
            }
        }
        opts.sampling = LearnOptions::parse_sampling(sampling_word, sample_size)?;
        Ok(spec)
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, thread not yet running.
    Queued,
    /// Learning in progress.
    Running,
    /// Finished; the model is in the registry.
    Done,
    /// Stopped by `POST /jobs/{id}/cancel`; partial clauses (if any) are
    /// still registered.
    Cancelled,
    /// Bias construction or learning failed, or the learned model declined
    /// a clause at compile time and was not registered.
    Failed,
}

impl JobState {
    /// Lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Whether the job can make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
    }
}

/// What the job's thread knows and its run report does not: the lifecycle
/// state and how it ended. Everything about the run's progress is read from
/// [`Job::report`].
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Current lifecycle state.
    pub state: JobState,
    /// Human-readable detail (error message, completion summary).
    pub detail: String,
    /// Wall-clock seconds once terminal.
    pub elapsed_secs: Option<f64>,
}

/// One background learning job.
pub struct Job {
    /// Job id, unique per server.
    pub id: u64,
    /// Name the learned model is registered under.
    pub model_name: String,
    /// Trace id (32 hex digits) of the run's span tree, the one its report
    /// owns; the tree is kept in the server's trace store once the job
    /// terminates, so a run found in `GET /jobs/{id}` resolves at
    /// `GET /debug/traces/{trace_id}`.
    pub trace_id: String,
    /// Positive training examples the job learns from.
    pub pos_total: usize,
    /// The job's one record of its run: owns the run's span tree and keeps
    /// every progress event. `GET /jobs/{id}` reads it folded and
    /// `GET /jobs/{id}/events` replays its events; the run ledger archives
    /// it once the job completes. The job thread closes it after the
    /// terminal status is set, ending every event stream.
    pub report: ReportBuilder,
    status: Mutex<JobStatus>,
    cancel: AtomicBool,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Job {
    /// Snapshot of the current status.
    pub fn status(&self) -> JobStatus {
        self.status.lock().expect("job lock poisoned").clone()
    }

    /// Requests cooperative cancellation.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Blocks until the job's thread finishes, without requesting
    /// cancellation. Idempotent; later joins (including [`JobManager::shutdown`])
    /// see the handle already taken and return immediately.
    pub fn wait(&self) {
        let handle = self.handle.lock().expect("job lock poisoned").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    fn set_status(&self, f: impl FnOnce(&mut JobStatus)) {
        f(&mut self.status.lock().expect("job lock poisoned"));
    }
}

/// Owns the jobs of one server: every running job and the most recent
/// finished ones.
#[derive(Default)]
pub struct JobManager {
    next_id: AtomicU64,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
}

impl JobManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawns a learning job over the shared dataset; the learned model is
    /// written to the registry's directory and inserted into the registry,
    /// and the run report is archived in `ledger` (when given) once the job
    /// completes. The job's thread runs under its report's trace context,
    /// and when a trace store is given the finished span tree — bias
    /// induction, BC build (worker threads included), clause search,
    /// verification, plan compile — is kept there unconditionally. The
    /// table then forgets the oldest finished jobs past
    /// [`RunLedger::DEFAULT_CAP`]; their reports and trees stay in the
    /// ledger and the trace store.
    pub fn spawn_learn(
        &self,
        spec: JobSpec,
        ds: Arc<Dataset>,
        registry: Arc<ModelRegistry>,
        ledger: Option<Arc<RunLedger>>,
        traces: Option<Arc<crate::trace::TraceStore>>,
    ) -> Arc<Job> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let model_name = spec
            .model_name
            .clone()
            .unwrap_or_else(|| format!("job-{id}"));
        let mut params = vec![("model".to_string(), model_name.clone())];
        params.extend(spec.learn.report_params());
        // The report's phases come from the job's own span tree; its counter
        // deltas are process-global, so with several jobs running
        // concurrently they describe the overlap, not one job.
        let report = ReportBuilder::new(ds.name, params);
        let job = Arc::new(Job {
            id,
            model_name,
            trace_id: report.trace().trace_id_hex(),
            pos_total: ds.pos.len(),
            report,
            status: Mutex::new(JobStatus {
                state: JobState::Queued,
                detail: String::new(),
                elapsed_secs: None,
            }),
            cancel: AtomicBool::new(false),
            handle: Mutex::new(None),
        });
        let evicted = {
            let mut jobs = self.jobs.lock().expect("jobs lock poisoned");
            jobs.insert(id, job.clone());
            evict_oldest_terminal(&mut jobs)
        };
        for old in evicted {
            old.wait();
        }

        let worker_job = job.clone();
        let handle = std::thread::Builder::new()
            .name(format!("learn-job-{id}"))
            .spawn(move || {
                let t0 = Instant::now();
                worker_job.set_status(|s| s.state = JobState::Running);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    // Installed inside the closure so the guard unwinds with
                    // a panic instead of leaking the thread-local context.
                    let _traced = worker_job.report.trace().install();
                    run_learn(&worker_job, &spec.learn, &ds, &registry, ledger.as_deref())
                }));
                let elapsed = t0.elapsed();
                if let Some(traces) = &traces {
                    let tree = worker_job.report.trace().finish();
                    let record = RequestRecord {
                        trace_id: tree.trace_id.clone(),
                        route: "job",
                        latency_us: elapsed.as_micros() as u64,
                        reason: Some(KeepReason::Job),
                        ..RequestRecord::default()
                    };
                    traces.keep(StoredTrace { record, tree });
                }
                let (state, detail) = match result {
                    Ok(Ok(settled)) => settled,
                    Ok(Err(msg)) => (JobState::Failed, msg),
                    Err(_) => (JobState::Failed, "learning thread panicked".to_string()),
                };
                worker_job.set_status(|s| {
                    s.state = state;
                    s.detail = detail;
                    s.elapsed_secs = Some(elapsed.as_secs_f64());
                });
                // Close after the terminal status is visible, so a watcher
                // whose stream just ended polls a final, settled state.
                worker_job.report.close();
            })
            .expect("spawning a job thread");
        *job.handle.lock().expect("job lock poisoned") = Some(handle);
        job
    }

    /// Looks up a job.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .expect("jobs lock poisoned")
            .get(&id)
            .cloned()
    }

    /// All jobs, sorted by id.
    pub fn list(&self) -> Vec<Arc<Job>> {
        let mut all: Vec<Arc<Job>> = self
            .jobs
            .lock()
            .expect("jobs lock poisoned")
            .values()
            .cloned()
            .collect();
        all.sort_by_key(|j| j.id);
        all
    }

    /// Jobs submitted since startup (ids are dense from 1), evicted ones
    /// included.
    pub fn submitted(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Number of jobs not yet terminal.
    pub fn running_count(&self) -> u64 {
        self.list()
            .iter()
            .filter(|j| !j.status().state.is_terminal())
            .count() as u64
    }

    /// Cancels every job and joins all worker threads. Called once during
    /// graceful shutdown; jobs finish as `Cancelled` (or `Done` if they
    /// complete before noticing the flag).
    pub fn shutdown(&self) {
        let jobs = self.list();
        for job in &jobs {
            job.cancel();
        }
        for job in jobs {
            let handle = job.handle.lock().expect("job lock poisoned").take();
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }
}

/// Drops the oldest terminal jobs past [`RunLedger::DEFAULT_CAP`] from
/// `jobs` and returns them. A finished job still holds its run record (up
/// to 262,144 spans and every progress event), so the table keeps no more
/// of them than the ledger archives. Running and queued jobs always stay.
fn evict_oldest_terminal(jobs: &mut HashMap<u64, Arc<Job>>) -> Vec<Arc<Job>> {
    let mut terminal: Vec<u64> = jobs
        .values()
        .filter(|j| j.status().state.is_terminal())
        .map(|j| j.id)
        .collect();
    let excess = terminal.len().saturating_sub(RunLedger::DEFAULT_CAP);
    terminal.sort_unstable();
    terminal[..excess]
        .iter()
        .filter_map(|id| jobs.remove(id))
        .collect()
}

/// The job thread's run: resolves the bias, runs [`learn_model`], saves and
/// registers the model, and archives the run report. Returns the terminal
/// state and its detail line.
fn run_learn(
    job: &Job,
    opts: &LearnOptions,
    ds: &Dataset,
    registry: &ModelRegistry,
    ledger: Option<&RunLedger>,
) -> Result<(JobState, String), String> {
    let bias = resolve_bias(ds, &opts.bias, DEFAULT_CONSTANT_THRESHOLD)?;
    // Compile-at-insert happens inside the run, before the report is
    // archived, so the `plan.compile` span shows up in its phase table.
    let LearnedModel {
        mut model,
        stats,
        verdict,
    } = learn_model(
        ds,
        &bias,
        opts,
        job.model_name.clone(),
        &job.report,
        &job.cancel,
    );
    // Learned models are verified observationally (warnings logged, never
    // rejected): the learner's own invariants make Error findings a bug, and
    // a partial model from a cancelled job is still worth serving.
    if !verdict.is_clean() {
        obs::warn!(
            "job {} model {}: verifier found {}",
            job.id,
            job.model_name,
            verdict.summary()
        );
    }
    // Archived before the model is registered or refused, so a run whose
    // model does not load still leaves its record, plan section included.
    if let Some(ledger) = ledger {
        let json = format!("{}\n", job.report.finish().to_json());
        if let Err(e) = ledger.archive(job.id, &json) {
            obs::warn!("archiving run report for job {}: {e}", job.id);
        }
    }
    // The registry's admission bar holds for learned models too: one whose
    // plans do not all compile and verify fails the job and registers
    // nothing.
    if let Some(why) = model.plan.refusal() {
        return Err(format!("model {} not registered: {why}", job.model_name));
    }

    let clauses = model.definition.len();
    let text = model.definition.render(&ds.db);
    let path = registry.dir().join(format!("{}.model", job.model_name));
    // Persist before registering so a restart reloads the same model; a
    // cancelled job's partial definition is still a valid (weaker) model.
    std::fs::write(&path, format!("{text}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    model.source = Some(path);
    registry.insert(model);

    let state = if stats.cancelled {
        JobState::Cancelled
    } else {
        JobState::Done
    };
    Ok((
        state,
        format!(
            "{clauses} clause(s), {} uncovered positive(s), bc {:?}, search {:?}",
            stats.uncovered_pos, stats.bc_time, stats.search_time
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::progress::{ProgressEvent, ProgressSink};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A job that never spawned a thread, for driving `render_job` by hand.
    fn fixture_job(pos_total: usize) -> Job {
        Job {
            id: 3,
            model_name: "pinned".to_string(),
            trace_id: "0af7651916cd43dd8448eb211c80319c".to_string(),
            pos_total,
            report: ReportBuilder::new("UW", vec![]),
            status: Mutex::new(JobStatus {
                state: JobState::Queued,
                detail: String::new(),
                elapsed_secs: None,
            }),
            cancel: AtomicBool::new(false),
            handle: Mutex::new(None),
        }
    }

    /// Delivers one progress event the way `learn_model` does.
    fn feed(job: &Job, ev: ProgressEvent) {
        job.report.on_event(&ev);
    }

    /// Settles a job the way its thread does once `run_learn` returns:
    /// `finished` is the learner's last event and `plan` the compile
    /// outcome, both absent when the run failed before learning.
    fn settle(
        job: &Job,
        state: JobState,
        detail: &str,
        elapsed: f64,
        finished: Option<ProgressEvent>,
        plan: Option<(usize, usize)>,
    ) {
        if let Some(ev) = finished {
            feed(job, ev);
        }
        if let Some((compiled, fallback)) = plan {
            job.report.set_plan(PlanReport {
                compiled_clauses: compiled,
                fallback_clauses: fallback,
                declined: vec![],
            });
        }
        job.set_status(|s| {
            s.state = state;
            s.detail = detail.to_string();
            s.elapsed_secs = Some(elapsed);
        });
    }

    /// `GET /jobs/{id}` text at each point of a fixed event sequence.
    #[test]
    fn job_status_text_is_pinned_through_a_run() {
        use crate::server::render_job;
        const HEAD: &str = "id 3\nmodel pinned\ntrace 0af7651916cd43dd8448eb211c80319c\n";
        let job = fixture_job(10);
        assert_eq!(
            render_job(&job),
            format!("{HEAD}state queued\nclauses 0\nuncovered 0\niteration 0\nprogress 0/10\n")
        );

        job.set_status(|s| s.state = JobState::Running);
        feed(
            &job,
            ProgressEvent::BcBuildFinished {
                pos_examples: 10,
                neg_examples: 20,
                ground_literals: 345,
                elapsed_us: 1_234,
            },
        );
        assert_eq!(
            render_job(&job),
            format!("{HEAD}state running\nclauses 0\nuncovered 10\niteration 0\nprogress 0/10\n")
        );

        feed(
            &job,
            ProgressEvent::IterationStarted {
                iteration: 1,
                uncovered_pos: 10,
                clauses_so_far: 0,
                seed_bc_literals: 17,
            },
        );
        feed(
            &job,
            ProgressEvent::ClauseSearched {
                iteration: 1,
                beam_iterations: 3,
                candidates_generated: 12,
                candidates_pruned: 4,
                armg_calls: 9,
            },
        );
        assert_eq!(
            render_job(&job),
            format!("{HEAD}state running\nclauses 0\nuncovered 10\niteration 1\nprogress 0/10\n")
        );

        feed(
            &job,
            ProgressEvent::ClauseAccepted {
                iteration: 1,
                covered_pos: 6,
                covered_neg: 0,
                precision: 1.0,
                literals: 2,
                uncovered_after: 4,
                clause: "advisedBy(x, y) ← publication(z, x), publication(z, y)".to_string(),
            },
        );
        assert_eq!(
            render_job(&job),
            format!("{HEAD}state running\nclauses 1\nuncovered 4\niteration 1\nprogress 6/10\n")
        );

        for ev in [
            ProgressEvent::IterationStarted {
                iteration: 2,
                uncovered_pos: 4,
                clauses_so_far: 1,
                seed_bc_literals: 9,
            },
            ProgressEvent::ClauseSearched {
                iteration: 2,
                beam_iterations: 2,
                candidates_generated: 5,
                candidates_pruned: 1,
                armg_calls: 4,
            },
            ProgressEvent::ClauseAccepted {
                iteration: 2,
                covered_pos: 3,
                covered_neg: 1,
                precision: 0.75,
                literals: 1,
                uncovered_after: 1,
                clause: "advisedBy(x, y) ← ta(c, x), taughtBy(c, y)".to_string(),
            },
        ] {
            feed(&job, ev);
        }
        settle(
            &job,
            JobState::Done,
            "2 clause(s), 1 uncovered positive(s), bc 1.234ms, search 56.789ms",
            0.25,
            Some(ProgressEvent::Finished {
                clauses: 2,
                uncovered_pos: 1,
                rejected_clauses: 0,
                timed_out: false,
                cancelled: false,
                bc_us: 1_234,
                search_us: 56_789,
            }),
            Some((1, 1)),
        );
        assert_eq!(
            render_job(&job),
            format!(
                "{HEAD}state done\nclauses 2\nuncovered 1\niteration 2\nprogress 9/10\n\
                 elapsed 0.250\nphase bc_build 0.001\nphase clause_search 0.057\n\
                 plan compiled=1 fallback=1\n\
                 detail 2 clause(s), 1 uncovered positive(s), bc 1.234ms, search 56.789ms\n"
            )
        );
        let (events, _) = job.report.events_from(0, Duration::ZERO);
        assert_eq!(events.len(), 8, "the report keeps every event");

        let failed = fixture_job(10);
        failed.set_status(|s| s.state = JobState::Running);
        settle(
            &failed,
            JobState::Failed,
            "bias induction: no modes",
            0.012,
            None,
            None,
        );
        assert_eq!(
            render_job(&failed),
            format!(
                "{HEAD}state failed\nclauses 0\nuncovered 0\niteration 0\nprogress 0/10\n\
                 elapsed 0.012\ndetail bias induction: no modes\n"
            )
        );

        // A rejected iteration gives its seed up: the running view counts
        // it as uncovered, as the finished outcome does, so progress holds
        // at 6/10 through the end instead of reading 7/10 and then falling.
        let rejecting = fixture_job(10);
        rejecting.set_status(|s| s.state = JobState::Running);
        for ev in [
            ProgressEvent::BcBuildFinished {
                pos_examples: 10,
                neg_examples: 20,
                ground_literals: 345,
                elapsed_us: 1_234,
            },
            ProgressEvent::IterationStarted {
                iteration: 1,
                uncovered_pos: 10,
                clauses_so_far: 0,
                seed_bc_literals: 17,
            },
            ProgressEvent::ClauseAccepted {
                iteration: 1,
                covered_pos: 6,
                covered_neg: 0,
                precision: 1.0,
                literals: 2,
                uncovered_after: 4,
                clause: "advisedBy(x, y) ← publication(z, x), publication(z, y)".to_string(),
            },
            ProgressEvent::IterationStarted {
                iteration: 2,
                uncovered_pos: 4,
                clauses_so_far: 1,
                seed_bc_literals: 9,
            },
        ] {
            feed(&rejecting, ev);
        }
        assert_eq!(
            render_job(&rejecting),
            format!("{HEAD}state running\nclauses 1\nuncovered 4\niteration 2\nprogress 6/10\n")
        );
        feed(
            &rejecting,
            ProgressEvent::ClauseRejected {
                iteration: 2,
                covered_pos: 1,
                covered_neg: 3,
                precision: 0.25,
            },
        );
        assert_eq!(
            render_job(&rejecting),
            format!("{HEAD}state running\nclauses 1\nuncovered 4\niteration 2\nprogress 6/10\n")
        );
        settle(
            &rejecting,
            JobState::Done,
            "1 clause(s), 4 uncovered positive(s)",
            0.25,
            Some(ProgressEvent::Finished {
                clauses: 1,
                uncovered_pos: 4,
                rejected_clauses: 1,
                timed_out: false,
                cancelled: false,
                bc_us: 1_234,
                search_us: 56_789,
            }),
            Some((1, 0)),
        );
        assert!(
            render_job(&rejecting).contains("\nuncovered 4\niteration 2\nprogress 6/10\n"),
            "{}",
            render_job(&rejecting)
        );
    }

    /// The `(event, data)` frames of one `GET /jobs/{id}/events` body, as a
    /// watcher decodes them; keep-alive comments are not frames.
    fn sse_frames(body: &[u8]) -> Vec<(String, String)> {
        let mut chunks = crate::http::ChunkedReader::new(body);
        let mut frames = Vec::new();
        while let Some(chunk) = chunks.next_chunk().unwrap() {
            let text = String::from_utf8(chunk).unwrap();
            if text.starts_with(':') {
                continue;
            }
            let field = |name: &str| {
                text.lines()
                    .find_map(|l| l.strip_prefix(name))
                    .unwrap_or_else(|| panic!("no {name:?} in {text:?}"))
                    .to_string()
            };
            frames.push((field("event: "), field("data: ")));
        }
        frames
    }

    /// The SSE stream is a view of the report: a watcher attaching after
    /// the job closed its report receives exactly the frames a watcher
    /// following the run live received, one per kept event after the
    /// leading `trace` frame, and the `clause_accepted` frames are the
    /// report's accepted iterations.
    #[test]
    fn event_stream_replays_the_report() {
        let job = fixture_job(10);
        let mut events = vec![ProgressEvent::BcBuildFinished {
            pos_examples: 10,
            neg_examples: 20,
            ground_literals: 345,
            elapsed_us: 1_234,
        }];
        for (iteration, accepted) in [(1, true), (2, false), (3, true)] {
            events.push(ProgressEvent::IterationStarted {
                iteration,
                uncovered_pos: 10 - iteration,
                clauses_so_far: iteration / 2,
                seed_bc_literals: 17,
            });
            events.push(ProgressEvent::ClauseSearched {
                iteration,
                beam_iterations: 3,
                candidates_generated: 12,
                candidates_pruned: 4,
                armg_calls: 9,
            });
            events.push(if accepted {
                ProgressEvent::ClauseAccepted {
                    iteration,
                    covered_pos: 3,
                    covered_neg: 0,
                    precision: 1.0,
                    literals: 2,
                    uncovered_after: 7 - iteration,
                    clause: format!("advisedBy(x, y) ← publication(z{iteration}, \"x\")"),
                }
            } else {
                ProgressEvent::ClauseRejected {
                    iteration,
                    covered_pos: 1,
                    covered_neg: 3,
                    precision: 0.25,
                }
            });
        }
        // The live watcher's writer hands over each flushed chunk, so the
        // test feeds the next event only once the watcher has sent the
        // previous one's frame.
        struct Flushed(Vec<u8>, mpsc::Sender<Vec<u8>>);
        impl std::io::Write for Flushed {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.1.send(std::mem::take(&mut self.0)).unwrap();
                Ok(())
            }
        }
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        let mut live = Vec::new();
        let mut next_frame = || loop {
            let chunk = rx.recv().unwrap();
            live.extend_from_slice(&chunk);
            if !chunk.ends_with(b": keep-alive\n\n\r\n") {
                return chunk;
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut w = Flushed(Vec::new(), tx);
                crate::server::write_events(&mut w, &job, &AtomicBool::new(false)).unwrap();
            });
            next_frame(); // `trace`: the watcher is attached.
            for ev in &events {
                job.report.on_event(ev);
                let frame = String::from_utf8(next_frame()).unwrap();
                assert!(
                    frame.contains(&format!("event: {}\n", ev.kind())),
                    "{frame}"
                );
            }
            settle(&job, JobState::Done, "done", 0.1, None, Some((2, 0)));
            job.report.close();
            assert_eq!(next_frame(), b"0\r\n\r\n", "the stream ends cleanly");
        });
        let mut late = Vec::new();
        crate::server::write_events(&mut late, &job, &AtomicBool::new(false)).unwrap();
        let frames = sse_frames(&live);
        assert_eq!(
            frames,
            sse_frames(&late),
            "a late watcher sees the same run"
        );

        assert_eq!(frames[0].0, "trace");
        let trace = obs::json::Json::parse(&frames[0].1).unwrap();
        assert_eq!(
            trace.get("trace_id").unwrap().as_str(),
            Some(job.trace_id.as_str())
        );
        assert_eq!(frames.len(), 1 + events.len());
        for ((event, data), ev) in frames[1..].iter().zip(&events) {
            assert_eq!(event, ev.kind());
            assert_eq!(obs::json::Json::parse(data).unwrap(), ev.to_json());
        }

        let accepted_frames: Vec<(usize, String)> = frames
            .iter()
            .filter(|(event, _)| event == "clause_accepted")
            .map(|(_, data)| {
                let json = obs::json::Json::parse(data).unwrap();
                let iteration = json.get("iteration").unwrap().as_f64().unwrap() as usize;
                let clause = json.get("clause").unwrap().as_str().unwrap().to_string();
                (iteration, clause)
            })
            .collect();
        let accepted_iterations: Vec<(usize, String)> = job
            .report
            .finish()
            .iterations
            .into_iter()
            .filter(|it| it.accepted)
            .map(|it| (it.iteration, it.clause.unwrap()))
            .collect();
        assert_eq!(accepted_frames.len(), 2);
        assert_eq!(accepted_frames, accepted_iterations);
    }

    #[test]
    fn spec_parses_options_and_rejects_garbage() {
        let spec = JobSpec::parse("").unwrap();
        assert!(spec.model_name.is_none());
        assert_eq!(spec.learn, LearnOptions::default());
        assert_eq!(spec.learn.bias, "auto");

        let spec = JobSpec::parse(
            "name mymodel\nbias manual\nsampling full\ndepth 3\nseed 42\nmax-clauses 5\nreduce false\n",
        )
        .unwrap();
        assert_eq!(spec.model_name.as_deref(), Some("mymodel"));
        assert_eq!(spec.learn.bias, "manual");
        assert!(matches!(spec.learn.sampling, SamplingStrategy::Full));
        assert_eq!(spec.learn.depth, 3);
        assert_eq!(spec.learn.seed, 42);
        assert_eq!(spec.learn.max_clauses, 5);
        assert!(!spec.learn.reduce);

        assert!(JobSpec::parse("bias nonsense").is_err());
        assert!(JobSpec::parse("bias /etc/bias.txt").is_err());
        assert!(JobSpec::parse("sampling nonsense").is_err());
        assert!(JobSpec::parse("frobnicate 9").is_err());
        assert!(JobSpec::parse("justakey").is_err());
    }

    #[test]
    fn options_map_to_learner_config_and_report_params() {
        let opts = JobSpec::parse("bias manual\nsampling random\nsample-size 5\nseed 3\n")
            .unwrap()
            .learn;
        let cfg = opts.learner_config();
        assert_eq!(
            cfg.bc.strategy,
            SamplingStrategy::Random {
                per_selection: 5,
                oversample: 10
            }
        );
        assert_eq!((cfg.bc.depth, cfg.seed), (2, 3));
        assert_eq!(cfg.max_clauses, LearnerConfig::default().max_clauses);
        assert!(cfg.reduce_clauses);
        let params: Vec<String> = opts
            .report_params()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        assert_eq!(
            params,
            [
                "bias=manual",
                "sampling=random:5",
                "depth=2",
                "seed=3",
                "max_clauses=20",
                "reduce=true"
            ]
        );
    }

    /// A UW instance small enough to learn from in a few milliseconds.
    fn tiny_uw() -> Arc<Dataset> {
        Arc::new(datasets::uw::generate(
            &datasets::uw::UwConfig {
                students: 20,
                professors: 8,
                courses: 10,
                advised_pairs: 10,
                negatives: 20,
                evidence_prob: 1.0,
                ..datasets::uw::UwConfig::default()
            },
            3,
        ))
    }

    #[test]
    fn job_runs_to_done_and_registers_model() {
        let ds = tiny_uw();
        let dir = std::env::temp_dir().join(format!("autobias_jobs_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (registry, _) = ModelRegistry::open(&ds.db, &dir).unwrap();
        let registry = Arc::new(registry);

        let ledger = Arc::new(RunLedger::open(dir.join("runs"), RunLedger::DEFAULT_CAP).unwrap());
        let mgr = JobManager::new();
        let spec = JobSpec::parse("name learned\nbias manual\n").unwrap();
        let job = mgr.spawn_learn(
            spec,
            ds.clone(),
            registry.clone(),
            Some(ledger.clone()),
            None,
        );
        job.wait();
        let status = job.status();
        assert_eq!(status.state, JobState::Done, "{}", status.detail);
        let record = job.report.finish();
        let clauses = record.clauses.len();
        assert!(clauses > 0);
        assert!(registry.get("learned").is_some());
        assert!(dir.join("learned.model").exists());

        // The final compile outcome is part of the job's record: a
        // registered model compiled every learned clause.
        let plan = record.plan.as_ref().expect("compile outcome recorded");
        let compiled = plan.compiled_clauses;
        assert_eq!(compiled + plan.fallback_clauses, clauses);
        assert_eq!(plan.fallback_clauses, 0);

        // The record settled to the final values.
        assert_eq!(job.pos_total, ds.pos.len());
        let outcome = record.outcome.as_ref().expect("run finished");
        assert_eq!(outcome.clauses, clauses);
        assert_eq!(record.bc.as_ref().unwrap().pos_examples, ds.pos.len());
        assert!(
            !record.iterations.is_empty(),
            "at least one iteration recorded"
        );

        // The report kept the whole run's events and is closed.
        let (events, closed) = job.report.events_from(0, Duration::from_millis(10));
        assert!(closed);
        assert!(
            events.len() >= 3,
            "bc build + iterations + finished, got {}",
            events.len()
        );
        assert_eq!(events[0].kind(), "bc_build_finished");
        assert_eq!(events.last().unwrap().kind(), "finished");

        // The run report landed in the ledger and matches the outcome.
        let json = ledger.get(job.id).expect("archived report");
        let report = obs::json::Json::parse(&json).expect("report is valid JSON");
        assert_eq!(
            report.path(&["outcome", "clauses"]).unwrap().as_f64(),
            Some(clauses as f64)
        );
        assert_eq!(report.get("dataset").unwrap().as_str(), Some("UW"));
        // Every job is traced; the archived report correlates back to the
        // job's span tree via its trace id.
        assert_eq!(job.trace_id.len(), 32);
        assert!(job.trace_id.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(
            report.get("trace_id").unwrap().as_str(),
            Some(job.trace_id.as_str())
        );
        assert_eq!(
            report.path(&["plan", "compiled_clauses"]).unwrap().as_f64(),
            Some(compiled as f64),
            "archived report carries the compile outcome (schema v2)"
        );

        // A pre-cancelled job terminates as cancelled with an empty model.
        let spec = JobSpec::parse("name cancelled-model\nbias manual\n").unwrap();
        let job2 = mgr.spawn_learn(spec, ds, registry.clone(), None, None);
        job2.cancel();
        mgr.shutdown();
        let status = job2.status();
        assert!(
            status.state.is_terminal(),
            "cancelled job must terminate, got {:?}",
            status.state
        );
        assert!(
            job2.report.events_from(0, Duration::ZERO).1,
            "terminal job closes its report"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The table keeps every running job and the newest
    /// `RunLedger::DEFAULT_CAP` finished ones; an evicted job's report stays
    /// in the ledger, and `submitted` still counts it.
    #[test]
    fn finished_jobs_past_the_cap_are_evicted_oldest_first() {
        let ds = tiny_uw();
        let dir = std::env::temp_dir().join(format!("autobias_jobs_evict_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (registry, _) = ModelRegistry::open(&ds.db, &dir).unwrap();
        let registry = Arc::new(registry);
        let ledger =
            Arc::new(RunLedger::open(dir.join("runs"), 2 * RunLedger::DEFAULT_CAP).unwrap());
        let mgr = JobManager::new();
        // A job that never finishes, older than every other.
        let running = Arc::new(Job {
            id: 0,
            ..fixture_job(1)
        });
        running.set_status(|s| s.state = JobState::Running);
        mgr.jobs.lock().unwrap().insert(0, running);

        let extra = 3;
        let total = RunLedger::DEFAULT_CAP + extra + 1;
        for _ in 0..total {
            let spec = JobSpec::parse("name tiny\nbias manual\nmax-clauses 1\n").unwrap();
            let job = mgr.spawn_learn(
                spec,
                ds.clone(),
                registry.clone(),
                Some(ledger.clone()),
                None,
            );
            job.wait();
            assert_eq!(
                job.status().state,
                JobState::Done,
                "{}",
                job.status().detail
            );
        }
        assert_eq!(mgr.submitted(), total as u64);
        // The last spawn saw every earlier job finished: it evicted the
        // oldest `extra` of them, and the running job stayed.
        let ids: Vec<u64> = mgr.list().iter().map(|j| j.id).collect();
        let kept: Vec<u64> = std::iter::once(0)
            .chain(extra as u64 + 1..=total as u64)
            .collect();
        assert_eq!(ids, kept);
        assert!(mgr.get(1).is_none(), "evicted job is gone from the table");
        assert!(
            ledger.get(1).is_some(),
            "its run report stays in the ledger"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
