//! Background learning jobs: a `POST /jobs/learn` request returns
//! immediately with a job id; the learning run happens on its own thread
//! against the shared read-only [`relstore::Database`], and clients poll
//! `GET /jobs/{id}` for status. Cancellation is cooperative — the flag is
//! polled by [`autobias::learn::Learner::learn_cancellable`] once per
//! covering-loop iteration, so a cancelled job still returns the clauses
//! accepted so far.

use crate::events::EventLog;
use crate::ledger::RunLedger;
use crate::registry::{ModelEntry, ModelRegistry};
use autobias::bias::auto::{induce_bias, AutoBiasConfig};
use autobias::bottom::{BcConfig, SamplingStrategy};
use autobias::example::TrainingSet;
use autobias::learn::{Learner, LearnerConfig};
use datasets::Dataset;
use obs::progress::{ProgressEvent, ProgressSink};
use obs::report::ReportBuilder;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// What to learn and how; parsed from the request body (`key value` lines).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Registry name for the learned model (default `job-<id>`).
    pub model_name: Option<String>,
    /// `auto` (induced from constraints) or `manual` (the dataset's expert
    /// bias file).
    pub bias: BiasChoice,
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

/// Which language bias the job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiasChoice {
    /// Induce the bias from database constraints (the paper's AutoBias).
    Auto,
    /// Use the dataset's expert-written bias.
    Manual,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            model_name: None,
            bias: BiasChoice::Auto,
            sampling: SamplingStrategy::Naive { per_selection: 20 },
            depth: 2,
            seed: 7,
            max_clauses: LearnerConfig::default().max_clauses,
            reduce: true,
        }
    }
}

impl JobSpec {
    /// Parses `key value` lines (blank lines and `#` comments ignored).
    /// An empty body yields the default spec.
    pub fn parse(body: &str) -> Result<Self, String> {
        let mut spec = Self::default();
        let mut sample_size = 20usize;
        let mut sampling_word = "naive".to_string();
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
                "bias" => {
                    spec.bias = match value {
                        "auto" => BiasChoice::Auto,
                        "manual" => BiasChoice::Manual,
                        other => return Err(format!("unknown bias {other:?} (auto|manual)")),
                    }
                }
                "sampling" => sampling_word = value.to_string(),
                "sample-size" => {
                    sample_size = value
                        .parse()
                        .map_err(|_| format!("bad sample-size {value:?}"))?;
                }
                "depth" => {
                    spec.depth = value.parse().map_err(|_| format!("bad depth {value:?}"))?;
                }
                "seed" => {
                    spec.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                }
                "max-clauses" => {
                    spec.max_clauses = value
                        .parse()
                        .map_err(|_| format!("bad max-clauses {value:?}"))?;
                }
                "reduce" => {
                    spec.reduce = value
                        .parse()
                        .map_err(|_| format!("bad reduce {value:?} (true|false)"))?;
                }
                other => return Err(format!("unknown job option {other:?}")),
            }
        }
        spec.sampling = match sampling_word.as_str() {
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
        };
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
    /// Bias construction or learning failed.
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

/// Mutable job status, read by pollers.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Current lifecycle state.
    pub state: JobState,
    /// Human-readable detail (error message, completion summary).
    pub detail: String,
    /// Clauses in the learned definition so far (live while running).
    pub clauses: usize,
    /// Positives left uncovered (live while running).
    pub uncovered_pos: usize,
    /// Covering-loop iteration currently in progress (0 before the first).
    pub iteration: usize,
    /// Positive training examples in total (0 until the BC build finishes).
    pub pos_total: usize,
    /// Positives covered so far (`pos_total - uncovered_pos` once known).
    pub pos_covered: usize,
    /// Wall-clock seconds once terminal.
    pub elapsed_secs: Option<f64>,
    /// Seconds spent building ground bottom clauses, once terminal.
    pub bc_secs: Option<f64>,
    /// Seconds spent in clause search (the covering loop), once terminal.
    pub search_secs: Option<f64>,
    /// Clauses of the learned model compiled into evaluation plans, once
    /// the job completed and the model was registered.
    pub plan_compiled: Option<usize>,
    /// Clauses declined by the plan compiler (interpreter fallback), once
    /// the job completed.
    pub plan_fallback: Option<usize>,
}

/// One background learning job.
pub struct Job {
    /// Job id, unique per server.
    pub id: u64,
    /// Name the learned model is registered under.
    pub model_name: String,
    /// Trace id (32 hex digits) of the job's span tree; the tree is kept in
    /// the server's trace store once the job terminates, so a run found in
    /// `GET /jobs/{id}` resolves at `GET /debug/traces/{trace_id}`.
    pub trace_id: String,
    /// Live SSE frames of this job's [`ProgressEvent`]s; closed once the
    /// job is terminal, ending any `GET /jobs/{id}/events` streams.
    pub events: Arc<EventLog>,
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

/// Owns all jobs of one server.
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
    /// completes. When a trace store is given, the job runs under its own
    /// [`obs::trace::TraceCtx`] and the finished span tree — bias induction,
    /// BC build, clause search, plan compile — is kept there unconditionally.
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
        let ctx = obs::trace::TraceCtx::begin(None);
        let job = Arc::new(Job {
            id,
            model_name: model_name.clone(),
            trace_id: ctx.trace_id_hex(),
            events: Arc::new(EventLog::default()),
            status: Mutex::new(JobStatus {
                state: JobState::Queued,
                detail: String::new(),
                clauses: 0,
                uncovered_pos: 0,
                iteration: 0,
                pos_total: ds.pos.len(),
                pos_covered: 0,
                elapsed_secs: None,
                bc_secs: None,
                search_secs: None,
                plan_compiled: None,
                plan_fallback: None,
            }),
            cancel: AtomicBool::new(false),
            handle: Mutex::new(None),
        });
        self.jobs
            .lock()
            .expect("jobs lock poisoned")
            .insert(id, job.clone());

        let worker_job = job.clone();
        let handle = std::thread::Builder::new()
            .name(format!("learn-job-{id}"))
            .spawn(move || {
                let t0 = Instant::now();
                worker_job.set_status(|s| s.state = JobState::Running);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    // Installed inside the closure so the guard unwinds with
                    // a panic instead of leaking the thread-local context.
                    let _traced = ctx.install();
                    run_learn(&worker_job, &spec, &ds, &registry, ledger.as_deref())
                }));
                let elapsed = t0.elapsed().as_secs_f64();
                if let Some(traces) = &traces {
                    traces.keep(crate::trace::StoredTrace::new(
                        "job",
                        0,
                        t0.elapsed().as_micros() as u64,
                        crate::trace::KeepReason::Job,
                        ctx.finish(),
                    ));
                }
                match result {
                    Ok(Ok(outcome)) => worker_job.set_status(|s| {
                        s.state = outcome.state;
                        s.detail = outcome.detail;
                        s.clauses = outcome.clauses;
                        s.uncovered_pos = outcome.uncovered_pos;
                        s.pos_covered = s.pos_total.saturating_sub(outcome.uncovered_pos);
                        s.elapsed_secs = Some(elapsed);
                        s.bc_secs = Some(outcome.bc_secs);
                        s.search_secs = Some(outcome.search_secs);
                        s.plan_compiled = Some(outcome.plan_compiled);
                        s.plan_fallback = Some(outcome.plan_fallback);
                    }),
                    Ok(Err(msg)) => worker_job.set_status(|s| {
                        s.state = JobState::Failed;
                        s.detail = msg;
                        s.elapsed_secs = Some(elapsed);
                    }),
                    Err(_) => worker_job.set_status(|s| {
                        s.state = JobState::Failed;
                        s.detail = "learning thread panicked".to_string();
                        s.elapsed_secs = Some(elapsed);
                    }),
                }
                // Close after the terminal status is visible, so a watcher
                // whose stream just ended polls a final, settled state.
                worker_job.events.close();
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

struct LearnOutcome {
    state: JobState,
    detail: String,
    clauses: usize,
    uncovered_pos: usize,
    bc_secs: f64,
    search_secs: f64,
    plan_compiled: usize,
    plan_fallback: usize,
}

/// Fans the learner's progress stream out to the job's live status fields,
/// its SSE event log, and the run-report builder.
struct JobSink<'a> {
    job: &'a Job,
    report: &'a ReportBuilder,
}

impl ProgressSink for JobSink<'_> {
    fn on_event(&self, ev: &ProgressEvent) {
        self.report.on_event(ev);
        match ev {
            ProgressEvent::BcBuildFinished { pos_examples, .. } => {
                let pos_examples = *pos_examples;
                self.job.set_status(|s| {
                    s.pos_total = pos_examples;
                    s.uncovered_pos = pos_examples;
                });
            }
            ProgressEvent::IterationStarted {
                iteration,
                uncovered_pos,
                clauses_so_far,
                ..
            } => {
                let (iteration, uncovered_pos, clauses) =
                    (*iteration, *uncovered_pos, *clauses_so_far);
                self.job.set_status(|s| {
                    s.iteration = iteration;
                    s.uncovered_pos = uncovered_pos;
                    s.pos_covered = s.pos_total.saturating_sub(uncovered_pos);
                    s.clauses = clauses;
                });
            }
            ProgressEvent::ClauseAccepted {
                uncovered_after, ..
            } => {
                let uncovered_after = *uncovered_after;
                self.job.set_status(|s| {
                    s.clauses += 1;
                    s.uncovered_pos = uncovered_after;
                    s.pos_covered = s.pos_total.saturating_sub(uncovered_after);
                });
            }
            _ => {}
        }
        self.job.events.push(ev.to_sse_frame());
    }
}

fn run_learn(
    job: &Job,
    spec: &JobSpec,
    ds: &Dataset,
    registry: &ModelRegistry,
    ledger: Option<&RunLedger>,
) -> Result<LearnOutcome, String> {
    let bias = match spec.bias {
        BiasChoice::Auto => {
            let (bias, _, _) = induce_bias(&ds.db, ds.target, &AutoBiasConfig::default())
                .map_err(|e| format!("bias induction: {e}"))?;
            bias
        }
        BiasChoice::Manual => ds.manual_bias().map_err(|e| format!("manual bias: {e}"))?,
    };
    let cfg = LearnerConfig {
        bc: BcConfig {
            depth: spec.depth,
            strategy: spec.sampling,
            ..BcConfig::default()
        },
        seed: spec.seed,
        max_clauses: spec.max_clauses,
        reduce_clauses: spec.reduce,
        ..LearnerConfig::default()
    };
    let train = TrainingSet::new(ds.pos.clone(), ds.neg.clone());
    let sampling = match spec.sampling {
        SamplingStrategy::Naive { per_selection } => format!("naive:{per_selection}"),
        SamplingStrategy::Random { per_selection, .. } => format!("random:{per_selection}"),
        SamplingStrategy::Stratified { per_stratum } => format!("stratified:{per_stratum}"),
        SamplingStrategy::Full => "full".to_string(),
    };
    // Counter/phase deltas in the report are process-global; with several
    // jobs running concurrently they describe the overlap, not one job.
    let report = ReportBuilder::new(
        ds.name,
        vec![
            ("model".to_string(), job.model_name.clone()),
            (
                "bias".to_string(),
                match spec.bias {
                    BiasChoice::Auto => "auto".to_string(),
                    BiasChoice::Manual => "manual".to_string(),
                },
            ),
            ("sampling".to_string(), sampling),
            ("depth".to_string(), spec.depth.to_string()),
            ("seed".to_string(), spec.seed.to_string()),
            ("max_clauses".to_string(), spec.max_clauses.to_string()),
            ("reduce".to_string(), spec.reduce.to_string()),
        ],
    );
    report.set_trace_id(job.trace_id.clone());
    let sink = JobSink {
        job,
        report: &report,
    };
    let (def, stats) =
        Learner::new(cfg).learn_with_progress(&ds.db, &bias, &train, &job.cancel, &sink);

    // Learned models are verified observationally (warnings logged, never
    // rejected): the learner's own invariants make Error findings a bug, and
    // a partial model from a cancelled job is still worth serving.
    let verdict = analyze::check_definition(&ds.db, &def, Some(&bias));
    if !verdict.is_clean() {
        obs::warn!(
            "job {} model {}: verifier found {}",
            job.id,
            job.model_name,
            verdict.summary()
        );
    }

    let clauses = def.len();
    let uncovered_pos = stats.uncovered_pos;
    let text = def.render(&ds.db);
    let path = registry.dir().join(format!("{}.model", job.model_name));
    // Persist before registering so a restart reloads the same model; a
    // cancelled job's partial definition is still a valid (weaker) model.
    std::fs::write(&path, format!("{text}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    // Compile-at-insert happens before the report is finished, so the
    // `plan.compile` span shows up in the archived run's phase table.
    let entry = ModelEntry::new(&ds.db, job.model_name.clone(), def, vec![], Some(path));
    let (plan_compiled, plan_fallback) = (entry.plan.num_compiled(), entry.plan.num_declined());
    report.set_plan(obs::PlanReport {
        compiled_clauses: plan_compiled,
        fallback_clauses: plan_fallback,
        declined: entry
            .plan
            .declined()
            .iter()
            .map(|(i, why)| format!("clause {i}: {why}"))
            .collect(),
    });
    registry.insert(entry);
    if let Some(ledger) = ledger {
        let json = report.finish().to_json();
        if let Err(e) = ledger.archive(job.id, &json) {
            obs::warn!("archiving run report for job {}: {e}", job.id);
        }
    }

    let state = if stats.cancelled {
        JobState::Cancelled
    } else {
        JobState::Done
    };
    Ok(LearnOutcome {
        state,
        detail: format!(
            "{clauses} clause(s), {uncovered_pos} uncovered positive(s), bc {:?}, search {:?}",
            stats.bc_time, stats.search_time
        ),
        clauses,
        uncovered_pos,
        bc_secs: stats.bc_time.as_secs_f64(),
        search_secs: stats.search_time.as_secs_f64(),
        plan_compiled,
        plan_fallback,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_options_and_rejects_garbage() {
        let spec = JobSpec::parse("").unwrap();
        assert!(spec.model_name.is_none());
        assert_eq!(spec.bias, BiasChoice::Auto);

        let spec = JobSpec::parse(
            "name mymodel\nbias manual\nsampling full\ndepth 3\nseed 42\nmax-clauses 5\nreduce false\n",
        )
        .unwrap();
        assert_eq!(spec.model_name.as_deref(), Some("mymodel"));
        assert_eq!(spec.bias, BiasChoice::Manual);
        assert!(matches!(spec.sampling, SamplingStrategy::Full));
        assert_eq!(spec.depth, 3);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.max_clauses, 5);
        assert!(!spec.reduce);

        assert!(JobSpec::parse("bias nonsense").is_err());
        assert!(JobSpec::parse("sampling nonsense").is_err());
        assert!(JobSpec::parse("frobnicate 9").is_err());
        assert!(JobSpec::parse("justakey").is_err());
    }

    #[test]
    fn job_runs_to_done_and_registers_model() {
        let ds = Arc::new(datasets::uw::generate(
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
        ));
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
        assert!(status.clauses > 0);
        assert!(registry.get("learned").is_some());
        assert!(dir.join("learned.model").exists());

        // The final compile outcome is part of the terminal status: every
        // learned clause either compiled or was declined to the interpreter.
        let compiled = status.plan_compiled.expect("compile outcome recorded");
        let fallback = status.plan_fallback.expect("compile outcome recorded");
        assert_eq!(compiled + fallback, status.clauses);

        // Live progress fields settled to the final values.
        assert_eq!(status.pos_total, ds.pos.len());
        assert_eq!(status.pos_covered, status.pos_total - status.uncovered_pos);
        assert!(status.iteration >= 1, "at least one iteration recorded");

        // The event log replayed the whole run and is closed.
        assert!(job.events.is_closed());
        let batch = job
            .events
            .wait_from(0, std::time::Duration::from_millis(10));
        assert!(batch.closed);
        assert!(
            batch.frames.len() >= 3,
            "bc build + iterations + finished, got {}",
            batch.frames.len()
        );
        assert!(batch.frames[0].starts_with("event: bc_build_finished\n"));
        assert!(batch
            .frames
            .last()
            .unwrap()
            .starts_with("event: finished\n"));

        // The run report landed in the ledger and matches the outcome.
        let json = ledger.get(job.id).expect("archived report");
        let report = obs::json::Json::parse(&json).expect("report is valid JSON");
        assert_eq!(
            report.path(&["outcome", "clauses"]).unwrap().as_f64(),
            Some(status.clauses as f64)
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
        assert!(job2.events.is_closed(), "terminal job closes its event log");
        std::fs::remove_dir_all(&dir).ok();
    }
}
