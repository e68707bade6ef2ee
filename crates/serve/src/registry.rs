//! The model registry: named learned definitions, loaded from a directory of
//! model files and shared across request threads.
//!
//! Readers grab an `Arc` snapshot of the whole name → model map under a
//! briefly-held lock and then work lock-free; `reload` builds a fresh map off
//! to the side and swaps the `Arc` in one assignment, so in-flight predict
//! requests keep the snapshot they started with (models never mutate in
//! place). Parsing uses [`autobias::clause_text::parse_definition_frozen`]:
//! the shared [`Database`] is never written, and constants unknown to the
//! data get ephemeral ids recorded on the entry.

use autobias::clause::Definition;
use autobias::clause_text::parse_definition_frozen;
use relstore::Database;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// One loaded model.
#[derive(Debug)]
pub struct ModelEntry {
    /// Registry name (the file stem, or the job-supplied name).
    pub name: String,
    /// The parsed Horn definition.
    pub definition: Definition,
    /// Constant tokens in the model text that do not occur in the data, in
    /// first-seen order. Predict requests re-resolve these in the same order
    /// so the model's ephemeral ids stay stable per request.
    pub unknown_constants: Vec<String>,
    /// Source path, when the model came from a file.
    pub source: Option<PathBuf>,
    /// Evaluation plans compiled at load time ([`plan::compile_definition`]).
    /// A registered entry compiled every clause
    /// ([`plan::CompiledDefinition::refusal`]), so predict requests
    /// evaluate the plans alone.
    pub plan: plan::CompiledDefinition,
    /// Lock-free runtime statistics for the compiled plans, shaped like
    /// `plan` and aggregated across predict batches (EXPLAIN ANALYZE,
    /// q-error metrics). Lives and dies with the entry, so rotated models
    /// can never leak stale series.
    pub stats: plan::PlanStats,
}

impl ModelEntry {
    /// Builds an entry, compiling the definition into evaluation plans
    /// against `db` (the database requests will be answered from). Every
    /// load path — directory scan, upload, and the learn run of a job or
    /// of `autobias learn` ([`crate::jobs::learn_model`]) — goes through
    /// here, so a model is compiled exactly once per load, under the
    /// `plan.compile` span.
    pub fn new(
        db: &Database,
        name: String,
        definition: Definition,
        unknown_constants: Vec<String>,
        source: Option<PathBuf>,
    ) -> Self {
        let mut sp = obs::span!("plan.compile");
        let compiled = plan::compile_definition(db, &definition, &plan::CompileConfig::default());
        sp.note("compiled", compiled.num_compiled() as u64);
        sp.note("declined", compiled.num_declined() as u64);
        drop(sp);
        let stats = plan::PlanStats::for_definition(&compiled);
        Self {
            name,
            definition,
            unknown_constants,
            source,
            plan: compiled,
            stats,
        }
    }
}

/// Outcome of one directory scan.
#[derive(Debug, Default)]
pub struct ReloadReport {
    /// Names loaded, sorted.
    pub loaded: Vec<String>,
    /// `(file name, parse error)` pairs for files that failed; they are
    /// skipped, not fatal, so one bad file cannot take down serving.
    pub errors: Vec<(String, String)>,
}

/// Thread-shared registry of named models.
pub struct ModelRegistry {
    dir: PathBuf,
    models: RwLock<Arc<HashMap<String, Arc<ModelEntry>>>>,
}

impl ModelRegistry {
    /// Creates a registry over `dir` and performs the initial scan.
    pub fn open(db: &Database, dir: &Path) -> std::io::Result<(Self, ReloadReport)> {
        std::fs::create_dir_all(dir)?;
        let reg = Self {
            dir: dir.to_path_buf(),
            models: RwLock::new(Arc::new(HashMap::new())),
        };
        let report = reg.reload(db);
        Ok((reg, report))
    }

    /// The directory models are loaded from (and learned models saved to).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Rescans the directory, replacing the whole map atomically. Model
    /// files are `*.model` or `*.txt`, one clause per line, named by stem.
    pub fn reload(&self, db: &Database) -> ReloadReport {
        let mut report = ReloadReport::default();
        let mut next: HashMap<String, Arc<ModelEntry>> = HashMap::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) => {
                report
                    .errors
                    .push((self.dir.display().to_string(), e.to_string()));
                return report;
            }
        };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|s| s.to_str()),
                    Some("model") | Some("txt")
                )
            })
            .collect();
        paths.sort();
        for path in paths {
            let fname = path
                .file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    report.errors.push((fname, e.to_string()));
                    continue;
                }
            };
            match parse_definition_frozen(db, &text) {
                Ok((definition, unknown_constants)) => {
                    // Same admission bar as `POST /models/{name}`: a model
                    // with Error-severity lint findings (disconnected
                    // literals, unbound head variables) does not load.
                    let verdict = analyze::check_definition(db, &definition, None);
                    if verdict.has_errors() {
                        crate::metrics::MODEL_REJECTIONS.bump();
                        report.errors.push((fname, verdict.summary()));
                        continue;
                    }
                    let entry = ModelEntry::new(
                        db,
                        stem.to_string(),
                        definition,
                        unknown_constants,
                        Some(path.clone()),
                    );
                    // Plan gate: a model serves only when every clause
                    // compiled into a verified plan.
                    if let Some(why) = entry.plan.refusal() {
                        crate::metrics::MODEL_REJECTIONS.bump();
                        report.errors.push((fname, why));
                        continue;
                    }
                    next.insert(stem.to_string(), Arc::new(entry));
                }
                Err(e) => report.errors.push((fname, e.to_string())),
            }
        }
        report.loaded = next.keys().cloned().collect();
        report.loaded.sort();
        *self.models.write().expect("registry lock poisoned") = Arc::new(next);
        report
    }

    /// Inserts (or replaces) one model, e.g. a just-learned definition.
    /// Copy-on-write: readers holding the previous snapshot are unaffected.
    pub fn insert(&self, entry: ModelEntry) {
        let mut guard = self.models.write().expect("registry lock poisoned");
        let mut next: HashMap<String, Arc<ModelEntry>> = (**guard).clone();
        next.insert(entry.name.clone(), Arc::new(entry));
        *guard = Arc::new(next);
    }

    /// Looks up one model.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.models
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// All models, sorted by name.
    pub fn list(&self) -> Vec<Arc<ModelEntry>> {
        let snapshot = self.models.read().expect("registry lock poisoned").clone();
        let mut all: Vec<Arc<ModelEntry>> = snapshot.values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Number of loaded models.
    pub fn len(&self) -> usize {
        self.models.read().expect("registry lock poisoned").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_db() -> Database {
        let mut db = relstore::fixtures::uw_fragment();
        db.add_relation("advisedBy", &["stud", "prof"]);
        db
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("autobias_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn loads_skips_bad_files_and_reloads() {
        let db = test_db();
        let dir = temp_dir("load");
        std::fs::write(
            dir.join("coauthor.model"),
            "advisedBy(x, y) ← publication(z, x), publication(z, y)\n",
        )
        .unwrap();
        std::fs::write(dir.join("broken.model"), "nosuchrel(x)\n").unwrap();
        std::fs::write(dir.join("notes.md"), "ignored\n").unwrap();

        let (reg, report) = ModelRegistry::open(&db, &dir).unwrap();
        assert_eq!(report.loaded, vec!["coauthor"]);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].0, "broken.model");
        assert_eq!(reg.get("coauthor").unwrap().definition.len(), 1);
        assert!(reg.get("broken").is_none());

        // A held snapshot survives a reload that removes the model.
        let held = reg.get("coauthor").unwrap();
        std::fs::remove_file(dir.join("coauthor.model")).unwrap();
        let report = reg.reload(&db);
        assert!(report.loaded.is_empty());
        assert!(reg.get("coauthor").is_none());
        assert_eq!(held.definition.len(), 1, "old snapshot still usable");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_is_copy_on_write() {
        let db = test_db();
        let dir = temp_dir("insert");
        let (reg, _) = ModelRegistry::open(&db, &dir).unwrap();
        reg.insert(ModelEntry::new(
            &db,
            "m1".into(),
            Definition::new(),
            vec![],
            None,
        ));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.list()[0].name, "m1");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_models_carry_compiled_plans() {
        let db = test_db();
        let dir = temp_dir("plans");
        std::fs::write(
            dir.join("coauthor.model"),
            "advisedBy(x, y) ← publication(z, x), publication(z, y)\n",
        )
        .unwrap();
        let (reg, report) = ModelRegistry::open(&db, &dir).unwrap();
        assert_eq!(report.loaded, vec!["coauthor"]);
        let entry = reg.get("coauthor").unwrap();
        let compiled = &entry.plan;
        assert_eq!(compiled.num_compiled(), 1);
        assert!(compiled.is_fully_compiled());
        std::fs::remove_dir_all(&dir).ok();
    }
}
