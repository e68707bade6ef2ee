//! # autobias — scalable relational learning with automatic language bias
//!
//! Reproduction of Picado et al., *Scalable and Usable Relational Learning
//! With Automatic Language Bias* (SIGMOD 2021). The crate provides:
//!
//! - [`bias`] — language-bias representation, the automatic induction of
//!   predicate and mode definitions from database constraints (paper §3),
//!   the Castor/no-constant baselines, and a parser for expert-written bias;
//! - [`bottom`] — bottom-clause construction (Algorithm 2) under four
//!   sampling strategies: full, naïve, random over semi-joins, stratified
//!   (paper §4);
//! - [`subsume`] — randomized-restart θ-subsumption (paper §5);
//! - [`coverage`] — ground-BC reuse for fast coverage testing;
//! - [`generalize`] — the armg operator and beam search (paper §2.3.2);
//! - [`learn`] — the sequential covering learner (Algorithm 1);
//! - [`eval`] — precision/recall/F-measure and k-fold cross validation.
//!
//! ```
//! use autobias::prelude::*;
//! use relstore::Database;
//!
//! // Build a tiny database where advising == co-authorship.
//! let mut db = Database::new();
//! let student = db.add_relation("student", &["stud"]);
//! let professor = db.add_relation("professor", &["prof"]);
//! let publ = db.add_relation("publication", &["title", "person"]);
//! let target = db.add_relation("advisedBy", &["stud", "prof"]);
//! let mut pos = Vec::new();
//! let mut neg = Vec::new();
//! for i in 0..6 {
//!     let (s, p, t) = (format!("s{i}"), format!("f{i}"), format!("paper{i}"));
//!     db.insert(student, &[&s]);
//!     db.insert(professor, &[&p]);
//!     db.insert(publ, &[&t, &s]);
//!     db.insert(publ, &[&t, &p]);
//!     db.insert(target, &[&s, &p]); // target examples live in the db too
//!     let s = db.lookup(&s).unwrap();
//!     let p = db.lookup(&p).unwrap();
//!     let p2 = db.lookup(&format!("f{}", (i + 1) % 6));
//!     pos.push(Example::new(target, vec![s, p]));
//!     if let Some(p2) = p2 { neg.push(Example::new(target, vec![s, p2])); }
//! }
//!
//! // Induce the language bias automatically and learn.
//! let (bias, _graph, _stats) =
//!     induce_bias(&db, target, &AutoBiasConfig::default()).unwrap();
//! let learner = Learner::default();
//! let (definition, _) = learner.learn(&db, &bias, &TrainingSet::new(pos, neg));
//! assert!(!definition.is_empty());
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod bias;
pub mod bottom;
pub mod canon;
pub mod clause;
pub mod clause_text;
pub mod coverage;
pub mod eval;
pub mod example;
pub mod generalize;
pub mod instrument;
pub mod learn;
pub mod query;
pub mod subsume;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::bias::aleph::{parse_aleph_bias, render_aleph_bias};
    pub use crate::bias::auto::{induce_bias, AutoBiasConfig, BiasStats, ConstantThreshold};
    pub use crate::bias::baseline::{castor_bias, no_const_bias};
    pub use crate::bias::overlap::overlap_bias;
    pub use crate::bias::parse::parse_bias;
    pub use crate::bias::{ArgMode, LanguageBias, ModeDef, PredDef};
    pub use crate::bottom::{
        build_bottom_clause, build_ground_clause, build_ground_clause_in, variablize, BcConfig,
        BcScratch, BottomClause, GroundClause, GroundLiteral, SamplingStrategy,
    };
    pub use crate::canon::{canonical_form, canonical_form_status, canonical_key};
    pub use crate::clause::{Clause, Definition, Literal, Term, VarId};
    pub use crate::clause_text::{
        parse_clause, parse_clause_frozen, parse_definition, parse_definition_frozen,
        ClauseParseError,
    };
    pub use crate::coverage::{worker_threads, Bitset, Canonical, CoverageEngine, NegCount};
    pub use crate::eval::{evaluate_definition, kfold_splits, Metrics};
    pub use crate::example::{parse_arg_tuple, split_arg_tuple, Example, TrainingSet};
    pub use crate::generalize::{armg, learn_clause, reduce_clause, GenConfig};
    pub use crate::learn::{LearnStats, Learner, LearnerConfig, MinCriterion};
    pub use crate::query::{clause_covers, definition_covers, QueryConfig};
    pub use crate::subsume::{
        theta_subsumes, PrefixProbe, PreparedClause, SubsumeConfig, Witness, Workspace,
    };
}
