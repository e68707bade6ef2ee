//! # relstore — in-memory relational substrate for AutoBias
//!
//! The paper's implementation sits on VoltDB, a main-memory DBMS. This crate
//! is the equivalent substrate: a catalog of relation schemas, a value
//! dictionary interning every constant, tuple storage with per-attribute
//! inverted indexes, and the handful of algebra operations the learner needs —
//! `σ_{A ∈ M}` selection, distinct projection, and right semi-joins — plus the
//! per-value frequency statistics (`m(a)`, `M`) that drive Olken-style
//! accept–reject sampling (paper §4.2.3).
//!
//! ```
//! use relstore::{Database, AttrRef};
//!
//! let mut db = Database::new();
//! let publ = db.add_relation("publication", &["title", "person"]);
//! db.insert(publ, &["p1", "juan"]);
//! db.insert(publ, &["p1", "sarita"]);
//!
//! // Every attribute is indexed on first read.
//! let juan = db.lookup("juan").unwrap();
//! assert_eq!(db.relation(publ).index(1).lookup(juan), &[0]);
//! assert_eq!(db.distinct(AttrRef::new(publ, 0)).len(), 1);
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod algebra;
pub mod csv;
pub mod database;
pub mod dict;
pub mod fixtures;
pub mod fxhash;
pub mod relation;
pub mod schema;
pub mod transform;

pub use database::Database;
pub use dict::{Const, ConstResolver, Dictionary};
pub use fxhash::{FxHashMap, FxHashSet};
pub use relation::{AttrIndex, Relation, Tuple, TupleId};
pub use schema::{AttrRef, Catalog, RelId, RelationSchema};
