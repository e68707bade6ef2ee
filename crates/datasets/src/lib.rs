//! # datasets — synthetic workloads mirroring the paper's five datasets
//!
//! The paper evaluates on UW-CSE plus four large datasets (HIV, IMDb, FLT,
//! SYS), two of which are proprietary. This crate generates synthetic
//! equivalents that preserve the properties each dataset contributes to the
//! evaluation (see DESIGN.md §3 for the substitution argument):
//!
//! | module | paper dataset | preserved property |
//! |--------|---------------|--------------------|
//! | [`uw`]   | UW-CSE (1.8K tuples) | same 9-relation schema, co-authorship + TAship signal |
//! | [`hiv`]  | NCI anti-HIV (7.9M)  | molecular graphs, rare vs common elements, disjunctive target |
//! | [`imdb`] | IMDb (8.4M, 46 rels) | many relations, constants required (genre = drama) |
//! | [`flt`]  | proprietary flights  | 3 relations, same-source join through a location constant |
//! | [`sys`]  | proprietary process logs | single wide relation, heavy class imbalance |
//!
//! Every generator takes a size multiplier so experiment shapes can be
//! checked at larger scales, is fully deterministic for a given seed, and
//! ships the expert ("manual") language bias the paper's Castor-Manual rows
//! use. Positive examples are also inserted into the database as the target
//! relation, so automatic bias induction can type the head attributes from
//! INDs.
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod flt;
pub mod hiv;
pub mod imdb;
pub mod io;
pub mod sys;
pub mod uw;

use autobias::bias::parse::{parse_bias, BiasParseError};
use autobias::bias::LanguageBias;
use autobias::example::Example;
use relstore::{Database, RelId};

/// A generated dataset: database, target, labeled examples, and expert bias.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short dataset name as used in the paper's tables.
    pub name: &'static str,
    /// The database instance. Contains the target relation populated with
    /// the positive examples.
    pub db: Database,
    /// The target relation.
    pub target: RelId,
    /// Positive examples.
    pub pos: Vec<Example>,
    /// Negative examples.
    pub neg: Vec<Example>,
    /// The expert-written language bias, in the `bias::parse` format.
    pub manual_bias_text: String,
}

impl Dataset {
    /// Parses the expert bias against this dataset's database.
    pub fn manual_bias(&self) -> Result<LanguageBias, BiasParseError> {
        parse_bias(&self.db, self.target, &self.manual_bias_text)
    }

    /// One-line summary: relations, tuples, example counts.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} relations, {} tuples, {} positive / {} negative examples",
            self.name,
            self.db.catalog().len(),
            self.db.total_tuples(),
            self.pos.len(),
            self.neg.len()
        )
    }

    /// All five datasets at the default (laptop) scale with the given seed.
    pub fn all_default(seed: u64) -> Vec<Dataset> {
        vec![
            uw::generate(&uw::UwConfig::default(), seed),
            hiv::generate(&hiv::HivConfig::default(), seed),
            imdb::generate(&imdb::ImdbConfig::default(), seed),
            flt::generate(&flt::FltConfig::default(), seed),
            sys::generate(&sys::SysConfig::default(), seed),
        ]
    }
}

/// Shared internals for the generators.
pub(crate) mod gen_util {
    use autobias::example::Example;
    use rand::rngs::StdRng;
    use rand::Rng;
    use relstore::{Const, Database, FxHashSet, RelId};

    /// Draws `want` negative examples by sampling argument combinations that
    /// are not in `truth`. `draw` proposes a candidate tuple each call.
    pub fn negatives(
        rng: &mut StdRng,
        target: RelId,
        truth: &FxHashSet<Vec<Const>>,
        want: usize,
        mut draw: impl FnMut(&mut StdRng) -> Vec<Const>,
    ) -> Vec<Example> {
        let mut out = Vec::with_capacity(want);
        let mut seen: FxHashSet<Vec<Const>> = FxHashSet::default();
        let mut attempts = 0usize;
        while out.len() < want && attempts < want * 200 {
            attempts += 1;
            let cand = draw(rng);
            if truth.contains(&cand) || !seen.insert(cand.clone()) {
                continue;
            }
            out.push(Example::new(target, cand));
        }
        out
    }

    /// Inserts the positive examples into the target relation so IND
    /// discovery can type the head attributes.
    pub fn insert_positives(db: &mut Database, target: RelId, pos: &[Example]) {
        for e in pos {
            db.insert_consts(target, &e.args);
        }
    }

    /// Uniform choice from a non-empty slice.
    pub fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
        &items[rng.random_range(0..items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_default_generates_five() {
        let ds = Dataset::all_default(1);
        assert_eq!(ds.len(), 5);
        let names: Vec<&str> = ds.iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["UW", "HIV", "IMDb", "FLT", "SYS"]);
        for d in &ds {
            assert!(!d.pos.is_empty(), "{} has no positives", d.name);
            assert!(!d.neg.is_empty(), "{} has no negatives", d.name);
            assert!(d.db.total_tuples() > 0);
            d.manual_bias()
                .unwrap_or_else(|e| panic!("{} manual bias: {e}", d.name));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = uw::generate(&uw::UwConfig::default(), 7);
        let b = uw::generate(&uw::UwConfig::default(), 7);
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.neg, b.neg);
        assert_eq!(a.db.total_tuples(), b.db.total_tuples());
    }

    #[test]
    fn seeds_differ() {
        let a = uw::generate(&uw::UwConfig::default(), 1);
        let b = uw::generate(&uw::UwConfig::default(), 2);
        assert_ne!(a.pos, b.pos);
    }
}
