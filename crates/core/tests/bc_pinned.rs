//! Pins the exact output of `bottom::build_ground_clause`: which tuples
//! each ground bottom clause collects, and in what order.
//!
//! Coverage tests, the learner's seed clause and every evaluation pass read
//! these ground clauses, and subsumption answers under a node budget depend
//! on fact order. So a change to bottom-clause construction that is meant
//! to be a pure speedup must reproduce every clause fact for fact. This test
//! records one FNV-1a hash over every ground clause built for every
//! positive and negative example of generated UW and HIV (data seed 7,
//! AutoBias bias), under all four sampling strategies at depth 2 and four
//! cap settings: the Table 5 learner caps, `evaluate_definition`'s caps,
//! and `max_tuples` caps small enough to stop collection mid-probe.
//!
//! It also builds every clause a second time through one reused
//! [`BcScratch`], in a shuffled example order, and requires each to equal
//! its fresh build: state left behind by one build must not reach the next.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point
#![cfg(not(miri))] // builds thousands of clauses, far too slow under miri

use autobias::bias::auto::{induce_bias, AutoBiasConfig, ConstantThreshold};
use autobias::bottom::{
    build_ground_clause, build_ground_clause_in, BcConfig, BcScratch, GroundClause,
    SamplingStrategy,
};
use autobias::example::Example;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relstore::{Const, Database, RelId};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn mix(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn clause(&mut self, g: &GroundClause) {
        self.mix(g.len() as u64);
        for (rel, vals) in g.literals() {
            self.mix(u64::from(rel.0));
            for c in vals {
                self.mix(u64::from(c.0));
            }
        }
    }
}

/// A ground clause's facts, for equality checks.
fn facts(g: &GroundClause) -> Vec<(RelId, Vec<Const>)> {
    g.literals().map(|(r, v)| (r, v.to_vec())).collect()
}

/// The RNG example `i` is built with, independent of build order.
fn rng_for(i: usize) -> StdRng {
    StdRng::seed_from_u64(7 ^ (i as u64).wrapping_mul(0x9e37_79b9))
}

/// Every configuration the hash covers.
fn configs() -> Vec<BcConfig> {
    let strategies = [
        SamplingStrategy::Full,
        SamplingStrategy::Naive { per_selection: 20 },
        SamplingStrategy::Random {
            per_selection: 20,
            oversample: 5,
        },
        SamplingStrategy::Stratified { per_stratum: 2 },
    ];
    // Table 5 learner caps, `evaluate_definition`'s caps, and two tuple
    // caps that stop collection inside a probe's selection: 23 within the
    // first depth on HIV, 60 within the last on both datasets (every
    // depth-1 clause has fewer than 60 tuples, every depth-2 one more).
    let caps = [(3_000, 2_000), (100_000, 100_000), (23, 2_000), (60, 2_000)];
    let mut out = Vec::new();
    for (max_tuples, max_body_literals) in caps {
        for strategy in strategies {
            out.push(BcConfig {
                depth: 2,
                strategy,
                max_tuples,
                max_body_literals,
            });
        }
    }
    out
}

/// Hashes every example's fresh ground clause under every configuration,
/// and checks that one reused scratch, fed the examples in a shuffled
/// order, builds the same clauses.
fn hash_dataset(db: &Database, bias: &autobias::bias::LanguageBias, examples: &[Example]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut scratch = BcScratch::default();
    let mut order: Vec<usize> = (0..examples.len()).collect();
    let mut shuffle_rng = StdRng::seed_from_u64(11);
    for cfg in configs() {
        let fresh: Vec<GroundClause> = examples
            .iter()
            .enumerate()
            .map(|(i, e)| build_ground_clause(db, bias, e, &cfg, &mut rng_for(i)))
            .collect();
        for g in &fresh {
            h.clause(g);
        }
        order.shuffle(&mut shuffle_rng);
        for &i in &order {
            let reused =
                build_ground_clause_in(&mut scratch, db, bias, &examples[i], &cfg, &mut rng_for(i));
            assert_eq!(
                facts(&reused),
                facts(&fresh[i]),
                "{cfg:?}: example {i} differs when built through a reused scratch"
            );
        }
    }
    h.0
}

#[test]
fn ground_clauses_are_pinned() {
    let auto = AutoBiasConfig {
        constant_threshold: ConstantThreshold::Absolute(50),
        ..AutoBiasConfig::default()
    };
    let uw = datasets::uw::generate(&Default::default(), 7);
    let hiv = datasets::hiv::generate(&Default::default(), 7);
    let mut got = Vec::new();
    for ds in [&uw, &hiv] {
        let (bias, _, _) = induce_bias(&ds.db, ds.target, &auto).unwrap();
        let examples: Vec<Example> = ds.pos.iter().chain(&ds.neg).cloned().collect();
        got.push(format!("{:016x}", hash_dataset(&ds.db, &bias, &examples)));
    }
    // Recorded before the collection pass moved onto `BcScratch`.
    assert_eq!(got, ["e3a74a65fb68d009", "965a82e60f8d5504"]);
}
