//! HIV-like dataset (paper §6.1): structural information about chemical
//! compounds, 5 relations, with the `antiHIV(comp)` target.
//!
//! The synthetic generator preserves what the paper leans on: molecular
//! graphs with *common* elements (C, H, O) and *rare* ones (S, P, Li);
//! no single short clause explains all positives — activity is a
//! **disjunction** of structural motifs, so sampling diversity matters
//! (§6.3's discussion of why random sampling wins here):
//!
//! - motif A: a nitrogen atom double-bonded to a carbon atom;
//! - motif B: an azole-type ring.
//!
//! Scale: default ~400 compounds (≈15 atoms each), a few ten-thousand tuples
//! standing in for the paper's 7.9M; `HivConfig::compounds` scales it up.

use crate::gen_util::{insert_positives, negatives};
use crate::Dataset;
use autobias::example::Example;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use relstore::{Const, FxHashSet};

/// HIV generator parameters.
#[derive(Debug, Clone)]
pub struct HivConfig {
    /// Number of compounds.
    pub compounds: usize,
    /// Atoms per compound (mean; actual is uniform ±50%).
    pub atoms_per_compound: usize,
    /// Fraction of compounds that are anti-HIV.
    pub active_fraction: f64,
    /// Positive examples to emit (≤ active compounds).
    pub positives: usize,
    /// Negative examples to emit.
    pub negatives: usize,
}

impl Default for HivConfig {
    fn default() -> Self {
        Self {
            compounds: 550,
            atoms_per_compound: 14,
            active_fraction: 0.4,
            positives: 150,
            negatives: 300,
        }
    }
}

/// Expert bias for HIV (14 definitions, as the paper reports).
const MANUAL_BIAS: &str = "\
pred compound(TC)
pred atom(TC, TA, TE)
pred bond(TC, TA, TA, TB)
pred ring(TC, TR, TT)
pred inRing(TA, TR)
pred antiHIV(TC)
mode compound(+)
mode atom(+, -, #)
mode atom(+, +, #)
mode bond(+, +, -, #)
mode bond(+, -, +, #)
mode ring(+, -, #)
mode inRing(+, -)
mode inRing(-, +)
";

const COMMON_ELEMENTS: &[&str] = &["c", "h", "o"];
const RARE_ELEMENTS: &[&str] = &["n_el", "s", "p", "cl", "f", "li"];
const BOND_TYPES: &[&str] = &["single", "aromatic", "triple"];
const RING_TYPES: &[&str] = &["benzene", "pyridine", "furan", "thiophene"];

/// Generates the HIV dataset.
pub fn generate(cfg: &HivConfig, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x41_1f);
    let mut db = relstore::Database::new();
    let compound = db.add_relation("compound", &["comp"]);
    let atom = db.add_relation("atom", &["comp", "atom", "element"]);
    let bond = db.add_relation("bond", &["comp", "atom1", "atom2", "btype"]);
    let ring = db.add_relation("ring", &["comp", "ring", "rtype"]);
    let in_ring = db.add_relation("inRing", &["atom", "ring"]);
    let target = db.add_relation("antiHIV", &["comp"]);

    let n_active = ((cfg.compounds as f64) * cfg.active_fraction) as usize;
    let mut active_ids: Vec<Const> = Vec::new();
    let mut inactive_ids: Vec<Const> = Vec::new();
    let mut ring_id = 0usize;

    for ci in 0..cfg.compounds {
        let cname = format!("comp{ci}");
        db.insert(compound, &[&cname]);
        let is_active = ci < n_active;

        let lo = cfg.atoms_per_compound / 2;
        let n_atoms = rng.random_range(lo..=cfg.atoms_per_compound + lo).max(4);
        let atom_names: Vec<String> = (0..n_atoms).map(|ai| format!("a{ci}_{ai}")).collect();

        // Element assignment: mostly common, occasionally rare. Nitrogen is
        // handled specially below to control the N=C motif.
        let mut elements: Vec<&str> = (0..n_atoms)
            .map(|_| {
                if rng.random_range(0.0..1.0) < 0.85 {
                    COMMON_ELEMENTS[rng.random_range(0..COMMON_ELEMENTS.len())]
                } else {
                    // skip n_el here; inserted deliberately for actives
                    RARE_ELEMENTS[rng.random_range(1..RARE_ELEMENTS.len())]
                }
            })
            .collect();

        // Random scaffold bonds (a path plus chords), avoiding the active
        // motif's "double" bond type for inactive compounds.
        let mut bonds: Vec<(usize, usize, &str)> = Vec::new();
        for i in 1..n_atoms {
            let j = rng.random_range(0..i);
            bonds.push((j, i, BOND_TYPES[rng.random_range(0..BOND_TYPES.len())]));
        }
        for _ in 0..n_atoms / 3 {
            let i = rng.random_range(0..n_atoms);
            let j = rng.random_range(0..n_atoms);
            if i != j {
                bonds.push((
                    i.min(j),
                    i.max(j),
                    BOND_TYPES[rng.random_range(0..BOND_TYPES.len())],
                ));
            }
        }

        // Rings: every compound gets 0-2 rings of inactive types.
        let n_rings = rng.random_range(0..3);
        let mut rings: Vec<(String, &str, Vec<usize>)> = Vec::new();
        for _ in 0..n_rings {
            let rname = format!("r{ring_id}");
            ring_id += 1;
            let members: Vec<usize> = (0..5).map(|_| rng.random_range(0..n_atoms)).collect();
            rings.push((
                rname,
                RING_TYPES[rng.random_range(0..RING_TYPES.len())],
                members,
            ));
        }

        if is_active {
            // Plant motif A and/or motif B.
            let which = rng.random_range(0..3); // 0: A, 1: B, 2: both
            if which == 0 || which == 2 {
                let i = rng.random_range(0..n_atoms);
                let mut j = rng.random_range(0..n_atoms);
                while j == i {
                    j = rng.random_range(0..n_atoms);
                }
                elements[i] = "n_el";
                elements[j] = "c";
                bonds.push((i, j, "double"));
            }
            if which == 1 || which == 2 {
                let rname = format!("r{ring_id}");
                ring_id += 1;
                let members: Vec<usize> = (0..5).map(|_| rng.random_range(0..n_atoms)).collect();
                rings.push((rname, "azole", members));
            }
        } else {
            // Make sure no accidental motif: inactive compounds never get a
            // "double" bond adjacent to nitrogen, and no azole rings. The
            // scaffold above only uses single/aromatic/triple and never
            // azole, but nitrogen may appear from the rare pool — keep it:
            // nitrogen without the double bond is exactly the near-miss that
            // makes the task non-trivial.
            if rng.random_range(0.0..1.0) < 0.3 {
                let i = rng.random_range(0..n_atoms);
                elements[i] = "n_el";
            }
        }

        for (ai, aname) in atom_names.iter().enumerate() {
            db.insert(atom, &[&cname, aname, elements[ai]]);
        }
        for (i, j, t) in bonds {
            db.insert(bond, &[&cname, &atom_names[i], &atom_names[j], t]);
        }
        for (rname, rtype, members) in rings {
            db.insert(ring, &[&cname, &rname, rtype]);
            for m in members {
                db.insert(in_ring, &[&atom_names[m], &rname]);
            }
        }

        let cid = db.lookup(&cname).expect("compound interned above");
        if is_active {
            active_ids.push(cid);
        } else {
            inactive_ids.push(cid);
        }
    }

    let mut pos: Vec<Example> = active_ids
        .iter()
        .take(cfg.positives)
        .map(|&c| Example::new(target, vec![c]))
        .collect();
    // Shuffle so cross-validation folds are not ordered by construction.
    use rand::seq::SliceRandom;
    pos.shuffle(&mut rng);

    let truth: FxHashSet<Vec<Const>> = active_ids.iter().map(|&c| vec![c]).collect();
    insert_positives(&mut db, target, &pos);
    let neg = negatives(&mut rng, target, &truth, cfg.negatives, |rng| {
        vec![inactive_ids[rng.random_range(0..inactive_ids.len())]]
    });

    Dataset {
        name: "HIV",
        db,
        target,
        pos,
        neg,
        manual_bias_text: MANUAL_BIAS.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape() {
        let d = generate(&HivConfig::default(), 1);
        assert_eq!(d.db.catalog().len(), 6); // 5 + target
        assert_eq!(d.pos.len(), 150);
        assert_eq!(d.neg.len(), 300);
        assert!(d.db.total_tuples() > 10_000, "got {}", d.db.total_tuples());
    }

    #[test]
    fn negatives_never_contain_a_motif() {
        let d = generate(&HivConfig::default(), 2);
        let atom = d.db.rel_id("atom").unwrap();
        let bond = d.db.rel_id("bond").unwrap();
        let ring = d.db.rel_id("ring").unwrap();
        let double = d.db.lookup("double");
        let azole = d.db.lookup("azole");
        let n_el = d.db.lookup("n_el").unwrap();
        for e in &d.neg {
            let c = e.args[0];
            // No double bond at all in inactive compounds.
            if let Some(double) = double {
                let has_double =
                    d.db.relation(bond)
                        .iter()
                        .any(|(_, t)| t[0] == c && t[3] == double);
                assert!(
                    !has_double,
                    "negative {} has a double bond",
                    e.render(&d.db)
                );
            }
            if let Some(azole) = azole {
                let has_azole =
                    d.db.relation(ring)
                        .iter()
                        .any(|(_, t)| t[0] == c && t[2] == azole);
                assert!(!has_azole);
            }
            // Near-miss nitrogens are allowed (and desirable).
            let _ =
                d.db.relation(atom)
                    .iter()
                    .any(|(_, t)| t[0] == c && t[2] == n_el);
        }
    }

    #[test]
    fn every_positive_has_a_motif() {
        let d = generate(&HivConfig::default(), 3);
        let bond = d.db.rel_id("bond").unwrap();
        let ring = d.db.rel_id("ring").unwrap();
        let atom = d.db.rel_id("atom").unwrap();
        let double = d.db.lookup("double").unwrap();
        let azole = d.db.lookup("azole").unwrap();
        let n_el = d.db.lookup("n_el").unwrap();
        for e in &d.pos {
            let c = e.args[0];
            let n_atoms: FxHashSet<Const> =
                d.db.relation(atom)
                    .iter()
                    .filter(|(_, t)| t[0] == c && t[2] == n_el)
                    .map(|(_, t)| t[1])
                    .collect();
            let motif_a = d.db.relation(bond).iter().any(|(_, t)| {
                t[0] == c && t[3] == double && (n_atoms.contains(&t[1]) || n_atoms.contains(&t[2]))
            });
            let motif_b =
                d.db.relation(ring)
                    .iter()
                    .any(|(_, t)| t[0] == c && t[2] == azole);
            assert!(
                motif_a || motif_b,
                "positive {} lacks a motif",
                e.render(&d.db)
            );
        }
    }

    #[test]
    fn manual_bias_parses() {
        let d = generate(
            &HivConfig {
                compounds: 30,
                positives: 8,
                negatives: 12,
                ..HivConfig::default()
            },
            1,
        );
        assert!(d.manual_bias().is_ok());
    }
}
