//! FLT-like dataset (paper §6.1): flights and airports from a funded project
//! (proprietary), 3 relations, ~201K tuples.
//!
//! The paper's task: "learn the flights with the same source that pass
//! through a given location". We model it as the binary target
//! `connected(f1, f2)`: flights `f1` and `f2` share a source airport and
//! `f2`'s destination lies in the `central` region. The exact definition
//!
//! ```text
//! connected(x, y) ← flight(x, s, d1), flight(y, s, d2), airport(d2, central)
//! ```
//!
//! is expressible under both the manual and the induced bias, which is why
//! the paper's Table 5 reports precision = recall = 1 for Manual and
//! AutoBias on FLT while Castor and Aleph get 0.

use crate::gen_util::insert_positives;
use crate::Dataset;
use autobias::example::Example;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use relstore::{Const, FxHashSet};

/// FLT generator parameters.
#[derive(Debug, Clone)]
pub struct FltConfig {
    /// Number of flights.
    pub flights: usize,
    /// Number of airports.
    pub airports: usize,
    /// Number of regions (one of which is `central`).
    pub regions: usize,
    /// Positive examples (pairs).
    pub positives: usize,
    /// Negative examples (pairs).
    pub negatives: usize,
}

impl Default for FltConfig {
    fn default() -> Self {
        Self {
            flights: 4_000,
            airports: 120,
            regions: 6,
            positives: 100,
            negatives: 300,
        }
    }
}

/// Expert bias for FLT (the paper reports 18 definitions for its 3-relation
/// schema; ours needs 11).
const MANUAL_BIAS: &str = "\
pred flight(TF, TAp, TAp)
pred airport(TAp, TR)
pred carrier(TF, TAl)
pred connected(TF, TF)
mode flight(+, -, -)
mode flight(-, +, -)
mode flight(-, -, +)
mode airport(+, #)
mode carrier(+, -)
mode carrier(+, #)
mode carrier(-, +)
";

/// Generates the FLT dataset.
pub fn generate(cfg: &FltConfig, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf17);
    let mut db = relstore::Database::new();
    let flight = db.add_relation("flight", &["fid", "src", "dst"]);
    let airport = db.add_relation("airport", &["apt", "region"]);
    let carrier = db.add_relation("carrier", &["fid", "airline"]);
    let target = db.add_relation("connected", &["f1", "f2"]);

    let airlines = ["alpha_air", "beta_air", "gamma_air", "delta_air"];

    // Airports with regions; region 0 is "central".
    let mut region_of = Vec::with_capacity(cfg.airports);
    for ai in 0..cfg.airports {
        let apt = format!("apt{ai}");
        let r = rng.random_range(0..cfg.regions);
        let rname = if r == 0 {
            "central".to_string()
        } else {
            format!("region{r}")
        };
        db.insert(airport, &[&apt, &rname]);
        region_of.push(r);
    }

    // Flights.
    let mut flights: Vec<(usize, usize)> = Vec::with_capacity(cfg.flights); // (src, dst)
    for fi in 0..cfg.flights {
        let src = rng.random_range(0..cfg.airports);
        let mut dst = rng.random_range(0..cfg.airports);
        while dst == src {
            dst = rng.random_range(0..cfg.airports);
        }
        db.insert(
            flight,
            &[
                &format!("f{fi}"),
                &format!("apt{src}"),
                &format!("apt{dst}"),
            ],
        );
        db.insert(
            carrier,
            &[
                &format!("f{fi}"),
                airlines[rng.random_range(0..airlines.len())],
            ],
        );
        flights.push((src, dst));
    }

    // Ground truth: connected(f1, f2) iff same src and f2's dst is central.
    // Enumerate positives by sampling f1, then finding a same-source f2 with
    // a central destination.
    let mut by_src: Vec<Vec<usize>> = vec![Vec::new(); cfg.airports];
    for (fi, &(src, _)) in flights.iter().enumerate() {
        by_src[src].push(fi);
    }
    let is_truth =
        |f1: usize, f2: usize| flights[f1].0 == flights[f2].0 && region_of[flights[f2].1] == 0;

    let mut pos = Vec::new();
    let mut pos_keys: FxHashSet<(usize, usize)> = FxHashSet::default();
    let mut guard = 0usize;
    while pos.len() < cfg.positives && guard < cfg.positives * 1000 {
        guard += 1;
        let f1 = rng.random_range(0..cfg.flights);
        let peers = &by_src[flights[f1].0];
        if peers.len() < 2 {
            continue;
        }
        let f2 = peers[rng.random_range(0..peers.len())];
        if f1 == f2 || !is_truth(f1, f2) || !pos_keys.insert((f1, f2)) {
            continue;
        }
        let c1 = db.lookup(&format!("f{f1}")).expect("flight interned above");
        let c2 = db.lookup(&format!("f{f2}")).expect("flight interned above");
        pos.push(Example::new(target, vec![c1, c2]));
    }

    // Negatives: half are *adversarial* — same source but a non-central
    // destination, so the learned rule must include the region constraint —
    // and half are random pairs violating the rule.
    let fid_consts: Vec<Const> = (0..cfg.flights)
        .map(|fi| db.lookup(&format!("f{fi}")).expect("flight interned above"))
        .collect();
    let truth_consts: FxHashSet<Vec<Const>> = pos_keys
        .iter()
        .map(|&(a, b)| vec![fid_consts[a], fid_consts[b]])
        .collect();
    // `negatives` rejects proposals in `truth_consts`; also reject
    // rule-satisfying pairs that were not sampled as positives.
    let flights_ref = &flights;
    let region_ref = &region_of;
    let mut neg = Vec::new();
    let mut seen: FxHashSet<(usize, usize)> = FxHashSet::default();
    let mut guard = 0usize;
    while neg.len() < cfg.negatives && guard < cfg.negatives * 1000 {
        guard += 1;
        let f1 = rng.random_range(0..cfg.flights);
        let f2 = if neg.len() % 2 == 0 {
            // Adversarial: same source, non-central destination.
            let peers = &by_src[flights_ref[f1].0];
            if peers.len() < 2 {
                continue;
            }
            peers[rng.random_range(0..peers.len())]
        } else {
            rng.random_range(0..cfg.flights)
        };
        if f1 == f2
            || flights_ref[f1].0 == flights_ref[f2].0 && region_ref[flights_ref[f2].1] == 0
            || !seen.insert((f1, f2))
        {
            continue;
        }
        neg.push(Example::new(target, vec![fid_consts[f1], fid_consts[f2]]));
    }
    let _ = truth_consts;

    insert_positives(&mut db, target, &pos);
    Dataset {
        name: "FLT",
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
        let d = generate(&FltConfig::default(), 1);
        assert_eq!(d.db.catalog().len(), 4); // 3 + target
        assert_eq!(d.pos.len(), 100);
        assert_eq!(d.neg.len(), 300);
        assert!(d.db.total_tuples() > 8_000);
    }

    #[test]
    fn positives_satisfy_the_rule_and_negatives_do_not() {
        let d = generate(&FltConfig::default(), 2);
        let flight = d.db.rel_id("flight").unwrap();
        let airport = d.db.rel_id("airport").unwrap();
        let central = d.db.lookup("central").unwrap();
        let flight_of = |fid: Const| {
            d.db.relation(flight)
                .iter()
                .find(|(_, t)| t[0] == fid)
                .map(|(_, t)| (t[1], t[2]))
                .unwrap()
        };
        let region_of = |apt: Const| {
            d.db.relation(airport)
                .iter()
                .find(|(_, t)| t[0] == apt)
                .map(|(_, t)| t[1])
                .unwrap()
        };
        let rule = |e: &Example| {
            let (s1, _) = flight_of(e.args[0]);
            let (s2, d2) = flight_of(e.args[1]);
            s1 == s2 && region_of(d2) == central
        };
        for e in &d.pos {
            assert!(rule(e), "positive violates rule: {}", e.render(&d.db));
        }
        for e in &d.neg {
            assert!(!rule(e), "negative satisfies rule: {}", e.render(&d.db));
        }
    }

    #[test]
    fn manual_bias_parses() {
        let d = generate(
            &FltConfig {
                flights: 500,
                positives: 10,
                negatives: 30,
                ..FltConfig::default()
            },
            1,
        );
        assert!(d.manual_bias().is_ok());
    }
}
