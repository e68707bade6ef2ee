//! Integration tests pinning the properties the paper states explicitly:
//! Example 2.5's bottom clause, Figure 1's type-graph shape, Table 3's
//! induced definitions, and the §3.2 mode-generation rules.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias_repro::autobias::learn::{
    definition_covers_neg_in, definition_covers_pos_in, prepare_definition,
};
use autobias_repro::autobias::prelude::*;
use autobias_repro::constraints::{build_type_graph, discover_inds, IndConfig};
use autobias_repro::relstore::fixtures::uw_fragment;
use autobias_repro::relstore::{AttrRef, Database};
use rand::rngs::StdRng;
use rand::SeedableRng;

const UW_TABLE3_BIAS: &str = "
pred student(T1)
pred inPhase(T1, T2)
pred professor(T3)
pred hasPosition(T3, T4)
pred publication(T5, T1)
pred publication(T5, T3)
pred advisedBy(T1, T3)
mode student(+)
mode inPhase(+, -)
mode inPhase(+, #)
mode professor(+)
mode hasPosition(+, -)
mode publication(-, +)
";

fn uw_with_target() -> (Database, autobias_repro::relstore::RelId) {
    let mut db = uw_fragment();
    let target = db.add_relation("advisedBy", &["stud", "prof"]);
    db.insert(target, &["juan", "sarita"]);
    db.insert(target, &["john", "mary"]);
    (db, target)
}

/// Example 2.5: the bottom clause for advisedBy(juan, sarita) at d = 1 under
/// the Table 3 bias has exactly the paper's seven literals.
#[test]
fn example_2_5_exact_reproduction() {
    let (db, target) = uw_with_target();
    let bias = parse_bias(&db, target, UW_TABLE3_BIAS).unwrap();
    let juan = db.lookup("juan").unwrap();
    let sarita = db.lookup("sarita").unwrap();
    let example = Example::new(target, vec![juan, sarita]);
    let mut rng = StdRng::seed_from_u64(0);
    let bc = build_bottom_clause(
        &db,
        &bias,
        &example,
        &BcConfig {
            depth: 1,
            strategy: SamplingStrategy::Full,
            max_body_literals: 100_000,
            max_tuples: 1000,
        },
        &mut rng,
    );
    let rendered: Vec<String> = bc.clause.body.iter().map(|l| l.render(&db)).collect();
    assert_eq!(bc.clause.len(), 7, "literals: {rendered:?}");
    // The seven literals, structurally:
    assert!(rendered.contains(&"student(x)".to_string()));
    assert!(rendered.contains(&"professor(y)".to_string()));
    // inPhase twice: variable form and constant form (modes (+,-) and (+,#)).
    let in_phase: Vec<_> = rendered
        .iter()
        .filter(|l| l.starts_with("inPhase("))
        .collect();
    assert_eq!(in_phase.len(), 2);
    assert!(in_phase.iter().any(|l| l.contains("post_quals")));
    // hasPosition with a fresh variable.
    assert_eq!(
        rendered
            .iter()
            .filter(|l| l.starts_with("hasPosition("))
            .count(),
        1
    );
    // publication(z, x) and publication(z, y) sharing the title variable.
    let pubs: Vec<_> = rendered
        .iter()
        .filter(|l| l.starts_with("publication("))
        .collect();
    assert_eq!(pubs.len(), 2);
}

/// The bottom clause must cover its own example (it is the most specific
/// covering clause).
#[test]
fn bottom_clause_covers_own_example() {
    let (db, target) = uw_with_target();
    let bias = parse_bias(&db, target, UW_TABLE3_BIAS).unwrap();
    let juan = db.lookup("juan").unwrap();
    let sarita = db.lookup("sarita").unwrap();
    let example = Example::new(target, vec![juan, sarita]);
    let mut rng = StdRng::seed_from_u64(0);
    let bc = build_bottom_clause(&db, &bias, &example, &BcConfig::default(), &mut rng);
    assert!(theta_subsumes(
        &bc.clause,
        &bc.ground,
        &SubsumeConfig::default()
    ));
}

/// §3.2: the generated mode definitions for the UW fragment follow the
/// paper's rules — one `+` per mode, `-` elsewhere, `#` only below the
/// constant-threshold.
#[test]
fn mode_generation_rules() {
    let (db, target) = uw_with_target();
    let (bias, _, _) = induce_bias(
        &db,
        target,
        &AutoBiasConfig {
            constant_threshold: ConstantThreshold::Absolute(3),
            ..AutoBiasConfig::default()
        },
    )
    .unwrap();
    for mode in &bias.modes {
        let plus = mode
            .args
            .iter()
            .filter(|a| matches!(a, ArgMode::Plus))
            .count();
        assert_eq!(
            plus, 1,
            "every mode has exactly one + (no Cartesian products)"
        );
    }
    // inPhase[phase] has 1 distinct value (< 3): must be constant-able.
    let in_phase = db.rel_id("inPhase").unwrap();
    assert!(bias.can_be_const(AttrRef::new(in_phase, 1)));
    // student[stud] has 2 distinct values (< 3): also constant-able.
    // publication[title] has 2 (< 3). The threshold drives everything.
    let publ = db.rel_id("publication").unwrap();
    assert!(bias.can_be_const(AttrRef::new(publ, 0)));
}

/// Figure 1 (on data with the paper's IND structure): publication[person]
/// joins both student and professor; the two entity types stay distinct.
#[test]
fn figure1_type_graph_shape() {
    let mut db = Database::new();
    let student = db.add_relation("student", &["stud"]);
    let professor = db.add_relation("professor", &["prof"]);
    let publ = db.add_relation("publication", &["title", "person"]);
    for i in 0..10 {
        db.insert(student, &[&format!("s{i}")]);
        db.insert(professor, &[&format!("f{i}")]);
    }
    for i in 0..4 {
        db.insert(publ, &[&format!("p{i}"), &format!("s{i}")]);
        db.insert(publ, &[&format!("p{i}"), &format!("f{i}")]);
    }
    let inds = discover_inds(&db, &IndConfig::default());
    let graph = build_type_graph(&db, &inds);
    let person = AttrRef::new(publ, 1);
    let stud = AttrRef::new(student, 0);
    let prof = AttrRef::new(professor, 0);
    assert!(graph.share_type(person, stud));
    assert!(graph.share_type(person, prof));
    assert!(!graph.share_type(stud, prof));
    // Titles are their own domain.
    assert!(!graph.share_type(AttrRef::new(publ, 0), person));
}

/// End-to-end on the paper's running example: learning advisedBy with the
/// Table 3 bias recovers the co-authorship clause.
#[test]
fn uw_fragment_learns_coauthorship() {
    let (db, target) = uw_with_target();
    let bias = parse_bias(&db, target, UW_TABLE3_BIAS).unwrap();
    let juan = db.lookup("juan").unwrap();
    let sarita = db.lookup("sarita").unwrap();
    let john = db.lookup("john").unwrap();
    let mary = db.lookup("mary").unwrap();
    let train = TrainingSet::new(
        vec![
            Example::new(target, vec![juan, sarita]),
            Example::new(target, vec![john, mary]),
        ],
        vec![
            Example::new(target, vec![juan, mary]),
            Example::new(target, vec![john, sarita]),
        ],
    );
    let cfg = LearnerConfig {
        bc: BcConfig {
            depth: 2,
            strategy: SamplingStrategy::Full,
            max_body_literals: 100_000,
            max_tuples: 1000,
        },
        ..LearnerConfig::default()
    };
    let (def, _) = Learner::new(cfg).learn(&db, &bias, &train);
    assert!(!def.is_empty());
    // Every positive and no negative is covered, tested against the
    // learner's own ground bottom clauses.
    let engine = CoverageEngine::for_learner(&db, &bias, &train, &cfg);
    let prepared = prepare_definition(&def);
    let mut ws = Workspace::default();
    assert!((0..train.pos.len()).all(|i| definition_covers_pos_in(&mut ws, &prepared, &engine, i)));
    assert!(!(0..train.neg.len()).any(|i| definition_covers_neg_in(&mut ws, &prepared, &engine, i)));
}

/// FNV-1a over a string's bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The rendered bottom clause of positive 0 on generated UW and HIV (data
/// seed 7, AutoBias bias) is pinned byte for byte, under the Table 5 learner
/// settings (`autobias_bench::harness::learner_config`: depth 2, naive
/// sampling of 20 tuples per mode, 3,000 tuples, 2,000 body literals) and
/// under `evaluate_definition`'s unsampled settings. Variable numbering and
/// literal order both enter the hash.
#[test]
fn bottom_clause_render_is_pinned() {
    let learner_bc = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Naive { per_selection: 20 },
        max_body_literals: 2_000,
        max_tuples: 3_000,
    };
    let eval_bc = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Full,
        max_body_literals: 100_000,
        max_tuples: 100_000,
    };
    let auto = AutoBiasConfig {
        constant_threshold: ConstantThreshold::Absolute(50),
        ..AutoBiasConfig::default()
    };
    let uw = autobias_repro::datasets::uw::generate(&Default::default(), 7);
    let hiv = autobias_repro::datasets::hiv::generate(&Default::default(), 7);
    let mut got = Vec::new();
    for ds in [&uw, &hiv] {
        let (bias, _, _) = induce_bias(&ds.db, ds.target, &auto).unwrap();
        for cfg in [&learner_bc, &eval_bc] {
            let mut rng = StdRng::seed_from_u64(7);
            let bc = build_bottom_clause(&ds.db, &bias, &ds.pos[0], cfg, &mut rng);
            got.push(format!("{:016x}", fnv1a(&bc.clause.render(&ds.db))));
        }
    }
    assert_eq!(
        got,
        [
            "305ace1987fc8bfc", // UW, learner settings
            "60c06f8eeadef6b9", // UW, evaluation settings
            "7cb3abe99ec92491", // HIV, learner settings
            "a568c7060ca55d9a", // HIV, evaluation settings (34,029 literals)
        ]
    );
}
