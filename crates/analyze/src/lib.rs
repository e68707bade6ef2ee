//! # analyze — static verification of bias and Horn theories
//!
//! AutoBias induces its language bias automatically, so no human ever
//! eyeballs the predicate/mode definitions — and a malformed mode or a
//! type-graph inconsistency silently shrinks or poisons the hypothesis
//! space. This crate is the missing admission control: a compiler-lint-style
//! pass over induced bias ([`check_bias`]) and learned Horn theories
//! ([`check_definition`]), with stable rule ids (`AB0xx` bias-level,
//! `AB1xx` clause-level), fixed severities, source spans, and text + JSON
//! rendering ([`Report`]).
//!
//! The verifier runs at three boundaries:
//!
//! - **learn** — `autobias learn` verifies the definition it just learned
//!   (observational: findings go to stderr, output is unchanged), and
//!   `core::learn` carries `debug_assert`-level forms of the Error rules;
//! - **load** — `autobias check` lints a bias or model file and exits
//!   non-zero on Error findings;
//! - **serve** — `/models/{name}` uploads and registry loads reject models
//!   with Error findings (HTTP 422 with the JSON diagnostics payload).
//!
//! Severity policy: a rule is Error **only** when the learner guarantees the
//! property for everything it outputs (see DESIGN.md §11), so "learned on
//! this build" implies "verifies clean". The verifier always runs; there is
//! no switch to turn it off.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod bias_rules;
mod clause_rules;
pub mod diag;
mod source;

pub use bias_rules::check_bias;
pub use clause_rules::check_definition;
pub use diag::{Anchor, Diagnostic, Report, Rule, Severity};
pub use source::{check_bias_source, check_model_source};

use obs::metrics::Counter;

/// Verifier passes run (any boundary, any artifact kind).
pub static CHECKS_TOTAL: Counter = Counter::new(
    "autobias_analyze_checks_total",
    "Static verifier passes run.",
);

/// Findings produced across all passes and severities.
pub static FINDINGS_TOTAL: Counter = Counter::new(
    "autobias_analyze_findings_total",
    "Diagnostics produced by the static verifier, all severities.",
);

/// Registers this crate's counters with the [`obs::metrics`] registry.
/// Idempotent; every public entry point calls it.
pub fn register() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        obs::metrics::register(&CHECKS_TOTAL);
        obs::metrics::register(&FINDINGS_TOTAL);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use autobias::bias::auto::{induce_bias, AutoBiasConfig, ConstantThreshold};
    use autobias::bias::parse::parse_bias;
    use autobias::bias::{ArgMode, LanguageBias, ModeDef, PredDef};
    use autobias::clause_text::parse_definition;
    use relstore::{Database, RelId};

    fn uw_db() -> (Database, RelId) {
        let mut db = relstore::fixtures::uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        db.insert(target, &["juan", "sarita"]);
        db.insert(target, &["john", "mary"]);
        (db, target)
    }

    const UW_BIAS: &str = "
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

    #[test]
    fn table_3_bias_has_no_errors() {
        let (db, target) = uw_db();
        let bias = parse_bias(&db, target, UW_BIAS).unwrap();
        let report = check_bias(&db, &bias, None, None);
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn auto_bias_on_uw_fragment_is_error_free() {
        let (db, target) = uw_db();
        let cfg = AutoBiasConfig {
            constant_threshold: ConstantThreshold::Absolute(3),
            ..AutoBiasConfig::default()
        };
        let (bias, graph, _) = induce_bias(&db, target, &cfg).unwrap();
        let report = check_bias(&db, &bias, Some(&graph), Some(cfg.constant_threshold));
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn mode_without_plus_is_an_error() {
        let (db, target) = uw_db();
        let report = check_bias_source(
            &db,
            target,
            "pred advisedBy(T1, T3)\nmode student(#)",
            None,
            None,
        );
        assert!(
            report.fired(Rule::ModeWithoutPlus),
            "{}",
            report.render_text()
        );
        assert!(report.has_errors());
        let bad = report
            .findings
            .iter()
            .find(|d| d.rule == Rule::ModeWithoutPlus)
            .unwrap();
        assert_eq!(bad.line, Some(2));
    }

    #[test]
    fn duplicate_and_shadowed_modes_warn() {
        let (db, target) = uw_db();
        let in_phase = db.rel_id("inPhase").unwrap();
        let student = db.rel_id("student").unwrap();
        let bias = LanguageBias::new(
            &db,
            target,
            vec![PredDef {
                rel: target,
                types: vec![constraints::TypeId(0), constraints::TypeId(1)],
            }],
            vec![
                ModeDef {
                    rel: in_phase,
                    args: vec![ArgMode::Plus, ArgMode::Minus],
                },
                ModeDef {
                    rel: in_phase,
                    args: vec![ArgMode::Plus, ArgMode::Minus],
                },
                // (+, +) is shadowed by (+, -).
                ModeDef {
                    rel: in_phase,
                    args: vec![ArgMode::Plus, ArgMode::Plus],
                },
                ModeDef {
                    rel: student,
                    args: vec![ArgMode::Plus],
                },
            ],
        )
        .unwrap();
        let report = check_bias(&db, &bias, None, None);
        assert!(
            report.fired(Rule::DuplicateMode),
            "{}",
            report.render_text()
        );
        assert!(report.fired(Rule::ShadowedMode), "{}", report.render_text());
        assert!(!report.has_errors());
    }

    #[test]
    fn constant_threshold_violation_warns() {
        let (db, target) = uw_db();
        // publication[title] is key-like: every tuple distinct.
        let text = "pred advisedBy(T1, T3)\npred publication(T5, T1)\nmode publication(#, +)";
        let bias = parse_bias(&db, target, text).unwrap();
        let report = check_bias(&db, &bias, None, Some(ConstantThreshold::Relative(0.18)));
        assert!(
            report.fired(Rule::ConstantThresholdViolation),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn disconnected_and_unbound_are_flagged() {
        let (mut db, _) = uw_db();
        let def =
            parse_definition(&mut db, "advisedBy(x, y) ← student(x), hasPosition(v3, v4)").unwrap();
        let report = check_definition(&db, &def, None);
        assert!(
            report.fired(Rule::DisconnectedLiteral),
            "{}",
            report.render_text()
        );
        assert!(
            report.fired(Rule::UnboundHeadVar),
            "{}",
            report.render_text()
        );
        assert!(report.has_errors());
    }

    #[test]
    fn duplicate_clause_and_redundant_literal_warn() {
        let (mut db, _) = uw_db();
        let def = parse_definition(
            &mut db,
            "advisedBy(x, y) ← publication(z, x), publication(z, y), publication(z, x)\n\
             advisedBy(x, y) ← publication(v3, x), publication(v3, y), publication(v3, x)",
        )
        .unwrap();
        let report = check_definition(&db, &def, None);
        assert!(
            report.fired(Rule::RedundantLiteral),
            "{}",
            report.render_text()
        );
        assert!(
            report.fired(Rule::DuplicateClause),
            "{}",
            report.render_text()
        );
        assert!(!report.has_errors());
    }

    #[test]
    fn unknown_constant_warns_but_is_not_an_error() {
        let (db, _) = uw_db();
        let (report, parsed) = check_model_source(
            &db,
            "advisedBy(x, y) ← inPhase(x, nosuchphase), professor(y), publication(z, x), publication(z, y)",
            None,
        );
        assert!(parsed.is_some());
        assert!(
            report.fired(Rule::UnsatisfiableLiteral),
            "{}",
            report.render_text()
        );
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn mode_conformance_against_auto_bias() {
        let (mut db, target) = uw_db();
        let (bias, _, _) = induce_bias(&db, target, &AutoBiasConfig::default()).unwrap();
        // A well-moded clause is clean of mode errors.
        let good = parse_definition(
            &mut db,
            "advisedBy(x, y) ← publication(z, x), publication(z, y)",
        )
        .unwrap();
        let report = check_definition(&db, &good, Some(&bias));
        assert!(!report.has_errors(), "{}", report.render_text());
        // The target in the body has no modes → AB104.
        let bad = parse_definition(&mut db, "advisedBy(x, y) ← advisedBy(x, y)").unwrap();
        let report = check_definition(&db, &bad, Some(&bias));
        assert!(
            report.fired(Rule::NoModeForRelation),
            "{}",
            report.render_text()
        );
        assert!(report.has_errors());
    }

    #[test]
    fn parse_failures_carry_line_numbers() {
        let (db, target) = uw_db();
        let report = check_bias_source(
            &db,
            target,
            "pred advisedBy(T1, T3)\nfrobnicate",
            None,
            None,
        );
        assert!(report.fired(Rule::BiasParseError));
        assert_eq!(report.findings[0].line, Some(2));

        let (report, parsed) = check_model_source(&db, "advisedBy(x, y) ← nosuch(x)", None);
        assert!(parsed.is_none());
        assert!(report.fired(Rule::ModelParseError));
        assert_eq!(report.findings[0].line, Some(1));
        assert!(report.has_errors());
    }
}
