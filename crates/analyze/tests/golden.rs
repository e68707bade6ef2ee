//! Golden diagnostics tests: each corrupted fixture under `tests/fixtures/`
//! must fire its documented rule id with its documented severity, in both
//! the text and JSON renderings. The rule ids are a stable interface — CI
//! and serve clients match on them — so a change here is a breaking change.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use analyze::{check_bias_source, check_model_source, Rule, Severity};
use relstore::{Database, RelId};

fn uw_db() -> (Database, RelId) {
    let mut db = relstore::fixtures::uw_fragment();
    let target = db.add_relation("advisedBy", &["stud", "prof"]);
    db.insert(target, &["juan", "sarita"]);
    db.insert(target, &["john", "mary"]);
    (db, target)
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `(fixture file, rule that must fire, whether the report carries Errors)`.
const BIAS_GOLDEN: &[(&str, Rule, bool)] = &[
    ("bad_mode_no_plus.bias", Rule::ModeWithoutPlus, true),
    ("dead_relation.bias", Rule::DeadRelation, false),
    ("dup_mode.bias", Rule::DuplicateMode, false),
    ("parse_error.bias", Rule::BiasParseError, true),
    ("unreachable_rel.bias", Rule::UnreachableRelation, false),
];

const MODEL_GOLDEN: &[(&str, Rule, bool)] = &[
    ("disconnected.model", Rule::DisconnectedLiteral, true),
    ("unbound_head.model", Rule::UnboundHeadVar, false),
    ("duplicate_clause.model", Rule::DuplicateClause, false),
    ("unsat_constant.model", Rule::UnsatisfiableLiteral, false),
    ("parse_error.model", Rule::ModelParseError, true),
];

/// Shared assertions: the expected rule fired, the error verdict matches,
/// and both renderings carry the stable rule id.
fn assert_golden(name: &str, report: &analyze::Report, rule: Rule, errors: bool) {
    assert!(
        report.fired(rule),
        "{name}: expected {} to fire\n{}",
        rule.code(),
        report.render_text()
    );
    assert_eq!(
        report.has_errors(),
        errors,
        "{name}: error verdict\n{}",
        report.render_text()
    );
    if rule.severity() == Severity::Error {
        assert!(errors, "{name}: an Error-severity rule fired");
    }
    let text = report.render_text();
    assert!(
        text.contains(rule.code()),
        "{name}: text missing id\n{text}"
    );
    let json = report.to_json().to_string();
    assert!(
        json.contains(rule.code()),
        "{name}: json missing id\n{json}"
    );
    let parsed = obs::json::Json::parse(&json).expect("report JSON parses");
    let findings = parsed.get("findings").and_then(|f| f.as_arr());
    assert!(
        findings.is_some_and(|f| !f.is_empty()),
        "{name}: JSON findings array\n{json}"
    );
}

#[test]
fn bias_fixtures_fire_their_documented_rules() {
    let (db, target) = uw_db();
    for &(name, rule, errors) in BIAS_GOLDEN {
        let report = check_bias_source(&db, target, &fixture(name), None, None);
        assert_golden(name, &report, rule, errors);
    }
}

#[test]
fn model_fixtures_fire_their_documented_rules() {
    let (db, _) = uw_db();
    for &(name, rule, errors) in MODEL_GOLDEN {
        let (report, _) = check_model_source(&db, &fixture(name), None);
        assert_golden(name, &report, rule, errors);
    }
}

#[test]
fn error_fixtures_and_only_error_fixtures_would_fail_a_gate() {
    let (db, target) = uw_db();
    let failing: Vec<&str> = BIAS_GOLDEN
        .iter()
        .filter(|&&(name, _, _)| {
            check_bias_source(&db, target, &fixture(name), None, None).has_errors()
        })
        .map(|&(name, _, _)| name)
        .collect();
    assert_eq!(failing, vec!["bad_mode_no_plus.bias", "parse_error.bias"]);

    let failing: Vec<&str> = MODEL_GOLDEN
        .iter()
        .filter(|&&(name, _, _)| check_model_source(&db, &fixture(name), None).0.has_errors())
        .map(|&(name, _, _)| name)
        .collect();
    assert_eq!(failing, vec!["disconnected.model", "parse_error.model"]);
}
