//! The diagnostics engine: stable rule ids, severities, findings with
//! optional source spans, and text/JSON rendering — modeled on compiler
//! lints so the rule catalog can grow without breaking consumers.
//!
//! Rule ids are stable API: `AB0xx` rules check the language bias, `AB1xx`
//! rules check Horn theories, and `AB2xx` rules check compiled evaluation
//! plans against their source clauses (fired by `plan::verify`, reported
//! through the same machinery). A rule's severity is fixed (not configurable):
//! **Error** is reserved for properties the learner itself guarantees, so a
//! clean learning run always produces zero Error findings and an Error on a
//! loaded artifact means it was hand-edited, corrupted, or produced by a
//! buggy build. **Warn** marks constructs that are legal but shrink or
//! pollute the hypothesis space; **Info** is informational only.

use obs::json::Json;
use std::fmt;

/// Severity of a finding. Order matters: `Error > Warn > Info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; never affects exit codes or admission.
    Info,
    /// Suspicious but legal; reported, never rejected.
    Warn,
    /// Violates an invariant every well-formed artifact satisfies;
    /// `autobias check` exits non-zero and serve-side admission rejects.
    Error,
}

impl Severity {
    /// Lowercase label used in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

macro_rules! rules {
    ($($variant:ident => ($code:literal, $name:literal, $severity:ident, $summary:literal),)*) => {
        /// The rule catalog. Codes are stable; see DESIGN.md §11 for the
        /// full table with the boundary each rule guards.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Rule {
            $(#[doc = $summary] $variant,)*
        }

        impl Rule {
            /// Stable code, e.g. `AB102`.
            pub fn code(self) -> &'static str {
                match self { $(Rule::$variant => $code,)* }
            }

            /// Kebab-case rule name, e.g. `disconnected-literal`.
            pub fn name(self) -> &'static str {
                match self { $(Rule::$variant => $name,)* }
            }

            /// The rule's fixed severity.
            pub fn severity(self) -> Severity {
                match self { $(Rule::$variant => Severity::$severity,)* }
            }

            /// One-line description of what the rule checks.
            pub fn summary(self) -> &'static str {
                match self { $(Rule::$variant => $summary,)* }
            }

            /// Every rule in the catalog, in code order.
            pub fn all() -> &'static [Rule] {
                &[$(Rule::$variant,)*]
            }
        }
    };
}

rules! {
    TargetUntyped => ("AB001", "target-untyped", Error,
        "no predicate definition types the target relation"),
    ModeOnTarget => ("AB002", "mode-on-target", Error,
        "a body mode is declared on the target relation"),
    ModeWithoutPlus => ("AB003", "mode-without-plus", Error,
        "a mode has no `+` argument (would admit Cartesian products)"),
    ArityMismatch => ("AB004", "arity-mismatch", Error,
        "a predicate or mode definition's length differs from the relation arity"),
    DuplicateMode => ("AB005", "duplicate-mode", Warn,
        "two identical mode signatures are declared for one relation"),
    ShadowedMode => ("AB006", "shadowed-mode", Warn,
        "a mode is made redundant by a strictly more general mode"),
    UntypedAttribute => ("AB007", "untyped-attribute", Warn,
        "an attribute of a mode-bearing relation has no type (can never join)"),
    UnreachableRelation => ("AB008", "unreachable-relation", Warn,
        "a mode-bearing relation shares no type chain with the target"),
    DanglingType => ("AB009", "dangling-type", Info,
        "a type is assigned to exactly one attribute (can never join)"),
    BiasParseError => ("AB010", "bias-parse-error", Error,
        "the bias text failed to parse"),
    IndCycleNotEquivalent => ("AB011", "ind-cycle-not-equivalent", Warn,
        "attributes on an IND cycle are not typed as equivalent in the bias"),
    ConstantThresholdViolation => ("AB012", "constant-threshold-violation", Warn,
        "a `#` position's attribute exceeds the constant threshold"),
    DeadRelation => ("AB013", "dead-relation", Warn,
        "a typed relation is referenced by no mode (dead weight in the bias)"),
    ModelParseError => ("AB101", "model-parse-error", Error,
        "the model text failed to parse"),
    DisconnectedLiteral => ("AB102", "disconnected-literal", Error,
        "a body literal is not connected to the head through shared variables"),
    UnboundHeadVar => ("AB103", "unbound-head-var", Warn,
        "a head variable never occurs in the body (clause is not range-restricted)"),
    NoModeForRelation => ("AB104", "no-mode-for-relation", Error,
        "a body literal uses a relation with no mode definition"),
    ConstantPosition => ("AB105", "constant-position", Error,
        "a constant occurs at a position no mode marks `#`"),
    IllModedLiteral => ("AB106", "ill-moded-literal", Warn,
        "no mode definition matches the literal's argument shape"),
    TypeInconsistentJoin => ("AB107", "type-inconsistent-join", Warn,
        "a shared variable joins attributes that share no type"),
    RedundantLiteral => ("AB108", "redundant-literal", Warn,
        "a body literal is repeated verbatim in the same clause"),
    DuplicateClause => ("AB109", "duplicate-clause", Warn,
        "two clauses of the definition are equal up to variable renaming"),
    UnsatisfiableLiteral => ("AB110", "unsatisfiable-literal", Warn,
        "a body literal can never be satisfied against the database"),
    PlanUnboundProbeKey => ("AB201", "plan-unbound-probe-key", Error,
        "a compiled step probes an index keyed on a slot no earlier op binds"),
    PlanUnboundSlotRead => ("AB202", "plan-unbound-slot-read", Error,
        "a residual check reads a slot no earlier op binds"),
    PlanReboundSlot => ("AB203", "plan-rebound-slot", Error,
        "a bind writes a slot that is already bound (aliases two variables)"),
    PlanDroppedConstraint => ("AB204", "plan-dropped-constraint", Error,
        "a source argument constraint is enforced by no op (dropped join predicate)"),
    PlanDuplicateConstraint => ("AB205", "plan-duplicate-constraint", Error,
        "an argument position is enforced by more than one op"),
    PlanBodyMismatch => ("AB206", "plan-body-mismatch", Error,
        "a variant's steps are not a permutation of the clause body"),
    PlanBarrierMismatch => ("AB207", "plan-barrier-mismatch", Error,
        "step barriers do not partition the body's connected components exactly"),
    PlanVariantDivergence => ("AB208", "plan-variant-divergence", Error,
        "compiled variants disagree on the body they evaluate"),
    PlanHeadMismatch => ("AB209", "plan-head-mismatch", Error,
        "head ops do not reproduce the head literal's binding pattern"),
    PlanIndexOverflow => ("AB210", "plan-index-overflow", Error,
        "an op addresses a slot or position outside the plan's buffers"),
    PlanBackjumpMismatch => ("AB211", "plan-backjump-mismatch", Error,
        "a step's backjump set is not exactly the earlier steps binding the slots it reads"),
}

/// What a finding points at, used by the source-level entry points to
/// attach line numbers after the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// The artifact as a whole.
    Whole,
    /// The `i`-th mode definition of the bias.
    Mode(usize),
    /// The `i`-th predicate definition of the bias.
    Pred(usize),
    /// The `i`-th clause of the definition.
    Clause(usize),
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Human explanation, specific to this site.
    pub message: String,
    /// Rendered source location, e.g. `mode inPhase(+, #)` or
    /// `clause 2, literal 3: publication(z, x)`.
    pub location: String,
    /// 1-based source line, when the artifact came from text.
    pub line: Option<usize>,
    /// Structural anchor (for line attachment by source-level checks).
    pub anchor: Anchor,
}

impl Diagnostic {
    /// Severity shorthand.
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity().as_str(),
            self.rule.code(),
            self.message
        )?;
        if !self.location.is_empty() {
            write!(f, "\n  --> {}", self.location)?;
            if let Some(line) = self.line {
                write!(f, " (line {line})")?;
            }
        }
        Ok(())
    }
}

/// The outcome of one verifier pass: every finding, ordered
/// most-severe-first (stable within a severity).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings.
    pub findings: Vec<Diagnostic>,
}

impl Report {
    /// Adds one finding. Public so out-of-crate passes that reuse this
    /// reporting machinery (notably `plan::verify`'s AB2xx rules) can file
    /// findings through the same counter-bumping path.
    pub fn push(&mut self, rule: Rule, anchor: Anchor, location: String, message: String) {
        self.findings.push(Diagnostic {
            rule,
            message,
            location,
            line: None,
            anchor,
        });
        crate::FINDINGS_TOTAL.bump();
    }

    /// Sorts findings most-severe-first, preserving order within a severity.
    pub fn finish(mut self) -> Self {
        self.findings
            .sort_by_key(|d| std::cmp::Reverse(d.severity()));
        self
    }

    /// Absorbs every finding of `other`, restoring most-severe-first order.
    /// Used where two passes contribute to one verdict (e.g. source lints
    /// plus plan verification in `autobias check --model`).
    pub fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.findings
            .sort_by_key(|d| std::cmp::Reverse(d.severity()));
    }

    /// Findings with `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|d| d.severity() == severity)
            .count()
    }

    /// Whether any Error-level rule fired.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether no rule fired at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Whether a specific rule fired.
    pub fn fired(&self, rule: Rule) -> bool {
        self.findings.iter().any(|d| d.rule == rule)
    }

    /// One-line summary, e.g. `2 errors (AB102, AB104), 1 warning`.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "no findings".to_string();
        }
        let mut parts = Vec::new();
        for (severity, noun) in [
            (Severity::Error, "error"),
            (Severity::Warn, "warning"),
            (Severity::Info, "info"),
        ] {
            let n = self.count(severity);
            if n == 0 {
                continue;
            }
            let mut codes: Vec<&str> = self
                .findings
                .iter()
                .filter(|d| d.severity() == severity)
                .map(|d| d.rule.code())
                .collect();
            codes.dedup();
            let plural = if n == 1 || noun == "info" { "" } else { "s" };
            parts.push(format!("{n} {noun}{plural} ({})", codes.join(", ")));
        }
        parts.join(", ")
    }

    /// Human-readable rendering, one block per finding plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&format!("{d}\n"));
        }
        out.push_str(&format!("{}\n", self.summary()));
        out
    }

    /// JSON rendering:
    ///
    /// ```json
    /// {"findings":[{"rule":"AB102","name":"disconnected-literal",
    ///   "severity":"error","message":"...","location":"...",
    ///   "line":3}],"errors":1,"warnings":0,"infos":0}
    /// ```
    pub fn to_json(&self) -> Json {
        let findings = self
            .findings
            .iter()
            .map(|d| {
                let mut m = vec![
                    ("rule", d.rule.code().into()),
                    ("name", d.rule.name().into()),
                    ("severity", d.severity().as_str().into()),
                    ("message", d.message.as_str().into()),
                    ("location", d.location.as_str().into()),
                ];
                if let Some(line) = d.line {
                    m.push(("line", line.into()));
                }
                Json::obj(m)
            })
            .collect();
        Json::obj([
            ("findings", Json::Arr(findings)),
            ("errors", self.count(Severity::Error).into()),
            ("warnings", self.count(Severity::Warn).into()),
            ("infos", self.count(Severity::Info).into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable_shape() {
        let mut seen = std::collections::HashSet::new();
        for &rule in Rule::all() {
            let code = rule.code();
            assert!(seen.insert(code), "duplicate rule code {code}");
            assert!(code.starts_with("AB") && code.len() == 5, "bad code {code}");
            assert!(!rule.name().is_empty() && !rule.summary().is_empty());
        }
    }

    #[test]
    fn report_orders_sorts_and_counts() {
        let mut r = Report::default();
        r.push(Rule::DanglingType, Anchor::Whole, "t".into(), "info".into());
        r.push(
            Rule::DisconnectedLiteral,
            Anchor::Clause(0),
            "clause 1".into(),
            "boom".into(),
        );
        r.push(
            Rule::UnboundHeadVar,
            Anchor::Clause(0),
            String::new(),
            "w".into(),
        );
        let r = r.finish();
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warn), 1);
        assert_eq!(r.count(Severity::Info), 1);
        assert_eq!(r.findings[0].rule, Rule::DisconnectedLiteral);
        assert!(r.fired(Rule::UnboundHeadVar));
        assert!(r.summary().contains("AB102"));
        let text = r.render_text();
        assert!(text.contains("error[AB102]: boom"));
        assert!(text.contains("--> clause 1"));
    }

    #[test]
    fn json_is_well_formed() {
        let mut r = Report::default();
        r.push(
            Rule::ModelParseError,
            Anchor::Whole,
            "line \"3\"".into(),
            "bad\ntext".into(),
        );
        r.findings[0].line = Some(3);
        let json = r.finish().to_json().to_string();
        let parsed = Json::parse(&json).expect("report JSON must parse");
        let findings = parsed.get("findings").and_then(|f| f.as_arr()).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("rule").and_then(|v| v.as_str()),
            Some("AB101")
        );
        assert_eq!(findings[0].get("line").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(parsed.get("errors").and_then(|v| v.as_f64()), Some(1.0));
    }
}
