//! Parser for expert-written language bias.
//!
//! The format mirrors the paper's Table 3, one definition per line:
//!
//! ```text
//! # predicate definitions assign types to attributes
//! pred student(T1)
//! pred publication(T5, T1)
//! pred advisedBy(T1, T3)
//!
//! # mode definitions constrain literal arguments
//! mode student(+)
//! mode inPhase(+, -)
//! mode inPhase(+, #)
//! ```
//!
//! Type names are arbitrary identifiers, interned in order of first
//! appearance. Lines starting with `#` and blank lines are ignored.

use super::{ArgMode, BiasError, LanguageBias, ModeDef, PredDef};
use constraints::TypeId;
use relstore::{Database, FxHashMap, RelId};
use std::fmt;

/// Errors raised while parsing a textual bias specification.
#[derive(Debug)]
pub enum BiasParseError {
    /// A line that is neither `pred …` nor `mode …`.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A `pred`/`mode` declaration naming an unknown relation.
    UnknownRelation {
        /// 1-based line number.
        line: usize,
        /// Relation name given.
        name: String,
    },
    /// A mode argument other than `+`, `-`, `#`.
    BadModeArg {
        /// 1-based line number.
        line: usize,
        /// The offending argument token.
        arg: String,
    },
    /// The assembled bias failed validation.
    Invalid(BiasError),
}

impl fmt::Display for BiasParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BiasParseError::BadLine { line, text } => {
                write!(f, "line {line}: cannot parse {text:?}")
            }
            BiasParseError::UnknownRelation { line, name } => {
                write!(f, "line {line}: unknown relation {name:?}")
            }
            BiasParseError::BadModeArg { line, arg } => {
                write!(
                    f,
                    "line {line}: bad mode argument {arg:?} (expected +, -, or #)"
                )
            }
            BiasParseError::Invalid(e) => write!(f, "invalid bias: {e}"),
        }
    }
}

impl std::error::Error for BiasParseError {}

impl From<BiasError> for BiasParseError {
    fn from(e: BiasError) -> Self {
        BiasParseError::Invalid(e)
    }
}

/// Parses `relname(a, b, c)` into the name and raw argument tokens.
fn parse_call(s: &str) -> Option<(&str, Vec<&str>)> {
    let open = s.find('(')?;
    let close = s.rfind(')')?;
    if close < open {
        return None;
    }
    let name = s[..open].trim();
    if name.is_empty() {
        return None;
    }
    let inner = &s[open + 1..close];
    let args: Vec<&str> = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner.split(',').map(str::trim).collect()
    };
    Some((name, args))
}

/// Parses a textual bias for `target` over `db`.
pub fn parse_bias(
    db: &Database,
    target: RelId,
    text: &str,
) -> Result<LanguageBias, BiasParseError> {
    let mut type_ids: FxHashMap<String, TypeId> = FxHashMap::default();
    let mut next_type = 0u32;
    let mut preds = Vec::new();
    let mut modes = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (keyword, rest) = match line.split_once(char::is_whitespace) {
            Some(pair) => pair,
            None => {
                return Err(BiasParseError::BadLine {
                    line: line_no,
                    text: line.to_string(),
                })
            }
        };
        let (name, args) = parse_call(rest.trim()).ok_or_else(|| BiasParseError::BadLine {
            line: line_no,
            text: line.to_string(),
        })?;
        let rel = db
            .rel_id(name)
            .ok_or_else(|| BiasParseError::UnknownRelation {
                line: line_no,
                name: name.to_string(),
            })?;
        match keyword {
            "pred" => {
                let types: Vec<TypeId> = args
                    .iter()
                    .map(|t| {
                        *type_ids.entry(t.to_string()).or_insert_with(|| {
                            let id = TypeId(next_type);
                            next_type += 1;
                            id
                        })
                    })
                    .collect();
                preds.push(PredDef { rel, types });
            }
            "mode" => {
                let parsed: Result<Vec<ArgMode>, BiasParseError> = args
                    .iter()
                    .map(|a| match *a {
                        "+" => Ok(ArgMode::Plus),
                        "-" => Ok(ArgMode::Minus),
                        "#" => Ok(ArgMode::Hash),
                        other => Err(BiasParseError::BadModeArg {
                            line: line_no,
                            arg: other.to_string(),
                        }),
                    })
                    .collect();
                modes.push(ModeDef { rel, args: parsed? });
            }
            _ => {
                return Err(BiasParseError::BadLine {
                    line: line_no,
                    text: line.to_string(),
                })
            }
        }
    }

    Ok(LanguageBias::new(db, target, preds, modes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::fixtures::uw_fragment;
    use relstore::AttrRef;

    fn db_with_target() -> (Database, RelId) {
        let mut db = uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        db.insert(target, &["juan", "sarita"]);
        (db, target)
    }

    const UW_BIAS: &str = "
# Table 3 of the paper
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
    fn parses_table_3() {
        let (db, target) = db_with_target();
        let bias = parse_bias(&db, target, UW_BIAS).unwrap();
        assert_eq!(bias.preds.len(), 7);
        assert_eq!(bias.modes.len(), 6);
        let student = db.rel_id("student").unwrap();
        let publ = db.rel_id("publication").unwrap();
        let prof = db.rel_id("professor").unwrap();
        // publication[person] joins both student and professor.
        assert!(bias.share_type(AttrRef::new(publ, 1), AttrRef::new(student, 0)));
        assert!(bias.share_type(AttrRef::new(publ, 1), AttrRef::new(prof, 0)));
        // students and professors don't join.
        assert!(!bias.share_type(AttrRef::new(student, 0), AttrRef::new(prof, 0)));
        // inPhase[phase] is constant-able via `mode inPhase(+, #)`.
        let phase = db.rel_id("inPhase").unwrap();
        assert!(bias.can_be_const(AttrRef::new(phase, 1)));
    }

    #[test]
    fn roundtrips_through_render() {
        let (db, target) = db_with_target();
        let bias = parse_bias(&db, target, UW_BIAS).unwrap();
        let rendered = bias.render(&db);
        let again = parse_bias(&db, target, &rendered).unwrap();
        assert_eq!(again.preds.len(), bias.preds.len());
        assert_eq!(again.modes.len(), bias.modes.len());
    }

    #[test]
    fn unknown_relation_is_reported() {
        let (db, target) = db_with_target();
        let err = parse_bias(&db, target, "pred nosuch(T1)").unwrap_err();
        assert!(matches!(
            err,
            BiasParseError::UnknownRelation { line: 1, .. }
        ));
    }

    #[test]
    fn bad_mode_arg_is_reported() {
        let (db, target) = db_with_target();
        let err = parse_bias(&db, target, "pred advisedBy(T1, T3)\nmode student(*)").unwrap_err();
        assert!(matches!(err, BiasParseError::BadModeArg { line: 2, .. }));
    }

    #[test]
    fn junk_line_is_reported() {
        let (db, target) = db_with_target();
        let err = parse_bias(&db, target, "frobnicate student(+)").unwrap_err();
        assert!(matches!(err, BiasParseError::BadLine { line: 1, .. }));
    }

    /// Random bias texts: each line is either tokens drawn from the whole
    /// syntax, or a declaration built slot by slot, each slot a
    /// well-formed piece or a broken one, so most lines get deep into the
    /// parser (and validation) before they fail.
    #[test]
    fn parser_never_panics_on_arbitrary_strings() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let slots: [&[&str]; 4] = [
            &["pred ", "mode ", "pred", "mode\t", "# ", "", "frob "],
            &[
                "student(",
                "professor(",
                "inPhase(",
                "publication(",
                "advisedBy(",
                "nosuch(",
                "(",
                "student",
                ")",
            ],
            &[
                "T1", "T1, T3", "T5, T1", "+", "+, -", "+, #", "-, +", "*", "", ",", " , ", "é",
                "😀", "(", ")(",
            ],
            &[")", "", "))", ")x", " )", "(", ")\t"],
        ];
        let tokens: Vec<&str> = slots.iter().flat_map(|s| s.iter().copied()).collect();
        let (db, target) = db_with_target();
        let mut rng = StdRng::seed_from_u64(0x5eed_b1a5);
        for case in 0..20_000 {
            let mut text = if case % 2 == 0 {
                UW_BIAS.to_string()
            } else {
                String::new()
            };
            for _ in 0..rng.random_range(1..=4) {
                if rng.random_range(0..4) == 0 {
                    for _ in 0..rng.random_range(0..=12) {
                        text.push_str(tokens.choose(&mut rng).unwrap());
                    }
                } else {
                    for slot in &slots {
                        text.push_str(slot.choose(&mut rng).unwrap());
                    }
                }
                text.push('\n');
            }
            let _ = parse_bias(&db, target, &text);
        }
    }

    #[test]
    fn missing_target_pred_fails_validation() {
        let (db, target) = db_with_target();
        let err = parse_bias(&db, target, "pred student(T1)").unwrap_err();
        assert!(matches!(
            err,
            BiasParseError::Invalid(BiasError::MissingTargetPred)
        ));
    }
}
