//! Interop with Aleph/Progol mode-declaration syntax — the format every
//! existing ILP bias is written in, and the one the paper's Aleph baseline
//! consumes:
//!
//! ```text
//! :- modeh(1, advisedBy(+student, +professor)).
//! :- modeb(*, publication(-title, +student)).
//! :- modeb(*, publication(-title, +professor)).
//! :- modeb(*, inPhase(+student, #phase)).
//! ```
//!
//! Aleph folds our two bias components into one declaration: the *type name*
//! after `+`/`-`/`#` plays the predicate-definition role and the symbol
//! plays the mode role. Import therefore produces both [`PredDef`]s and
//! [`ModeDef`]s; export merges them back (one `modeb` per mode, typed by a
//! per-attribute representative type).

use super::{ArgMode, BiasError, LanguageBias, ModeDef, PredDef};
use constraints::TypeId;
use relstore::{Database, FxHashMap, RelId};
use std::fmt;

/// Errors raised while parsing Aleph declarations.
#[derive(Debug)]
pub enum AlephParseError {
    /// Structurally malformed declaration.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// Unknown relation in a declaration.
    UnknownRelation {
        /// 1-based line number.
        line: usize,
        /// The relation name.
        name: String,
    },
    /// Arity mismatch with the schema.
    Arity {
        /// 1-based line number.
        line: usize,
        /// Relation name.
        name: String,
        /// Arguments given.
        given: usize,
        /// Arity expected.
        expected: usize,
    },
    /// The assembled bias failed validation.
    Invalid(BiasError),
}

impl fmt::Display for AlephParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlephParseError::Malformed { line, message } => write!(f, "line {line}: {message}"),
            AlephParseError::UnknownRelation { line, name } => {
                write!(f, "line {line}: unknown relation {name:?}")
            }
            AlephParseError::Arity {
                line,
                name,
                given,
                expected,
            } => {
                write!(f, "line {line}: {name} takes {expected} args, got {given}")
            }
            AlephParseError::Invalid(e) => write!(f, "invalid bias: {e}"),
        }
    }
}

impl std::error::Error for AlephParseError {}

impl From<BiasError> for AlephParseError {
    fn from(e: BiasError) -> Self {
        AlephParseError::Invalid(e)
    }
}

/// Parses Aleph `modeh`/`modeb` declarations into a [`LanguageBias`].
///
/// Recognized lines (others — including `determination/2`, `set/2`, and
/// comments starting with `%` — are ignored, as Aleph files typically mix
/// settings with modes):
///
/// ```text
/// :- modeh(RECALL, target(+t1, +t2)).
/// :- modeb(RECALL, rel(+t, -t, #t)).
/// ```
///
/// The recall bound (`1`, `*`, …) is accepted and discarded — this learner
/// does not bound per-literal recall.
pub fn parse_aleph_bias(
    db: &Database,
    target: RelId,
    text: &str,
) -> Result<LanguageBias, AlephParseError> {
    let mut type_ids: FxHashMap<String, TypeId> = FxHashMap::default();
    let mut next_type = 0u32;
    let mut intern = |name: &str, type_ids: &mut FxHashMap<String, TypeId>| -> TypeId {
        *type_ids.entry(name.to_string()).or_insert_with(|| {
            let t = TypeId(next_type);
            next_type += 1;
            t
        })
    };

    let mut preds: Vec<PredDef> = Vec::new();
    let mut modes: Vec<ModeDef> = Vec::new();
    let mut seen_preds: FxHashMap<(RelId, Vec<TypeId>), ()> = FxHashMap::default();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let Some(rest) = line
            .strip_prefix(":-")
            .map(str::trim)
            .filter(|r| r.starts_with("modeh(") || r.starts_with("modeb("))
        else {
            continue; // settings, determinations, comments
        };
        let is_head = rest.starts_with("modeh(");
        // Strip exactly one trailing `.` and the declaration's one closing
        // paren (the atom's own parens must survive).
        let mut inner = rest["modeh(".len()..].trim_end();
        inner = inner.strip_suffix('.').unwrap_or(inner).trim_end();
        let inner = inner
            .strip_suffix(')')
            .ok_or_else(|| AlephParseError::Malformed {
                line: line_no,
                message: format!("missing closing `)` in {line:?}"),
            })?;
        // inner = "RECALL, rel(args)"
        let (_recall, atom) = inner
            .split_once(',')
            .ok_or_else(|| AlephParseError::Malformed {
                line: line_no,
                message: format!("expected `modeX(recall, atom)` in {line:?}"),
            })?;
        let atom = atom.trim();
        let open = atom.find('(').ok_or_else(|| AlephParseError::Malformed {
            line: line_no,
            message: format!("expected an atom in {atom:?}"),
        })?;
        let close = atom
            .rfind(')')
            .filter(|&close| close > open)
            .ok_or_else(|| AlephParseError::Malformed {
                line: line_no,
                message: format!("missing `)` in {atom:?}"),
            })?;
        let name = atom[..open].trim();
        let rel = db
            .rel_id(name)
            .ok_or_else(|| AlephParseError::UnknownRelation {
                line: line_no,
                name: name.to_string(),
            })?;
        let args: Vec<&str> = atom[open + 1..close].split(',').map(str::trim).collect();
        let expected = db.catalog().schema(rel).arity();
        if args.len() != expected {
            return Err(AlephParseError::Arity {
                line: line_no,
                name: name.to_string(),
                given: args.len(),
                expected,
            });
        }

        let mut arg_modes = Vec::with_capacity(args.len());
        let mut arg_types = Vec::with_capacity(args.len());
        for a in &args {
            let mut chars = a.chars();
            let mode = match chars.next() {
                Some('+') => ArgMode::Plus,
                Some('-') => ArgMode::Minus,
                Some('#') => ArgMode::Hash,
                other => {
                    let other = other.map(String::from).unwrap_or_default();
                    return Err(AlephParseError::Malformed {
                        line: line_no,
                        message: format!("argument {a:?}: unknown symbol {other:?}"),
                    });
                }
            };
            let tname = chars.as_str();
            arg_modes.push(mode);
            arg_types.push(intern(tname, &mut type_ids));
        }

        if seen_preds.insert((rel, arg_types.clone()), ()).is_none() {
            preds.push(PredDef {
                rel,
                types: arg_types,
            });
        }
        if !is_head {
            modes.push(ModeDef {
                rel,
                args: arg_modes,
            });
        }
    }

    Ok(LanguageBias::new(db, target, preds, modes)?)
}

/// Exports a [`LanguageBias`] as Aleph declarations: one `modeh` for the
/// target, one `modeb` per mode, typed by each attribute's first type.
pub fn render_aleph_bias(db: &Database, bias: &LanguageBias) -> String {
    let type_name = |t: TypeId| format!("t{}", t.0);
    let attr_type = |rel: RelId, pos: usize| {
        bias.types_of(relstore::AttrRef::new(rel, pos))
            .first()
            .map(|&t| type_name(t))
            .unwrap_or_else(|| "any".to_string())
    };

    let mut out = String::new();
    let target_arity = db.catalog().schema(bias.target).arity();
    let head_args: Vec<String> = (0..target_arity)
        .map(|pos| format!("+{}", attr_type(bias.target, pos)))
        .collect();
    out.push_str(&format!(
        ":- modeh(1, {}({})).\n",
        db.catalog().schema(bias.target).name,
        head_args.join(", ")
    ));
    for mode in &bias.modes {
        let args: Vec<String> = mode
            .args
            .iter()
            .enumerate()
            .map(|(pos, m)| format!("{}{}", m, attr_type(mode.rel, pos)))
            .collect();
        out.push_str(&format!(
            ":- modeb(*, {}({})).\n",
            db.catalog().schema(mode.rel).name,
            args.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::fixtures::uw_fragment;
    use relstore::AttrRef;

    fn setup() -> (Database, RelId) {
        let mut db = uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        db.insert(target, &["juan", "sarita"]);
        (db, target)
    }

    const ALEPH: &str = "
% advisedBy background theory, Aleph format
:- set(clauselength, 6).
:- modeh(1, advisedBy(+student, +professor)).
:- modeb(*, publication(-title, +student)).
:- modeb(*, publication(-title, +professor)).
:- modeb(*, inPhase(+student, #phase)).
:- modeb(1, student(+student)).
:- modeb(1, professor(+professor)).
:- determination(advisedBy/2, publication/2).
";

    /// Arguments with no mode symbol, or a multi-byte first character, are
    /// malformed declarations (both used to panic splitting off the
    /// symbol).
    #[test]
    fn an_argument_without_a_symbol_is_malformed() {
        let (db, target) = setup();
        for decl in [":- modeb(*, student()).", ":- modeb(*, student(ést))."] {
            let text = format!("{ALEPH}{decl}\n");
            let err = parse_aleph_bias(&db, target, &text).unwrap_err();
            assert!(
                matches!(err, AlephParseError::Malformed { line: 11, .. }),
                "{decl}: {err}"
            );
        }
    }

    /// Random Aleph texts: each line is either tokens drawn from the
    /// whole syntax, or a declaration built slot by slot, each slot a
    /// well-formed piece or a broken one, so most lines get deep into the
    /// parser before they fail.
    #[test]
    fn parser_never_panics_on_arbitrary_strings() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let slots: [&[&str]; 6] = [
            &[":- ", ":-", "", "%", " :- "],
            &["modeh(", "modeb(", "mode(", "modeb", "modeb(("],
            &["1, ", "*, ", "", "1", ",", "*,"],
            &[
                "advisedBy(",
                "student(",
                "publication(",
                "inPhase(",
                "nosuch(",
                "student",
                ")",
            ],
            &[
                "+student",
                "+student, -title",
                "-title, +professor",
                "#phase",
                "",
                ",",
                "+",
                "é",
                "😀x",
                "+student, ",
                " , ",
                "(",
                ")(",
            ],
            &[")).", "))", ").", ")", "", ")).x", ". )", "))..", "(("],
        ];
        let tokens: Vec<&str> = slots.iter().flat_map(|s| s.iter().copied()).collect();
        let (db, target) = setup();
        let mut rng = StdRng::seed_from_u64(0x5eed_a1e9);
        for case in 0..20_000 {
            let mut text = if case % 2 == 0 {
                ALEPH.to_string()
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
            let _ = parse_aleph_bias(&db, target, &text);
        }
    }

    #[test]
    fn parses_modeh_and_modeb() {
        let (db, target) = setup();
        let bias = parse_aleph_bias(&db, target, ALEPH).unwrap();
        assert_eq!(bias.modes.len(), 5); // modeh is not a body mode
        let publ = db.rel_id("publication").unwrap();
        let student = db.rel_id("student").unwrap();
        let professor = db.rel_id("professor").unwrap();
        // person attribute typed both student and professor.
        assert!(bias.share_type(AttrRef::new(publ, 1), AttrRef::new(student, 0)));
        assert!(bias.share_type(AttrRef::new(publ, 1), AttrRef::new(professor, 0)));
        assert!(!bias.share_type(AttrRef::new(student, 0), AttrRef::new(professor, 0)));
        // # marks phase constant-able.
        let in_phase = db.rel_id("inPhase").unwrap();
        assert!(bias.can_be_const(AttrRef::new(in_phase, 1)));
        // Head typed from modeh.
        assert!(!bias.types_of(AttrRef::new(target, 0)).is_empty());
    }

    #[test]
    fn settings_and_determinations_are_ignored() {
        let (db, target) = setup();
        let bias = parse_aleph_bias(
            &db,
            target,
            ":- set(noise, 5).\n:- modeh(1, advisedBy(+s, +p)).\n:- determination(advisedBy/2, student/1).",
        )
        .unwrap();
        assert!(bias.modes.is_empty());
    }

    #[test]
    fn roundtrip_through_render() {
        let (db, target) = setup();
        let bias = parse_aleph_bias(&db, target, ALEPH).unwrap();
        let rendered = render_aleph_bias(&db, &bias);
        assert!(rendered.contains(":- modeh(1, advisedBy("));
        let again = parse_aleph_bias(&db, target, &rendered).unwrap();
        assert_eq!(again.modes.len(), bias.modes.len());
        // Joinability structure is preserved.
        let publ = db.rel_id("publication").unwrap();
        let student = db.rel_id("student").unwrap();
        assert_eq!(
            bias.share_type(AttrRef::new(publ, 1), AttrRef::new(student, 0)),
            again.share_type(AttrRef::new(publ, 1), AttrRef::new(student, 0)),
        );
    }

    #[test]
    fn errors_are_located() {
        let (db, target) = setup();
        let err = parse_aleph_bias(&db, target, ":- modeb(*, nosuch(+x)).").unwrap_err();
        assert!(matches!(
            err,
            AlephParseError::UnknownRelation { line: 1, .. }
        ));
        let err = parse_aleph_bias(&db, target, ":- modeb(*, student(+a, +b)).").unwrap_err();
        assert!(matches!(
            err,
            AlephParseError::Arity {
                given: 2,
                expected: 1,
                ..
            }
        ));
        let err = parse_aleph_bias(&db, target, ":- modeb(*, student(?a)).").unwrap_err();
        assert!(matches!(err, AlephParseError::Malformed { .. }));
    }

    /// An imported Aleph bias drives the learner end to end.
    #[test]
    fn imported_bias_learns() {
        use crate::bottom::{BcConfig, SamplingStrategy};
        use crate::coverage::CoverageEngine;
        use crate::example::{Example, TrainingSet};
        use crate::learn::{
            definition_covers_neg_in, definition_covers_pos_in, prepare_definition, Learner,
            LearnerConfig,
        };
        use crate::subsume::Workspace;

        let (mut db, target) = setup();
        db.insert(target, &["john", "mary"]);
        let bias = parse_aleph_bias(&db, target, ALEPH).unwrap();
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
                max_tuples: 1000,
                max_body_literals: 10_000,
            },
            ..LearnerConfig::default()
        };
        let (def, _) = Learner::new(cfg).learn(&db, &bias, &train);
        assert!(!def.is_empty());
        let engine = CoverageEngine::for_learner(&db, &bias, &train, &cfg);
        let prepared = prepare_definition(&def);
        let mut ws = Workspace::default();
        assert!(
            (0..train.pos.len()).all(|i| definition_covers_pos_in(&mut ws, &prepared, &engine, i))
        );
        assert!(
            !(0..train.neg.len()).any(|i| definition_covers_neg_in(&mut ws, &prepared, &engine, i))
        );
    }
}
