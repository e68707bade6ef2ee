//! Textual round trip for clauses and definitions, so learned models can be
//! saved, versioned, and reloaded. The format is exactly what
//! [`Clause::render`] prints:
//!
//! ```text
//! advisedBy(x, y) ← publication(z, x), publication(z, y)
//! advisedBy(x, y) ← ta(z, x, v3), taughtBy(z, y, v3)
//! ```
//!
//! Tokens `x`, `y`, `z`, and `v<N>` are variables (the renderer's labels);
//! every other argument token is a constant, interned into the database's
//! dictionary on load. `<-` is accepted in place of `←`.
//!
//! ```
//! use autobias::clause_text::parse_definition;
//! let mut db = relstore::fixtures::uw_fragment();
//! db.add_relation("advisedBy", &["stud", "prof"]);
//! let def = parse_definition(
//!     &mut db,
//!     "advisedBy(x, y) <- publication(z, x), publication(z, y)",
//! )
//! .unwrap();
//! assert_eq!(def.len(), 1);
//! assert_eq!(
//!     def.render(&db),
//!     "advisedBy(x, y) ← publication(z, x), publication(z, y)"
//! );
//! ```

use crate::clause::{Clause, Definition, Literal, Term, VarId};
use relstore::{Database, FxHashMap};
use std::fmt;

/// Errors raised while parsing clause text.
#[derive(Debug)]
pub enum ClauseParseError {
    /// Structurally malformed text (missing arrow, parentheses, …).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// A literal naming an unknown relation.
    UnknownRelation {
        /// 1-based line number.
        line: usize,
        /// The name in question.
        name: String,
    },
    /// A literal whose argument count does not match the relation's arity.
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
}

impl fmt::Display for ClauseParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClauseParseError::Malformed { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ClauseParseError::UnknownRelation { line, name } => {
                write!(f, "line {line}: unknown relation {name:?}")
            }
            ClauseParseError::Arity {
                line,
                name,
                given,
                expected,
            } => {
                write!(
                    f,
                    "line {line}: {name} takes {expected} arguments, got {given}"
                )
            }
        }
    }
}

impl std::error::Error for ClauseParseError {}

/// Whether a token is one of the renderer's variable labels.
fn is_var_token(tok: &str) -> bool {
    matches!(tok, "x" | "y" | "z")
        || (tok.starts_with('v') && tok.len() > 1 && tok[1..].chars().all(|c| c.is_ascii_digit()))
}

/// The variable a label names; `None` for a `v<N>` whose `N` overflows.
fn var_id(tok: &str) -> Option<u32> {
    match tok {
        "x" => Some(0),
        "y" => Some(1),
        "z" => Some(2),
        _ => tok[1..].parse().ok(),
    }
}

/// Splits `name(arg1, arg2)` into name and raw args.
fn split_call(s: &str, line: usize) -> Result<(&str, Vec<&str>), ClauseParseError> {
    let open = s.find('(').ok_or_else(|| ClauseParseError::Malformed {
        line,
        message: format!("expected `rel(args)` in {s:?}"),
    })?;
    let close =
        s.rfind(')')
            .filter(|&close| close > open)
            .ok_or_else(|| ClauseParseError::Malformed {
                line,
                message: format!("missing `)` in {s:?}"),
            })?;
    let trailing = s[close + 1..].trim();
    if !trailing.is_empty() {
        return Err(ClauseParseError::Malformed {
            line,
            message: format!("unexpected {trailing:?} after `)` in {s:?}"),
        });
    }
    let name = s[..open].trim();
    let inner = &s[open + 1..close];
    let args = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner.split(',').map(str::trim).collect()
    };
    Ok((name, args))
}

/// A parsed literal whose constants are still raw string tokens — the
/// database-independent first phase shared by the interning and frozen
/// parsers.
struct RawLiteral<'s> {
    rel: relstore::RelId,
    args: Vec<RawTerm<'s>>,
}

enum RawTerm<'s> {
    Var(u32),
    Const(&'s str),
}

/// Parses one clause line against the catalog only (relations and arities
/// are validated; constants stay as strings).
fn parse_raw<'s>(
    db: &Database,
    text: &'s str,
    line_no: usize,
) -> Result<Vec<RawLiteral<'s>>, ClauseParseError> {
    let (head_text, body_text) = match text.split_once('←').or_else(|| text.split_once("<-")) {
        Some((h, b)) => (h.trim(), b.trim()),
        None => (text.trim(), ""),
    };

    // Split the body on commas at parenthesis depth zero.
    let mut body_parts: Vec<&str> = Vec::new();
    if !body_text.is_empty() && body_text != "true" {
        let mut depth = 0usize;
        let mut start = 0usize;
        for (i, ch) in body_text.char_indices() {
            match ch {
                '(' => depth += 1,
                ')' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => {
                    body_parts.push(&body_text[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        if !body_text[start..].trim().is_empty() {
            body_parts.push(&body_text[start..]);
        }
    }

    let parse_literal = |s: &'s str| -> Result<RawLiteral<'s>, ClauseParseError> {
        let (name, args) = split_call(s.trim(), line_no)?;
        let rel = db
            .rel_id(name)
            .ok_or_else(|| ClauseParseError::UnknownRelation {
                line: line_no,
                name: name.to_string(),
            })?;
        let expected = db.catalog().schema(rel).arity();
        if args.len() != expected {
            return Err(ClauseParseError::Arity {
                line: line_no,
                name: name.to_string(),
                given: args.len(),
                expected,
            });
        }
        let args = args
            .iter()
            .map(|a| {
                if !is_var_token(a) {
                    return Ok(RawTerm::Const(a));
                }
                var_id(a)
                    .map(RawTerm::Var)
                    .ok_or_else(|| ClauseParseError::Malformed {
                        line: line_no,
                        message: format!("variable label {a:?} out of range"),
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(RawLiteral { rel, args })
    };

    let mut lits = Vec::with_capacity(1 + body_parts.len());
    lits.push(parse_literal(head_text)?);
    for p in body_parts {
        lits.push(parse_literal(p)?);
    }
    Ok(lits)
}

/// Materializes raw literals into a normalized clause, mapping constant
/// tokens through `resolve`.
fn materialize(
    raw: Vec<RawLiteral<'_>>,
    mut resolve: impl FnMut(&str) -> relstore::Const,
) -> Clause {
    let mut lits = raw.into_iter().map(|l| {
        let terms: Vec<Term> = l
            .args
            .iter()
            .map(|t| match t {
                RawTerm::Var(v) => Term::Var(VarId(*v)),
                RawTerm::Const(s) => Term::Const(resolve(s)),
            })
            .collect();
        Literal::new(l.rel, terms)
    });
    let head = lits.next().expect("parse_raw always yields a head");
    let mut clause = Clause::new(head, lits.collect());
    // Renumber densely so round trips through render/parse are stable even
    // though labels skip numbers.
    normalize(&mut clause);
    clause
}

/// Parses one clause line. Constants are interned into `db`.
pub fn parse_clause(
    db: &mut Database,
    text: &str,
    line_no: usize,
) -> Result<Clause, ClauseParseError> {
    let raw = parse_raw(db, text, line_no)?;
    Ok(materialize(raw, |s| db.intern(s)))
}

/// Parses one clause line against a *frozen* (shared, read-only) database:
/// constants not present in the dictionary resolve to ephemeral ids from
/// `resolver` instead of being interned. Such constants match no database
/// tuple, so a literal mentioning one can never be witnessed — exactly the
/// semantics of a constant that does not occur in the data.
pub fn parse_clause_frozen(
    db: &Database,
    resolver: &mut relstore::ConstResolver<'_>,
    text: &str,
    line_no: usize,
) -> Result<Clause, ClauseParseError> {
    let raw = parse_raw(db, text, line_no)?;
    Ok(materialize(raw, |s| resolver.resolve(s)))
}

/// Renumbers variables to match the renderer's labeling scheme (head vars
/// first, then body order) without changing structure.
fn normalize(clause: &mut Clause) {
    let mut map: FxHashMap<VarId, VarId> = FxHashMap::default();
    let mut next = 0u32;
    let mut rn = |t: &mut Term, map: &mut FxHashMap<VarId, VarId>| {
        if let Term::Var(v) = t {
            let nv = *map.entry(*v).or_insert_with(|| {
                let nv = VarId(next);
                next += 1;
                nv
            });
            *t = Term::Var(nv);
        }
    };
    for t in clause.head.args.iter_mut() {
        rn(t, &mut map);
    }
    for lit in &mut clause.body {
        for t in lit.args.iter_mut() {
            rn(t, &mut map);
        }
    }
}

/// Parses a full definition: one clause per line; blank lines and `#`
/// comments ignored.
pub fn parse_definition(db: &mut Database, text: &str) -> Result<Definition, ClauseParseError> {
    let mut def = Definition::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        def.clauses.push(parse_clause(db, line, i + 1)?);
    }
    Ok(def)
}

/// Parses a full definition against a frozen database (no interning): one
/// clause per line; blank lines and `#` comments ignored. Returns the
/// definition together with the constant tokens that were not found in the
/// dictionary (useful for warning that a model references entities absent
/// from the data).
pub fn parse_definition_frozen(
    db: &Database,
    text: &str,
) -> Result<(Definition, Vec<String>), ClauseParseError> {
    let mut resolver = relstore::ConstResolver::new(db.dict());
    let mut def = Definition::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        def.clauses
            .push(parse_clause_frozen(db, &mut resolver, line, i + 1)?);
    }
    let unknown = resolver
        .unknown_strings()
        .into_iter()
        .map(String::from)
        .collect();
    Ok((def, unknown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use relstore::fixtures::uw_fragment;

    fn setup() -> Database {
        let mut db = uw_fragment();
        db.add_relation("advisedBy", &["stud", "prof"]);
        db
    }

    #[test]
    fn roundtrip_via_render() {
        let mut db = setup();
        let text = "advisedBy(x, y) ← publication(z, x), publication(z, y)";
        let clause = parse_clause(&mut db, text, 1).unwrap();
        assert_eq!(clause.render(&db), text);
    }

    #[test]
    fn constants_are_interned() {
        let mut db = setup();
        let clause = parse_clause(&mut db, "advisedBy(x, y) ← inPhase(x, post_quals)", 1).unwrap();
        let post_quals = db.lookup("post_quals").unwrap();
        assert_eq!(clause.body[0].args[1], Term::Const(post_quals));
        // And a brand-new constant gets interned:
        let c2 = parse_clause(&mut db, "advisedBy(x, y) ← inPhase(x, pre_thesis)", 1).unwrap();
        assert!(db.lookup("pre_thesis").is_some());
        let _ = c2;
    }

    #[test]
    fn body_free_clause_and_ascii_arrow() {
        let mut db = setup();
        let a = parse_clause(&mut db, "advisedBy(x, y)", 1).unwrap();
        assert!(a.body.is_empty());
        let b = parse_clause(&mut db, "advisedBy(x, y) <- student(x)", 1).unwrap();
        assert_eq!(b.body.len(), 1);
        let c = parse_clause(&mut db, "advisedBy(x, y) ← true", 1).unwrap();
        assert!(c.body.is_empty());
    }

    #[test]
    fn high_variable_labels_parse() {
        let mut db = setup();
        let clause = parse_clause(
            &mut db,
            "advisedBy(x, y) ← publication(v12, x), publication(v12, y)",
            1,
        )
        .unwrap();
        // v12 normalized but shared between the two literals.
        assert_eq!(clause.body[0].args[0], clause.body[1].args[0]);
    }

    #[test]
    fn definition_roundtrip() {
        let mut db = setup();
        let text = "\
# learned model
advisedBy(x, y) ← publication(z, x), publication(z, y)

advisedBy(x, y) ← student(x), professor(y)";
        let def = parse_definition(&mut db, text).unwrap();
        assert_eq!(def.len(), 2);
        let rendered = def.render(&db);
        let again = parse_definition(&mut db, &rendered).unwrap();
        assert_eq!(def, again);
    }

    /// Satellite: multi-clause model file round-trips byte-identically
    /// through parse → print → parse, including constants and reused
    /// high-numbered variables.
    #[test]
    fn multi_clause_model_file_roundtrip() {
        let mut db = setup();
        let text = "\
# learned model for advisedBy (3 clauses)
advisedBy(x, y) ← publication(z, x), publication(z, y)
advisedBy(x, y) ← student(x), professor(y), inPhase(x, post_quals)
advisedBy(x, y) ← publication(v12, x), publication(v12, y), professor(y)";
        let def = parse_definition(&mut db, text).unwrap();
        assert_eq!(def.len(), 3);
        let printed = def.render(&db);
        let again = parse_definition(&mut db, &printed).unwrap();
        assert_eq!(def, again, "parse → print → parse must be a fixpoint");
        // And printing the re-parsed definition reproduces the same text.
        assert_eq!(printed, again.render(&db));
    }

    #[test]
    fn frozen_parse_matches_interning_parse_on_known_constants() {
        let mut db = setup();
        let text = "advisedBy(x, y) ← inPhase(x, post_quals), professor(y)";
        let interned = parse_clause(&mut db, text, 1).unwrap();
        let mut resolver = relstore::ConstResolver::new(db.dict());
        let frozen = parse_clause_frozen(&db, &mut resolver, text, 1).unwrap();
        assert_eq!(interned, frozen);
        assert!(resolver.unknown_strings().is_empty());
    }

    #[test]
    fn frozen_parse_reports_unknown_constants_without_interning() {
        let db = setup();
        let before = db.dict().len();
        let (def, unknown) = parse_definition_frozen(
            &db,
            "advisedBy(x, y) ← inPhase(x, never_seen_phase)\nadvisedBy(x, y) ← student(x)",
        )
        .unwrap();
        assert_eq!(def.len(), 2);
        assert_eq!(unknown, vec!["never_seen_phase".to_string()]);
        assert_eq!(db.dict().len(), before, "frozen parse must not intern");
        // The ephemeral constant matches nothing, so the first clause can
        // never be witnessed — but the definition still evaluates safely.
        let target = db.rel_id("advisedBy").unwrap();
        let juan = db.lookup("juan").unwrap();
        let covered = crate::query::definition_covers(
            &db,
            &def,
            &crate::example::Example::new(target, vec![juan, juan]),
            &crate::query::QueryConfig::default(),
        );
        assert!(covered, "second clause (student(x)) should still fire");
    }

    /// Texts that used to panic the parser (a `)` before the `(`, a
    /// variable label past `u32`) are malformed lines.
    #[test]
    fn misplaced_parenthesis_and_huge_label_are_malformed() {
        let mut db = setup();
        for text in ["advisedBy)x, y(", "advisedBy(x, v99999999999)"] {
            let err = parse_definition(&mut db, text).unwrap_err();
            assert!(
                matches!(err, ClauseParseError::Malformed { line: 1, .. }),
                "{text}: {err}"
            );
            assert!(parse_definition_frozen(&db, text).is_err(), "{text}");
        }
        // The largest label still parses.
        assert!(parse_definition(&mut db, "advisedBy(x, v4294967295)").is_ok());
    }

    /// Text after a literal's `)` is a malformed line, in the head and in
    /// the body, for both parsers; blanks after it are fine.
    #[test]
    fn text_after_a_literal_is_malformed() {
        let mut db = setup();
        for text in [
            "advisedBy(x, y)junk ← student(x) extra words",
            "advisedBy(x, y)junk ← student(x)",
            "advisedBy(x, y) ← student(x) extra words",
            "advisedBy(x, y) ← student(x)x, student(y)",
        ] {
            let err = parse_definition(&mut db, text).unwrap_err();
            assert!(
                matches!(err, ClauseParseError::Malformed { line: 1, .. }),
                "{text}: {err}"
            );
            assert!(parse_definition_frozen(&db, text).is_err(), "{text}");
        }
        let def =
            parse_definition(&mut db, "advisedBy(x, y) \t ← student(x)  , student(y) ").unwrap();
        assert_eq!(def.clauses[0].body.len(), 2);
    }

    /// A string of up to `max_len` characters drawn from `alphabet`.
    fn random_string(rng: &mut StdRng, alphabet: &[&str], max_len: usize) -> String {
        let len = rng.random_range(0..=max_len);
        (0..len).map(|_| *alphabet.choose(rng).unwrap()).collect()
    }

    #[test]
    fn parsers_never_panic_on_arbitrary_strings() {
        // Clause syntax, both arrows (and their halves), relation names of
        // the fixture, variable labels (one past `u32`), and multi-byte
        // characters.
        let alphabet = [
            "(",
            ")",
            ",",
            " ",
            "←",
            "<-",
            "<",
            "-",
            "\n",
            "#",
            "true",
            "x",
            "y",
            "z",
            "v",
            "v12",
            "v99999999999",
            "advisedBy",
            "publication",
            "student",
            "inPhase",
            "é",
            "😀",
            "\"",
            "0",
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed_0008);
        for _ in 0..20_000 {
            let text = random_string(&mut rng, &alphabet, 16);
            let mut db = setup();
            if let Ok((frozen, _)) = parse_definition_frozen(&db, &text) {
                // The two parsers accept the same texts, with the same
                // structure.
                let interned = parse_definition(&mut db, &text)
                    .unwrap_or_else(|e| panic!("{text:?}: frozen parse ok, interning: {e}"));
                assert_eq!(interned.len(), frozen.len(), "{text:?}");
            } else {
                assert!(parse_definition(&mut db, &text).is_err(), "{text:?}");
            }
        }
    }

    #[test]
    fn rendered_definitions_parse_back() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0009);
        // Constant names the renderer prints verbatim and the parser reads
        // back as constants: no separators, no surrounding whitespace, and
        // never a variable label.
        let first = ["c", "K", "7", "_", "é"];
        let rest = [
            "a", "b", "0", "9", "_", "-", ".", "\"", "'", "é", "中", "x", "v",
        ];
        for case in 0..2_000 {
            let mut db = setup();
            let target = db.rel_id("advisedBy").unwrap();
            let rels: Vec<_> = ["publication", "student", "professor", "inPhase"]
                .iter()
                .map(|r| db.rel_id(r).unwrap())
                .chain([target])
                .collect();
            let term = |db: &mut Database, rng: &mut StdRng| {
                if rng.random_range(0..3) == 0 {
                    let name = format!(
                        "{}{}",
                        first.choose(rng).unwrap(),
                        random_string(rng, &rest, 6)
                    );
                    Term::Const(db.intern(&name))
                } else {
                    Term::Var(VarId(rng.random_range(0..40)))
                }
            };
            let mut def = Definition::new();
            for _ in 0..rng.random_range(0..4) {
                let literal = |db: &mut Database, rng: &mut StdRng, rel| {
                    let arity = db.catalog().schema(rel).arity();
                    let args: Vec<Term> = (0..arity).map(|_| term(db, rng)).collect();
                    Literal::new(rel, args)
                };
                let head = literal(&mut db, &mut rng, target);
                let body = (0..rng.random_range(0..5))
                    .map(|_| {
                        let rel = *rels.choose(&mut rng).unwrap();
                        literal(&mut db, &mut rng, rel)
                    })
                    .collect();
                let mut clause = Clause::new(head, body);
                clause.canonicalize_vars();
                def.clauses.push(clause);
            }
            let text = def.render(&db);
            let parsed = parse_definition(&mut db, &text)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(parsed, def, "case {case}: {text}");
            assert_eq!(parsed.render(&db), text, "case {case}");
            let (frozen, unknown) = parse_definition_frozen(&db, &text)
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(frozen, def, "case {case}: {text}");
            assert!(unknown.is_empty(), "case {case}: {unknown:?}");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut db = setup();
        let err = parse_definition(&mut db, "advisedBy(x, y)\nnosuch(x)").unwrap_err();
        assert!(matches!(
            err,
            ClauseParseError::UnknownRelation { line: 2, .. }
        ));
        let err = parse_definition(&mut db, "advisedBy(x)").unwrap_err();
        assert!(matches!(
            err,
            ClauseParseError::Arity {
                line: 1,
                given: 1,
                expected: 2,
                ..
            }
        ));
        let err = parse_definition(&mut db, "advisedBy x, y").unwrap_err();
        assert!(matches!(err, ClauseParseError::Malformed { line: 1, .. }));
    }
}
