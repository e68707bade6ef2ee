//! Language bias: predicate and mode definitions (paper §2.2).
//!
//! *Predicate definitions* assign semantic types to relation attributes; two
//! attributes may be joined (share a variable) in a candidate clause only if
//! they share a type. *Mode definitions* constrain each literal argument to
//! be an existing variable (`+`), any variable (`-`), or a constant (`#`).
//!
//! [`auto`] induces both from the data (the paper's contribution);
//! [`baseline`] provides the Castor / no-constants baselines; [`parse`] reads
//! expert-written bias from text.

pub mod aleph;
pub mod auto;
pub mod baseline;
pub mod overlap;
pub mod parse;

use constraints::TypeId;
use relstore::{AttrRef, Database, FxHashMap, FxHashSet, RelId};
use std::fmt;

/// A predicate definition: one typing of a relation's attributes, e.g.
/// `publication(T5, T1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredDef {
    /// The typed relation.
    pub rel: RelId,
    /// One type per attribute position.
    pub types: Vec<TypeId>,
}

/// Argument annotation in a mode definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgMode {
    /// `+` — must be a variable that already appears in the clause.
    Plus,
    /// `-` — may be an existing or a fresh variable.
    Minus,
    /// `#` — must be a constant.
    Hash,
}

impl fmt::Display for ArgMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArgMode::Plus => "+",
            ArgMode::Minus => "-",
            ArgMode::Hash => "#",
        })
    }
}

/// A mode definition for one relation, e.g. `inPhase(+, #)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModeDef {
    /// The constrained relation.
    pub rel: RelId,
    /// One annotation per attribute position.
    pub args: Vec<ArgMode>,
}

impl ModeDef {
    /// Positions annotated `+`.
    pub fn plus_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.args
            .iter()
            .enumerate()
            .filter(|(_, m)| **m == ArgMode::Plus)
            .map(|(i, _)| i)
    }
}

/// Errors raised when assembling an inconsistent language bias.
#[derive(Debug)]
pub enum BiasError {
    /// A predicate definition's type count differs from the relation arity.
    PredArity {
        /// Offending relation.
        rel: RelId,
        /// Types given.
        given: usize,
        /// Arity expected.
        expected: usize,
    },
    /// A mode definition's annotation count differs from the relation arity.
    ModeArity {
        /// Offending relation.
        rel: RelId,
        /// Annotations given.
        given: usize,
        /// Arity expected.
        expected: usize,
    },
    /// A body mode was declared on the target relation (would allow the
    /// learner to define the target in terms of itself).
    TargetInBody,
    /// No predicate definition covers the target relation, so head variables
    /// would have no types.
    MissingTargetPred,
}

impl fmt::Display for BiasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BiasError::PredArity {
                rel,
                given,
                expected,
            } => write!(
                f,
                "predicate definition for r{} has {given} types, relation arity is {expected}",
                rel.0
            ),
            BiasError::ModeArity {
                rel,
                given,
                expected,
            } => write!(
                f,
                "mode definition for r{} has {given} annotations, relation arity is {expected}",
                rel.0
            ),
            BiasError::TargetInBody => write!(f, "mode definition declared on the target relation"),
            BiasError::MissingTargetPred => {
                write!(f, "no predicate definition types the target relation")
            }
        }
    }
}

impl std::error::Error for BiasError {}

/// A complete language bias for learning one target relation.
#[derive(Debug, Clone)]
pub struct LanguageBias {
    /// The target (head) relation.
    pub target: RelId,
    /// All predicate definitions, including the target's typing.
    pub preds: Vec<PredDef>,
    /// Body mode definitions (never on the target relation).
    pub modes: Vec<ModeDef>,
    attr_types: FxHashMap<AttrRef, Vec<TypeId>>,
    const_attrs: FxHashSet<AttrRef>,
    modes_by_rel: FxHashMap<RelId, Vec<usize>>,
}

impl LanguageBias {
    /// Assembles and validates a language bias.
    pub fn new(
        db: &Database,
        target: RelId,
        preds: Vec<PredDef>,
        modes: Vec<ModeDef>,
    ) -> Result<Self, BiasError> {
        for p in &preds {
            let expected = db.catalog().schema(p.rel).arity();
            if p.types.len() != expected {
                return Err(BiasError::PredArity {
                    rel: p.rel,
                    given: p.types.len(),
                    expected,
                });
            }
        }
        for m in &modes {
            let expected = db.catalog().schema(m.rel).arity();
            if m.args.len() != expected {
                return Err(BiasError::ModeArity {
                    rel: m.rel,
                    given: m.args.len(),
                    expected,
                });
            }
            if m.rel == target {
                return Err(BiasError::TargetInBody);
            }
        }
        if !preds.iter().any(|p| p.rel == target) {
            return Err(BiasError::MissingTargetPred);
        }

        // Per-attribute type sets: union over all predicate definitions.
        // (publication(T5,T1) and publication(T5,T3) give author {T1,T3}.)
        let mut attr_types: FxHashMap<AttrRef, Vec<TypeId>> = FxHashMap::default();
        for p in &preds {
            for (pos, &t) in p.types.iter().enumerate() {
                let entry = attr_types.entry(AttrRef::new(p.rel, pos)).or_default();
                if !entry.contains(&t) {
                    entry.push(t);
                }
            }
        }
        for v in attr_types.values_mut() {
            v.sort_unstable();
        }

        let mut const_attrs = FxHashSet::default();
        let mut modes_by_rel: FxHashMap<RelId, Vec<usize>> = FxHashMap::default();
        for (i, m) in modes.iter().enumerate() {
            modes_by_rel.entry(m.rel).or_default().push(i);
            for (pos, a) in m.args.iter().enumerate() {
                if *a == ArgMode::Hash {
                    const_attrs.insert(AttrRef::new(m.rel, pos));
                }
            }
        }

        Ok(Self {
            target,
            preds,
            modes,
            attr_types,
            const_attrs,
            modes_by_rel,
        })
    }

    /// The types assigned to `attr` (empty if the attribute is untyped,
    /// which means it can never participate in a join).
    pub fn types_of(&self, attr: AttrRef) -> &[TypeId] {
        self.attr_types.get(&attr).map_or(&[], Vec::as_slice)
    }

    /// Whether two attributes share a type, i.e. may be joined.
    pub fn share_type(&self, a: AttrRef, b: AttrRef) -> bool {
        let tb = self.types_of(b);
        self.types_of(a).iter().any(|t| tb.contains(t))
    }

    /// Mode definitions declared for `rel`.
    pub fn modes_for(&self, rel: RelId) -> impl Iterator<Item = &ModeDef> {
        self.modes_by_rel
            .get(&rel)
            .into_iter()
            .flatten()
            .map(|&i| &self.modes[i])
    }

    /// Relations usable in clause bodies (those with at least one mode).
    pub fn body_rels(&self) -> impl Iterator<Item = RelId> + '_ {
        self.modes_by_rel.keys().copied()
    }

    /// Whether `attr` may hold a constant (`#` in some mode).
    pub fn can_be_const(&self, attr: AttrRef) -> bool {
        self.const_attrs.contains(&attr)
    }

    /// Whether `attr` may hold a variable (`+` or `-` in some mode).
    pub fn can_be_var(&self, attr: AttrRef) -> bool {
        self.modes_for(attr.rel)
            .any(|m| matches!(m.args[attr.pos as usize], ArgMode::Plus | ArgMode::Minus))
    }

    /// Bias size as the paper counts it: number of predicate plus mode
    /// definitions ("lines of code" of the bias).
    pub fn size(&self) -> usize {
        self.preds.len() + self.modes.len()
    }

    /// Renders the bias in the same textual format [`parse`] accepts.
    pub fn render(&self, db: &Database) -> String {
        let mut out = String::new();
        for p in &self.preds {
            let name = &db.catalog().schema(p.rel).name;
            let types: Vec<String> = p.types.iter().map(|t| t.label()).collect();
            out.push_str(&format!("pred {}({})\n", name, types.join(", ")));
        }
        for m in &self.modes {
            let name = &db.catalog().schema(m.rel).name;
            let args: Vec<String> = m.args.iter().map(|a| a.to_string()).collect();
            out.push_str(&format!("mode {}({})\n", name, args.join(", ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db() -> (Database, RelId, RelId, RelId) {
        let mut db = Database::new();
        let student = db.add_relation("student", &["stud"]);
        let in_phase = db.add_relation("inPhase", &["stud", "phase"]);
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        (db, student, in_phase, target)
    }

    #[test]
    fn assemble_and_query() {
        let (db, student, in_phase, target) = tiny_db();
        let t1 = TypeId(0);
        let t2 = TypeId(1);
        let t3 = TypeId(2);
        let bias = LanguageBias::new(
            &db,
            target,
            vec![
                PredDef {
                    rel: student,
                    types: vec![t1],
                },
                PredDef {
                    rel: in_phase,
                    types: vec![t1, t2],
                },
                PredDef {
                    rel: target,
                    types: vec![t1, t3],
                },
            ],
            vec![
                ModeDef {
                    rel: student,
                    args: vec![ArgMode::Plus],
                },
                ModeDef {
                    rel: in_phase,
                    args: vec![ArgMode::Plus, ArgMode::Minus],
                },
                ModeDef {
                    rel: in_phase,
                    args: vec![ArgMode::Plus, ArgMode::Hash],
                },
            ],
        )
        .unwrap();

        assert!(bias.share_type(AttrRef::new(student, 0), AttrRef::new(in_phase, 0)));
        assert!(!bias.share_type(AttrRef::new(student, 0), AttrRef::new(in_phase, 1)));
        assert!(bias.can_be_const(AttrRef::new(in_phase, 1)));
        assert!(!bias.can_be_const(AttrRef::new(in_phase, 0)));
        assert!(bias.can_be_var(AttrRef::new(in_phase, 1)));
        assert_eq!(bias.modes_for(in_phase).count(), 2);
        assert_eq!(bias.size(), 6);
    }

    #[test]
    fn rejects_target_body_mode() {
        let (db, student, _, target) = tiny_db();
        let err = LanguageBias::new(
            &db,
            target,
            vec![
                PredDef {
                    rel: student,
                    types: vec![TypeId(0)],
                },
                PredDef {
                    rel: target,
                    types: vec![TypeId(0), TypeId(1)],
                },
            ],
            vec![ModeDef {
                rel: target,
                args: vec![ArgMode::Plus, ArgMode::Minus],
            }],
        )
        .unwrap_err();
        assert!(matches!(err, BiasError::TargetInBody));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let (db, student, _, target) = tiny_db();
        let err = LanguageBias::new(
            &db,
            target,
            vec![
                PredDef {
                    rel: student,
                    types: vec![TypeId(0), TypeId(1)],
                },
                PredDef {
                    rel: target,
                    types: vec![TypeId(0), TypeId(1)],
                },
            ],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, BiasError::PredArity { .. }));
    }

    #[test]
    fn rejects_untyped_target() {
        let (db, student, _, target) = tiny_db();
        let err = LanguageBias::new(
            &db,
            target,
            vec![PredDef {
                rel: student,
                types: vec![TypeId(0)],
            }],
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, BiasError::MissingTargetPred));
    }

    #[test]
    fn multiple_pred_defs_union_types() {
        // publication(T5,T1) + publication(T5,T3) → author has {T1, T3}.
        let mut db = Database::new();
        let publ = db.add_relation("publication", &["title", "person"]);
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        let bias = LanguageBias::new(
            &db,
            target,
            vec![
                PredDef {
                    rel: publ,
                    types: vec![TypeId(4), TypeId(0)],
                },
                PredDef {
                    rel: publ,
                    types: vec![TypeId(4), TypeId(2)],
                },
                PredDef {
                    rel: target,
                    types: vec![TypeId(0), TypeId(2)],
                },
            ],
            vec![],
        )
        .unwrap();
        assert_eq!(
            bias.types_of(AttrRef::new(publ, 1)),
            &[TypeId(0), TypeId(2)]
        );
        assert_eq!(bias.types_of(AttrRef::new(publ, 0)), &[TypeId(4)]);
    }
}
