//! Training examples: ground facts of the target relation, labeled
//! positive or negative.

use relstore::{Const, Database, RelId};

/// One ground example of the target relation, e.g. `advisedBy(juan, sarita)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Example {
    /// The target relation.
    pub rel: RelId,
    /// The example's constants, one per target attribute.
    pub args: Box<[Const]>,
}

impl Example {
    /// Creates an example.
    pub fn new(rel: RelId, args: impl Into<Box<[Const]>>) -> Self {
        Self {
            rel,
            args: args.into(),
        }
    }

    /// Creates an example by interning the given strings.
    pub fn from_strs(db: &mut Database, rel: RelId, args: &[&str]) -> Self {
        let consts: Box<[Const]> = args.iter().map(|a| db.intern(a)).collect();
        Self { rel, args: consts }
    }

    /// Renders with constant names, e.g. `advisedBy(juan, sarita)`.
    pub fn render(&self, db: &Database) -> String {
        db.render_tuple(self.rel, &self.args)
    }
}

/// The one tuple grammar: splits a user-supplied comma-separated tuple
/// (`"juan, sarita"`) into its fields, borrowed from `raw` and trimmed of
/// the whitespace around every comma. Rejects empty input and empty fields
/// (`"a,,b"`, trailing commas) with a message naming the offending text.
/// `autobias predict`, the serve `/predict` batch and its access-log sample
/// all split tuples here, so every path reports and echoes them alike; it
/// allocates only for an error.
pub fn split_arg_tuple(raw: &str) -> Result<impl Iterator<Item = &str> + Clone, String> {
    let raw_trimmed = raw.trim();
    if raw_trimmed.is_empty() {
        return Err("empty tuple: expected comma-separated constants".to_string());
    }
    let fields = raw_trimmed.split(',').map(str::trim);
    if let Some(pos) = fields.clone().position(str::is_empty) {
        return Err(format!(
            "empty field at position {} in tuple {raw_trimmed:?}",
            pos + 1
        ));
    }
    Ok(fields)
}

/// [`split_arg_tuple`] with owned fields, for callers that keep the fields
/// past the text they came from (perfbench's parse layer times this form).
pub fn parse_arg_tuple(raw: &str) -> Result<Vec<String>, String> {
    split_arg_tuple(raw).map(|fields| fields.map(String::from).collect())
}

/// Positive and negative examples of one target relation.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    /// Positive examples `E+`.
    pub pos: Vec<Example>,
    /// Negative examples `E−`.
    pub neg: Vec<Example>,
}

impl TrainingSet {
    /// Creates a training set.
    pub fn new(pos: Vec<Example>, neg: Vec<Example>) -> Self {
        Self { pos, neg }
    }

    /// Total number of examples.
    pub fn len(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// Whether there are no examples at all.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_render() {
        let mut db = Database::new();
        let adv = db.add_relation("advisedBy", &["stud", "prof"]);
        let e = Example::from_strs(&mut db, adv, &["juan", "sarita"]);
        assert_eq!(e.render(&db), "advisedBy(juan, sarita)");
        assert_eq!(e.args.len(), 2);
    }

    #[test]
    fn parse_arg_tuple_trims_and_rejects_empties() {
        assert_eq!(
            parse_arg_tuple("juan,sarita").unwrap(),
            vec!["juan", "sarita"]
        );
        assert_eq!(
            parse_arg_tuple("  juan ,  sarita  ").unwrap(),
            vec!["juan", "sarita"]
        );
        assert_eq!(parse_arg_tuple("solo").unwrap(), vec!["solo"]);
        let err = parse_arg_tuple("").unwrap_err();
        assert!(err.contains("empty tuple"), "{err}");
        let err = parse_arg_tuple("   ").unwrap_err();
        assert!(err.contains("empty tuple"), "{err}");
        let err = parse_arg_tuple("a,,b").unwrap_err();
        assert!(err.contains("position 2"), "{err}");
        let err = parse_arg_tuple("a,b,").unwrap_err();
        assert!(err.contains("position 3"), "{err}");
    }

    /// SplitMix64: a seeded generator for the property test below, so it
    /// needs no dependency and every failure replays.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// The grammar as first written, collecting owned fields: the model
    /// the borrowing splitter must agree with.
    fn reference_parse(raw: &str) -> Result<Vec<String>, String> {
        let raw_trimmed = raw.trim();
        if raw_trimmed.is_empty() {
            return Err("empty tuple: expected comma-separated constants".to_string());
        }
        let fields: Vec<&str> = raw_trimmed.split(',').map(str::trim).collect();
        if let Some(pos) = fields.iter().position(|f| f.is_empty()) {
            return Err(format!(
                "empty field at position {} in tuple {raw_trimmed:?}",
                pos + 1
            ));
        }
        Ok(fields.into_iter().map(String::from).collect())
    }

    #[test]
    fn splitter_agrees_with_the_owned_parser_on_arbitrary_strings() {
        // Separators, every kind of whitespace `str::trim` strips (and one
        // it keeps), quotes, and multi-byte characters.
        let alphabet = [
            ',', ',', ' ', ' ', '\t', '\n', '\r', '\u{a0}', '\u{3000}', '\u{200b}', 'a', 'b', 'Z',
            '0', '#', '"', '\\', 'é', '中', '😀',
        ];
        let mut rng = Rng(0x5eed_0003);
        for case in 0..20_000 {
            let len = rng.below(14);
            let raw: String = (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
                .collect();
            let want = reference_parse(&raw);
            let split = split_arg_tuple(&raw).map(|f| f.map(String::from).collect::<Vec<_>>());
            assert_eq!(split, want, "case {case}: {raw:?}");
            assert_eq!(parse_arg_tuple(&raw), want, "case {case}: {raw:?}");
        }
    }

    #[test]
    fn training_set_counts() {
        let mut db = Database::new();
        let adv = db.add_relation("t", &["a"]);
        let e1 = Example::from_strs(&mut db, adv, &["x"]);
        let e2 = Example::from_strs(&mut db, adv, &["y"]);
        let ts = TrainingSet::new(vec![e1], vec![e2]);
        assert_eq!(ts.len(), 2);
        assert!(!ts.is_empty());
    }
}
