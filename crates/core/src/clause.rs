//! Horn clauses: terms, literals, clauses, and Horn definitions
//! (paper §2.1, Definitions 2.1–2.2).

use relstore::{Const, Database, FxHashMap, FxHashSet, RelId};

/// A clause-local variable. Ids are dense within one clause; head variables
/// come first by convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Short display name: `x, y, z, v3, v4, …` (first three match the
    /// paper's examples).
    pub fn label(self) -> String {
        match self.0 {
            0 => "x".into(),
            1 => "y".into(),
            2 => "z".into(),
            n => format!("v{n}"),
        }
    }
}

/// A term: a variable or an interned constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// An (existentially quantified) variable.
    Var(VarId),
    /// A constant value.
    Const(Const),
}

impl Term {
    /// The variable id, if this term is a variable.
    pub fn as_var(self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

/// A positive literal `R(t1, …, tn)`. Learned definitions are non-recursive
/// Datalog without negation (paper §2.1), so negated literals never occur.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Literal {
    /// Relation symbol.
    pub rel: RelId,
    /// Argument terms, one per attribute.
    pub args: Box<[Term]>,
}

impl Literal {
    /// Creates a literal.
    pub fn new(rel: RelId, args: impl Into<Box<[Term]>>) -> Self {
        Self {
            rel,
            args: args.into(),
        }
    }

    /// Iterates over the variables appearing in this literal.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }

    /// Renders with constant names from `db`.
    pub fn render(&self, db: &Database) -> String {
        self.render_with(db, &|c| db.const_name(c).to_string())
    }

    /// Renders with relation names from `db` and constant names from
    /// `const_name` (for constants the dictionary does not hold).
    pub fn render_with(&self, db: &Database, const_name: &dyn Fn(Const) -> String) -> String {
        let name = &db.catalog().schema(self.rel).name;
        let args: Vec<String> = self
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => v.label(),
                Term::Const(c) => const_name(*c),
            })
            .collect();
        format!("{}({})", name, args.join(", "))
    }
}

/// A Horn clause: one head literal and a conjunctive body
/// (paper Definition 2.1). `Hash` hashes the literal structure verbatim, so
/// only syntactically identical clauses collide — the beam's dedup keys on
/// canonical forms ([`crate::canon`]) to get α-equivalence classes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Clause {
    /// The single positive (head) literal.
    pub head: Literal,
    /// Body literals, in construction order.
    pub body: Vec<Literal>,
}

impl Clause {
    /// Creates a clause from a head and body.
    pub fn new(head: Literal, body: Vec<Literal>) -> Self {
        Self { head, body }
    }

    /// Number of body literals.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// The largest variable id used, plus one (for allocating fresh vars).
    pub fn num_vars(&self) -> u32 {
        let mut max = 0u32;
        for v in self
            .head
            .vars()
            .chain(self.body.iter().flat_map(|l| l.vars()))
        {
            max = max.max(v.0 + 1);
        }
        max
    }

    /// Indices of body literals that are *head-connected*: connected to a
    /// head variable through a chain of shared variables (paper §4.2.1).
    ///
    /// Literals with no variables at all (fully ground) are treated as
    /// connected — they constrain the clause globally.
    ///
    /// One worklist pass over a variable → literal index: each variable
    /// reached from the head is expanded once, each literal included once.
    pub fn head_connected_indices(&self) -> Vec<usize> {
        let num_vars = self.num_vars() as usize;
        // Var → literals, CSR (a literal repeating a var is listed twice;
        // the `included` check makes the repeat a no-op).
        let mut off = vec![0u32; num_vars + 1];
        for v in self.body.iter().flat_map(Literal::vars) {
            off[v.index() + 1] += 1;
        }
        for v in 0..num_vars {
            off[v + 1] += off[v];
        }
        let mut flat = vec![0u32; off[num_vars] as usize];
        let mut cursor: Vec<u32> = off[..num_vars].to_vec();
        for (li, lit) in self.body.iter().enumerate() {
            for v in lit.vars() {
                flat[cursor[v.index()] as usize] = li as u32;
                cursor[v.index()] += 1;
            }
        }
        let mut included: Vec<bool> = self
            .body
            .iter()
            .map(|l| l.vars().next().is_none())
            .collect();
        let mut reached = vec![false; num_vars];
        let mut work: Vec<VarId> = Vec::new();
        for v in self.head.vars() {
            if !reached[v.index()] {
                reached[v.index()] = true;
                work.push(v);
            }
        }
        while let Some(v) = work.pop() {
            for &li in &flat[off[v.index()] as usize..off[v.index() + 1] as usize] {
                if included[li as usize] {
                    continue;
                }
                included[li as usize] = true;
                for w in self.body[li as usize].vars() {
                    if !reached[w.index()] {
                        reached[w.index()] = true;
                        work.push(w);
                    }
                }
            }
        }
        (0..self.body.len()).filter(|&i| included[i]).collect()
    }

    /// Partitions body literal indices into connected components, where two
    /// literals are linked when they share a variable *not* bound by the
    /// head. Head variables are bound before body evaluation starts, so
    /// literals touching only through a head variable are independent
    /// semi-join subproblems: each component can be witnessed (or refuted)
    /// on its own, with no backtracking across components. Components are
    /// ordered by their smallest literal index; ground literals (and ones
    /// using only head variables) form singleton components.
    pub fn connected_body_components(&self) -> Vec<Vec<usize>> {
        let head_vars: FxHashSet<VarId> = self.head.vars().collect();
        let n = self.body.len();
        // Union-find over body indices, linked via shared non-head vars.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut owner: FxHashMap<VarId, usize> = FxHashMap::default();
        for (i, lit) in self.body.iter().enumerate() {
            for v in lit.vars().filter(|v| !head_vars.contains(v)) {
                match owner.get(&v) {
                    Some(&j) => {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                        parent[ri.max(rj)] = ri.min(rj);
                    }
                    None => {
                        owner.insert(v, i);
                    }
                }
            }
        }
        let mut components: Vec<Vec<usize>> = Vec::new();
        let mut root_to_comp: FxHashMap<usize, usize> = FxHashMap::default();
        for i in 0..n {
            let r = find(&mut parent, i);
            let c = *root_to_comp.entry(r).or_insert_with(|| {
                components.push(Vec::new());
                components.len() - 1
            });
            components[c].push(i);
        }
        components
    }

    /// Removes body literals that are not head-connected, preserving order.
    /// Returns the number of literals dropped.
    pub fn prune_unconnected(&mut self) -> usize {
        let keep = self.head_connected_indices();
        let dropped = self.body.len() - keep.len();
        self.keep_body(&keep);
        dropped
    }

    /// Keeps only the body literals at the ascending indices `keep`,
    /// preserving their order.
    pub(crate) fn keep_body(&mut self, keep: &[usize]) {
        if keep.len() == self.body.len() {
            return;
        }
        let mut next = keep.iter().copied().peekable();
        let mut i = 0usize;
        self.body.retain(|_| {
            let kept = next.next_if_eq(&i).is_some();
            i += 1;
            kept
        });
    }

    /// Renders the clause in the paper's notation.
    pub fn render(&self, db: &Database) -> String {
        self.render_with(db, &|c| db.const_name(c).to_string())
    }

    /// [`Clause::render`] with constant names from `const_name`, as
    /// [`Literal::render_with`].
    pub fn render_with(&self, db: &Database, const_name: &dyn Fn(Const) -> String) -> String {
        let head = self.head.render_with(db, const_name);
        if self.body.is_empty() {
            return format!("{head} ← true");
        }
        let body: Vec<String> = self
            .body
            .iter()
            .map(|l| l.render_with(db, const_name))
            .collect();
        format!("{head} ← {}", body.join(", "))
    }

    /// Renumbers variables densely (head vars first, then body order) so two
    /// syntactically identical clauses compare equal after independent
    /// construction histories.
    pub fn canonicalize_vars(&mut self) {
        let mut map: FxHashMap<VarId, VarId> = FxHashMap::default();
        let mut next = 0u32;
        let mut renumber = |t: &mut Term, map: &mut FxHashMap<VarId, VarId>| {
            if let Term::Var(v) = t {
                let nv = *map.entry(*v).or_insert_with(|| {
                    let nv = VarId(next);
                    next += 1;
                    nv
                });
                *t = Term::Var(nv);
            }
        };
        for t in self.head.args.iter_mut() {
            renumber(t, &mut map);
        }
        for lit in &mut self.body {
            for t in lit.args.iter_mut() {
                renumber(t, &mut map);
            }
        }
    }
}

/// A Horn definition: a set of clauses sharing a head relation
/// (paper Definition 2.2). Covers an example when any clause does.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Definition {
    /// The learned clauses, in the order the covering loop accepted them.
    pub clauses: Vec<Clause>,
}

impl Definition {
    /// Creates an empty definition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the definition has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Total body literals across clauses.
    pub fn total_literals(&self) -> usize {
        self.clauses.iter().map(Clause::len).sum()
    }

    /// Renders all clauses, one per line.
    pub fn render(&self, db: &Database) -> String {
        self.clauses
            .iter()
            .map(|c| c.render(db))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> Term {
        Term::Var(VarId(n))
    }

    #[test]
    fn head_connected_basic() {
        // head(x,y) ← r(x,z), s(z), t(w)   — t(w) is disconnected.
        let r = RelId(0);
        let s = RelId(1);
        let t = RelId(2);
        let h = RelId(3);
        let clause = Clause::new(
            Literal::new(h, vec![v(0), v(1)]),
            vec![
                Literal::new(r, vec![v(0), v(2)]),
                Literal::new(s, vec![v(2)]),
                Literal::new(t, vec![v(3)]),
            ],
        );
        assert_eq!(clause.head_connected_indices(), vec![0, 1]);
    }

    #[test]
    fn connection_through_chains() {
        // head(x) ← a(x,z), b(z,w), c(w)   — all connected transitively.
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(1), vec![v(2), v(3)]),
                Literal::new(RelId(2), vec![v(3)]),
            ],
        );
        assert_eq!(clause.head_connected_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn order_of_discovery_does_not_matter() {
        // head(x) ← c(w), b(z,w), a(x,z) — connectivity found right-to-left.
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0)]),
            vec![
                Literal::new(RelId(2), vec![v(3)]),
                Literal::new(RelId(1), vec![v(2), v(3)]),
                Literal::new(RelId(0), vec![v(0), v(2)]),
            ],
        );
        assert_eq!(clause.head_connected_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn prune_unconnected_removes_and_counts() {
        let mut clause = Clause::new(
            Literal::new(RelId(9), vec![v(0)]),
            vec![
                Literal::new(RelId(0), vec![v(0)]),
                Literal::new(RelId(1), vec![v(5)]),
            ],
        );
        assert_eq!(clause.prune_unconnected(), 1);
        assert_eq!(clause.len(), 1);
        assert_eq!(clause.body[0].rel, RelId(0));
    }

    #[test]
    fn ground_literals_count_as_connected() {
        let mut clause = Clause::new(
            Literal::new(RelId(9), vec![v(0)]),
            vec![Literal::new(RelId(0), vec![Term::Const(Const(7))])],
        );
        assert_eq!(clause.prune_unconnected(), 0);
    }

    #[test]
    fn components_split_on_non_head_vars_only() {
        // head(x,y) ← r(x,z), s(z), r(y,w), t(w), u(x)
        // {r(x,z), s(z)} share z; {r(y,w), t(w)} share w; u(x) touches only
        // a head var, so it is its own component.
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(1), vec![v(2)]),
                Literal::new(RelId(0), vec![v(1), v(3)]),
                Literal::new(RelId(2), vec![v(3)]),
                Literal::new(RelId(3), vec![v(0)]),
            ],
        );
        assert_eq!(
            clause.connected_body_components(),
            vec![vec![0, 1], vec![2, 3], vec![4]]
        );
        // Ground literal: singleton component.
        let ground = Clause::new(
            Literal::new(RelId(9), vec![v(0)]),
            vec![Literal::new(RelId(0), vec![Term::Const(Const(7))])],
        );
        assert_eq!(ground.connected_body_components(), vec![vec![0]]);
        // Empty body: no components.
        let empty = Clause::new(Literal::new(RelId(9), vec![v(0)]), vec![]);
        assert!(empty.connected_body_components().is_empty());
    }

    #[test]
    fn canonicalize_maps_identical_structures_together() {
        let mut a = Clause::new(
            Literal::new(RelId(9), vec![v(3)]),
            vec![Literal::new(RelId(0), vec![v(3), v(7)])],
        );
        let mut b = Clause::new(
            Literal::new(RelId(9), vec![v(1)]),
            vec![Literal::new(RelId(0), vec![v(1), v(4)])],
        );
        a.canonicalize_vars();
        b.canonicalize_vars();
        assert_eq!(a, b);
    }

    #[test]
    fn render_uses_paper_notation() {
        let mut db = Database::new();
        let stud = db.add_relation("student", &["stud"]);
        let adv = db.add_relation("advisedBy", &["stud", "prof"]);
        let clause = Clause::new(
            Literal::new(adv, vec![v(0), v(1)]),
            vec![Literal::new(stud, vec![v(0)])],
        );
        assert_eq!(clause.render(&db), "advisedBy(x, y) ← student(x)");
    }

    /// Reference head-connectivity as a fixpoint: sweep the body until no
    /// literal joins the connected set.
    fn head_connected_fixpoint(clause: &Clause) -> Vec<usize> {
        let mut connected_vars: FxHashSet<VarId> = clause.head.vars().collect();
        let mut included = vec![false; clause.body.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for (i, lit) in clause.body.iter().enumerate() {
                if included[i] {
                    continue;
                }
                let lit_vars: Vec<VarId> = lit.vars().collect();
                if lit_vars.is_empty() || lit_vars.iter().any(|v| connected_vars.contains(v)) {
                    included[i] = true;
                    changed = true;
                    connected_vars.extend(lit_vars);
                }
            }
        }
        (0..clause.body.len()).filter(|&i| included[i]).collect()
    }

    /// Term code below 8 is a variable id, otherwise a constant.
    fn term_of(code: u32) -> Term {
        if code < 8 {
            v(code)
        } else {
            Term::Const(Const(code))
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The worklist pass returns the same index set as the fixpoint, on
        /// random clauses with repeated variables, constants, ground
        /// literals, and head constants.
        #[test]
        fn head_connected_worklist_matches_fixpoint(
            head in proptest::collection::vec(0u32..10, 0..4),
            body in proptest::collection::vec(proptest::collection::vec(0u32..10, 0..4), 0..12),
        ) {
            let clause = Clause::new(
                Literal::new(RelId(9), head.into_iter().map(term_of).collect::<Vec<_>>()),
                body.into_iter()
                    .enumerate()
                    .map(|(i, args)| {
                        Literal::new(RelId(i as u32 % 3), args.into_iter().map(term_of).collect::<Vec<_>>())
                    })
                    .collect(),
            );
            proptest::prop_assert_eq!(
                clause.head_connected_indices(),
                head_connected_fixpoint(&clause)
            );
        }
    }

    #[test]
    fn keep_body_keeps_listed_literals_in_order() {
        let lit = |r| Literal::new(RelId(r), vec![v(0)]);
        let mut clause = Clause::new(lit(9), (0..5).map(lit).collect());
        clause.keep_body(&[0, 2, 3]);
        assert_eq!(clause.body, vec![lit(0), lit(2), lit(3)]);
        clause.keep_body(&[0, 1, 2]);
        assert_eq!(clause.len(), 3);
        clause.keep_body(&[]);
        assert!(clause.is_empty());
    }

    #[test]
    fn num_vars_counts_max() {
        let clause = Clause::new(Literal::new(RelId(0), vec![v(0), v(4)]), vec![]);
        assert_eq!(clause.num_vars(), 5);
    }
}
