//! Pins the exact output of `canon::canonical_form_status` — the form *and*
//! its completeness flag — over a fixed-seed set of clauses.
//!
//! The beam's dedup, the scoring entry points and the subsumption search see
//! the canonical form, and the search's answer under a node budget depends
//! on literal order. So any change to canonicalization that is meant to be
//! a pure speedup must reproduce every form bit for bit, including the
//! incomplete forms the individualization trial cap cuts off (whose literal
//! order depends on input order). This test records one FNV-1a hash of all
//! outputs; a rewrite of `canon.rs` must leave it unchanged.

use autobias::canon::canonical_form_status;
use autobias::clause::{Clause, Literal, Term, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relstore::{Const, RelId};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn mix(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn literal(&mut self, l: &Literal) {
        self.mix(u64::from(l.rel.0));
        self.mix(l.args.len() as u64);
        for t in &l.args {
            match *t {
                Term::Var(v) => {
                    self.mix(1);
                    self.mix(u64::from(v.0));
                }
                Term::Const(c) => {
                    self.mix(2);
                    self.mix(u64::from(c.0));
                }
            }
        }
    }

    fn clause(&mut self, c: &Clause, complete: bool) {
        self.literal(&c.head);
        self.mix(c.body.len() as u64);
        for l in &c.body {
            self.literal(l);
        }
        self.mix(u64::from(complete));
    }
}

fn v(n: u32) -> Term {
    Term::Var(VarId(n))
}

/// A random head-anchored clause: `t(x, y)` and 1–12 body literals over
/// four relations of arity 1–3, whose arguments are drawn from a small
/// variable pool (so variables recur) or, rarely, from three constants.
fn random_clause(rng: &mut StdRng) -> Clause {
    let pool = rng.random_range(2..8u32);
    let body = (0..rng.random_range(1..=12usize))
        .map(|_| {
            let rel = rng.random_range(0..4u32);
            let args: Vec<Term> = (0..=rel % 3)
                .map(|_| {
                    if rng.random_range(0..8u32) == 0 {
                        Term::Const(Const(100 + rng.random_range(0..3u32)))
                    } else {
                        v(rng.random_range(0..pool))
                    }
                })
                .collect();
            Literal::new(RelId(rel), args)
        })
        .collect();
    Clause::new(Literal::new(RelId(9), vec![v(0), v(1)]), body)
}

/// One to three groups of 2–15 symmetric sibling gadgets `r(z_i, a)`, each
/// optionally joined by `r(z_i, k)` or `u(z_i)`: large tied classes, enough
/// to exhaust the 64-trial individualization cap.
fn sibling_groups(rng: &mut StdRng, mut clause: Clause) -> Clause {
    let mut next = clause.num_vars().max(2);
    for _ in 0..rng.random_range(1..=3usize) {
        let anchor = v(rng.random_range(0..next));
        let rel = RelId(rng.random_range(0..2u32));
        let extra = rng.random_range(0..3u32);
        let k = Term::Const(Const(100 + rng.random_range(0..3u32)));
        for _ in 0..rng.random_range(2..16usize) {
            let z = v(next);
            next += 1;
            clause.body.push(Literal::new(rel, vec![z, anchor]));
            match extra {
                0 => clause.body.push(Literal::new(rel, vec![z, k])),
                1 => clause.body.push(Literal::new(RelId(2), vec![z])),
                _ => {}
            }
        }
    }
    clause
}

/// Every variable id `n` becomes `3n + 5`, head included.
fn gapped(c: &Clause) -> Clause {
    let gap = |l: &Literal| {
        let args: Vec<Term> = l
            .args
            .iter()
            .map(|t| match *t {
                Term::Var(x) => v(3 * x.0 + 5),
                k => k,
            })
            .collect();
        Literal::new(l.rel, args)
    };
    Clause::new(gap(&c.head), c.body.iter().map(gap).collect())
}

fn shuffled(rng: &mut StdRng, mut c: Clause) -> Clause {
    for i in (1..c.body.len()).rev() {
        c.body.swap(i, rng.random_range(0..=i));
    }
    c
}

/// The 20-literal reproduction of the trial cap's limit (see the `canon`
/// unit test `truncated_individualization_is_incomplete_and_not_a_fixpoint`).
fn reproduction() -> Clause {
    let order = [
        (9, false),
        (3, false),
        (4, true),
        (5, true),
        (12, false),
        (6, true),
        (13, false),
        (7, false),
        (8, false),
        (14, false),
        (3, true),
        (5, false),
        (10, false),
        (6, false),
        (2, true),
        (15, false),
        (16, false),
        (11, false),
        (4, false),
        (2, false),
    ];
    let body = order
        .iter()
        .map(|&(a, to_k)| {
            let second = if to_k { Term::Const(Const(102)) } else { v(0) };
            Literal::new(RelId(0), vec![v(a), second])
        })
        .collect();
    Clause::new(Literal::new(RelId(9), vec![v(0), v(1)]), body)
}

/// The fixed clause set: the reproduction and its canonical form, then per
/// seed step a random clause, its gapped copy, and a sibling-group copy,
/// each with a shuffled body.
fn clause_set() -> Vec<Clause> {
    let mut rng = StdRng::seed_from_u64(0x00c0_ffee);
    let repro = reproduction();
    let mut out = vec![repro.clone(), canonical_form_status(&repro).0];
    for _ in 0..300 {
        let base = random_clause(&mut rng);
        let groups = sibling_groups(&mut rng, base.clone());
        out.push(shuffled(&mut rng, gapped(&base)));
        out.push(shuffled(&mut rng, groups));
        out.push(base);
    }
    out
}

#[test]
fn canonical_forms_are_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut incomplete, mut complete) = (0usize, 0usize);
    for c in clause_set() {
        let (form, done) = canonical_form_status(&c);
        h.clause(&form, done);
        if done {
            complete += 1;
        } else {
            incomplete += 1;
        }
    }
    // The set must reach both sides of the trial cap to pin either.
    assert!(incomplete >= 50, "only {incomplete} incomplete forms");
    assert!(complete >= 300, "only {complete} complete forms");
    assert_eq!(
        format!("{:016x}", h.0),
        "5ff23614e6e4c1b8",
        "canonical forms changed ({complete} complete, {incomplete} incomplete)"
    );
}
