//! The semi-join tree `G` of paper §4.2.4: an explicit plan of the semi-join
//! chains that bottom-clause construction walks.
//!
//! Each node is a relation *occurrence* (the same relation may appear under
//! several parents, once per usable mode edge); the root is the target
//! relation; an edge `n_R1 → n_R2` labeled `(A, B)` means `R1 ⋊_{A=B} R2`
//! can be sampled according to the mode and predicate definitions. BC
//! construction's BFS expansion visits exactly the relation occurrences of
//! this tree, so the tree doubles as an *a-priori reachability analysis*:
//! relations absent from the tree can never contribute a literal, no matter
//! the data.

use crate::bias::LanguageBias;
use relstore::{AttrRef, Database, RelId};

/// One node of the semi-join tree.
#[derive(Debug, Clone)]
pub struct SjNode {
    /// The relation this node samples from.
    pub rel: RelId,
    /// Depth below the root (root = 0).
    pub depth: usize,
    /// Edge label: parent attribute `A` and this relation's attribute `B`
    /// such that `parent ⋊_{A=B} rel`. `None` for the root.
    pub via: Option<(AttrRef, AttrRef)>,
    /// Index of the parent node (`None` for the root).
    pub parent: Option<usize>,
    /// Children node indices.
    pub children: Vec<usize>,
}

/// The semi-join tree for one target under one language bias.
#[derive(Debug, Clone)]
pub struct SemijoinTree {
    /// Nodes in BFS order; node 0 is the root (the target relation).
    pub nodes: Vec<SjNode>,
}

impl SemijoinTree {
    /// Builds the tree to `depth` levels below the root.
    ///
    /// A child `n_R2` is added under `n_R1` for every pair of join-compatible
    /// attributes `(A of R1, B of R2)` where `B` carries a `+` in some mode
    /// of `R2` and `A` may hold a variable (the BC construction hop
    /// condition). Multiple labels between the same relations create multiple
    /// child nodes, matching the paper ("R2 may be represented by multiple
    /// distinct nodes in G").
    pub fn build(db: &Database, bias: &LanguageBias, depth: usize) -> Self {
        // Probe points: every (rel, + position) from the body modes.
        let mut probes: Vec<AttrRef> = Vec::new();
        {
            let mut rels: Vec<RelId> = bias.body_rels().collect();
            rels.sort_unstable();
            let mut seen = relstore::FxHashSet::default();
            for rel in rels {
                for mode in bias.modes_for(rel) {
                    for j in mode.plus_positions() {
                        let attr = AttrRef::new(rel, j);
                        if seen.insert(attr) {
                            probes.push(attr);
                        }
                    }
                }
            }
        }

        let mut nodes = vec![SjNode {
            rel: bias.target,
            depth: 0,
            via: None,
            parent: None,
            children: Vec::new(),
        }];

        let mut frontier = vec![0usize];
        for d in 1..=depth {
            let mut next = Vec::new();
            for &ni in &frontier {
                let parent_rel = nodes[ni].rel;
                let parent_arity = db.catalog().schema(parent_rel).arity();
                for out_pos in 0..parent_arity {
                    let out_attr = AttrRef::new(parent_rel, out_pos);
                    // The hop leaves through a variable-capable attribute...
                    if !bias.can_be_var(out_attr) && nodes[ni].parent.is_some() {
                        continue;
                    }
                    for &probe in &probes {
                        // ...and enters through a type-compatible `+` attr.
                        if !bias.share_type(out_attr, probe) {
                            continue;
                        }
                        let id = nodes.len();
                        nodes.push(SjNode {
                            rel: probe.rel,
                            depth: d,
                            via: Some((out_attr, probe)),
                            parent: Some(ni),
                            children: Vec::new(),
                        });
                        nodes[ni].children.push(id);
                        next.push(id);
                    }
                }
            }
            frontier = next;
        }
        Self { nodes }
    }

    /// Relations reachable anywhere in the tree (those that can contribute
    /// literals to a bottom clause).
    pub fn reachable_rels(&self) -> Vec<RelId> {
        let mut rels: Vec<RelId> = self.nodes.iter().skip(1).map(|n| n.rel).collect();
        rels.sort_unstable();
        rels.dedup();
        rels
    }

    /// Number of semi-join chains (leaves at maximal depth plus truncated
    /// branches): the count of distinct `R1 ⋊ … ⋊ Rk` expressions the
    /// sampler may evaluate.
    pub fn num_chains(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.children.is_empty() && n.parent.is_some())
            .count()
    }

    /// Renders the tree with catalog names, one node per line, indented.
    pub fn render(&self, db: &Database) -> String {
        let mut out = String::new();
        self.render_node(db, 0, &mut out);
        out
    }

    fn render_node(&self, db: &Database, ni: usize, out: &mut String) {
        let node = &self.nodes[ni];
        let cat = db.catalog();
        for _ in 0..node.depth {
            out.push_str("  ");
        }
        match node.via {
            None => out.push_str(&format!("{} (target)\n", cat.schema(node.rel).name)),
            Some((a, b)) => out.push_str(&format!(
                "⋊ {} on ({}, {})\n",
                cat.schema(node.rel).name,
                cat.attr_name(a),
                cat.attr_name(b)
            )),
        }
        for &c in &node.children {
            self.render_node(db, c, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::parse::parse_bias;
    use relstore::fixtures::uw_fragment;

    fn setup() -> (Database, LanguageBias) {
        let mut db = uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        let bias = parse_bias(
            &db,
            target,
            "
pred student(T1)
pred inPhase(T1, T2)
pred professor(T3)
pred hasPosition(T3, T4)
pred publication(T5, T1)
pred publication(T5, T3)
pred advisedBy(T1, T3)
mode student(+)
mode inPhase(+, -)
mode professor(+)
mode hasPosition(+, -)
mode publication(-, +)
",
        )
        .unwrap();
        (db, bias)
    }

    #[test]
    fn depth_one_reaches_direct_joins() {
        let (db, bias) = setup();
        let tree = SemijoinTree::build(&db, &bias, 1);
        let reachable = tree.reachable_rels();
        // From advisedBy(stud: T1, prof: T3): student, inPhase, publication
        // (via T1 and T3), professor, hasPosition.
        for name in [
            "student",
            "inPhase",
            "professor",
            "hasPosition",
            "publication",
        ] {
            let rel = db.rel_id(name).unwrap();
            assert!(reachable.contains(&rel), "{name} unreachable at depth 1");
        }
    }

    #[test]
    fn unreachable_relation_is_absent() {
        // A relation with no mode is never in the tree.
        let (mut db, _) = setup();
        let orphan = db.add_relation("orphan", &["x"]);
        let target = db.rel_id("advisedBy").unwrap();
        let bias = parse_bias(
            &db,
            target,
            "
pred student(T1)
pred advisedBy(T1, T3)
pred orphan(T9)
mode student(+)
",
        )
        .unwrap();
        let tree = SemijoinTree::build(&db, &bias, 3);
        assert!(!tree.reachable_rels().contains(&orphan));
    }

    #[test]
    fn deeper_trees_have_more_chains() {
        let (db, bias) = setup();
        let t1 = SemijoinTree::build(&db, &bias, 1);
        let t2 = SemijoinTree::build(&db, &bias, 2);
        assert!(t2.nodes.len() > t1.nodes.len());
        assert!(t2.num_chains() >= t1.num_chains());
    }

    #[test]
    fn root_is_target_and_edges_are_labeled() {
        let (db, bias) = setup();
        let tree = SemijoinTree::build(&db, &bias, 2);
        assert_eq!(tree.nodes[0].rel, bias.target);
        assert!(tree.nodes[0].via.is_none());
        for n in &tree.nodes[1..] {
            let (a, b) = n.via.expect("non-root nodes carry a label");
            assert!(bias.share_type(a, b), "edge label must be join-compatible");
            assert_eq!(b.rel, n.rel);
        }
    }

    #[test]
    fn render_mentions_target_and_joins() {
        let (db, bias) = setup();
        let tree = SemijoinTree::build(&db, &bias, 1);
        let s = tree.render(&db);
        assert!(s.contains("advisedBy (target)"));
        assert!(s.contains("⋊ publication"));
    }

    /// Every relation that actually contributes literals to a (full) bottom
    /// clause is predicted reachable by the tree.
    #[test]
    fn tree_reachability_is_sound_for_bc_construction() {
        use crate::bottom::{build_bottom_clause, BcConfig, SamplingStrategy};
        use crate::example::Example;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (mut db, bias) = setup();
        let target = db.rel_id("advisedBy").unwrap();
        let juan = db.intern("juan");
        let sarita = db.intern("sarita");
        let tree = SemijoinTree::build(&db, &bias, 2);
        let reachable = tree.reachable_rels();
        let mut rng = StdRng::seed_from_u64(0);
        let bc = build_bottom_clause(
            &db,
            &bias,
            &Example::new(target, vec![juan, sarita]),
            &BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_tuples: 10_000,
                max_body_literals: 100_000,
            },
            &mut rng,
        );
        for (rel, _) in bc.ground.literals() {
            assert!(
                reachable.contains(&rel),
                "BC used relation {} the tree says is unreachable",
                db.catalog().schema(rel).name
            );
        }
    }
}
