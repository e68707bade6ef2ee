//! UW-CSE-like dataset (paper §1, Table 2): a computer-science department
//! with the paper's exact 9-relation schema and the `advisedBy(stud, prof)`
//! target. At the default scale it matches the paper's published size
//! (~1.8K tuples, ~102 positive and ~204 negative examples).
//!
//! Ground truth: a student is advised by a professor iff they co-author a
//! publication **or** the student TAs a course the professor teaches in the
//! same term. Noise co-authorships and TAships between non-advised pairs
//! keep precision below 1, as in the real data.

use crate::gen_util::{insert_positives, negatives, pick};
use crate::Dataset;
use autobias::example::Example;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use relstore::{Const, FxHashSet};

/// UW generator parameters.
#[derive(Debug, Clone)]
pub struct UwConfig {
    /// Number of students.
    pub students: usize,
    /// Number of professors.
    pub professors: usize,
    /// Number of courses.
    pub courses: usize,
    /// Advised pairs (positive examples).
    pub advised_pairs: usize,
    /// Negative examples (the paper uses 2× the positives).
    pub negatives: usize,
    /// Probability that an advised pair is linked by co-authorship
    /// (otherwise by TAship).
    pub coauthor_prob: f64,
    /// Probability that an advised pair has *any* evidence at all. The real
    /// UW-CSE data is noisy (the paper's best F-measure on it is 0.68);
    /// unexplained advisorships cap attainable recall.
    pub evidence_prob: f64,
    /// Noise publications between random non-advised people.
    pub noise_publications: usize,
    /// Non-advised student–professor pairs that nonetheless co-author a
    /// paper (committee members, external collaborators). They are
    /// preferentially drawn into the negative examples, capping the
    /// precision of the plain co-authorship rule slightly below 1 — the
    /// paper's UW row is high-precision (0.93), low-recall (0.54).
    pub noise_coauthor_pairs: usize,
    /// Average sole-author publications per professor (papers with external
    /// collaborators, tech reports — no student in the department on them).
    /// They carry no co-authorship signal, so ground truth and rule quality
    /// are untouched; what they change is *degree*: the professor side of
    /// the `publication` index becomes orders of magnitude heavier than the
    /// student side, as in real bibliographies. Serving-oriented profiles
    /// set this high to expose how evaluation engines treat the unselective
    /// side of a join.
    pub faculty_publications: usize,
}

impl Default for UwConfig {
    fn default() -> Self {
        Self {
            students: 150,
            professors: 45,
            courses: 60,
            advised_pairs: 102,
            negatives: 204,
            coauthor_prob: 0.75,
            evidence_prob: 0.6,
            noise_publications: 60,
            noise_coauthor_pairs: 8,
            faculty_publications: 0,
        }
    }
}

/// Serving-benchmark profile: same schema and ground truth, but at the
/// density serving workloads actually see. The default config is calibrated
/// to the paper's *learning* experiments (~1.8K tuples), which leaves every
/// person with one or two publications — far thinner than the real UW-CSE
/// data, where faculty carry dozens of papers each. Predict-time evaluation
/// cost is dominated by posting-list lengths, so the serve profile scales
/// the population up and makes professors publication-heavy: evaluation
/// engines then differ by how they treat the *unselective* side of the
/// co-authorship join, which is exactly what `bench_serve` measures.
pub fn serve_profile() -> UwConfig {
    UwConfig {
        students: 300,
        professors: 30,
        courses: 80,
        advised_pairs: 600,
        negatives: 1200,
        coauthor_prob: 0.75,
        evidence_prob: 0.8,
        noise_publications: 1500,
        noise_coauthor_pairs: 40,
        faculty_publications: 700,
    }
}

/// The expert-written bias for UW (an expanded Table 3: 19 definitions, the
/// count the paper reports for the UW expert bias).
const MANUAL_BIAS: &str = "\
pred student(T1)
pred professor(T3)
pred inPhase(T1, T2)
pred hasPosition(T3, T4)
pred yearsInProgram(T1, T7)
pred taughtBy(T6, T3, T8)
pred courseLevel(T6, T9)
pred ta(T6, T1, T8)
pred publication(T5, T1)
pred publication(T5, T3)
pred advisedBy(T1, T3)
mode student(+)
mode professor(+)
mode inPhase(+, #)
mode hasPosition(+, #)
mode taughtBy(+, +, -)
mode taughtBy(-, +, -)
mode ta(+, +, -)
mode ta(-, +, -)
mode publication(-, +)
";

/// Generates the UW dataset.
pub fn generate(cfg: &UwConfig, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5577);
    let mut db = relstore::Database::new();
    let student = db.add_relation("student", &["stud"]);
    let professor = db.add_relation("professor", &["prof"]);
    let in_phase = db.add_relation("inPhase", &["stud", "phase"]);
    let has_position = db.add_relation("hasPosition", &["prof", "position"]);
    let years = db.add_relation("yearsInProgram", &["stud", "years"]);
    let taught_by = db.add_relation("taughtBy", &["course", "prof", "term"]);
    let course_level = db.add_relation("courseLevel", &["course", "level"]);
    let ta = db.add_relation("ta", &["course", "stud", "term"]);
    let publication = db.add_relation("publication", &["title", "person"]);
    let target = db.add_relation("advisedBy", &["stud", "prof"]);

    let phases = ["pre_quals", "post_quals", "post_generals"];
    let positions = ["assistant_prof", "associate_prof", "full_prof"];
    let levels = ["level_300", "level_400", "level_500"];
    let terms: Vec<String> = (0..8).map(|i| format!("term{i}")).collect();

    // Entities.
    let studs: Vec<Const> = (0..cfg.students)
        .map(|i| {
            let name = format!("s{i}");
            db.insert(student, &[&name]);
            db.lookup(&name).expect("entity interned above")
        })
        .collect();
    let profs: Vec<Const> = (0..cfg.professors)
        .map(|i| {
            let name = format!("prof{i}");
            db.insert(professor, &[&name]);
            db.lookup(&name).expect("entity interned above")
        })
        .collect();
    let courses: Vec<String> = (0..cfg.courses).map(|i| format!("course{i}")).collect();

    // Attributes of entities.
    for (i, &s) in studs.iter().enumerate() {
        let sname = format!("s{i}");
        db.insert(
            in_phase,
            &[&sname, phases[rng.random_range(0..phases.len())]],
        );
        db.insert(years, &[&sname, &format!("year{}", rng.random_range(1..7))]);
        let _ = s;
    }
    for (i, _) in profs.iter().enumerate() {
        let pname = format!("prof{i}");
        db.insert(
            has_position,
            &[&pname, positions[rng.random_range(0..positions.len())]],
        );
    }
    // Courses: level + taught by 1-2 professors in random terms.
    let mut teaches: Vec<(usize, usize, usize)> = Vec::new(); // (course, prof, term)
    for (ci, c) in courses.iter().enumerate() {
        db.insert(
            course_level,
            &[c, levels[rng.random_range(0..levels.len())]],
        );
        for _ in 0..rng.random_range(1..3) {
            let pi = rng.random_range(0..cfg.professors);
            let ti = rng.random_range(0..terms.len());
            db.insert(taught_by, &[c, &format!("prof{pi}"), &terms[ti]]);
            teaches.push((ci, pi, ti));
        }
    }

    // Advised pairs and their evidence.
    let mut truth: FxHashSet<Vec<Const>> = FxHashSet::default();
    let mut pos = Vec::new();
    let mut pub_id = 0usize;
    for k in 0..cfg.advised_pairs {
        let si = k % cfg.students;
        let pi = rng.random_range(0..cfg.professors);
        let s = studs[si];
        let p = profs[pi];
        if !truth.insert(vec![s, p]) {
            continue;
        }
        pos.push(Example::new(target, vec![s, p]));
        if rng.random_range(0.0..1.0) >= cfg.evidence_prob {
            continue; // unexplained advisorship: no relational trace at all
        }
        if rng.random_range(0.0..1.0) < cfg.coauthor_prob {
            // Co-authorship evidence: 1-2 joint papers.
            for _ in 0..rng.random_range(1..3) {
                let t = format!("paper{pub_id}");
                pub_id += 1;
                db.insert(publication, &[&t, &format!("s{si}")]);
                db.insert(publication, &[&t, &format!("prof{pi}")]);
            }
        } else {
            // TAship evidence: the student TAs a course the professor
            // teaches, in the same term.
            let (ci, _, ti) = *pick(&mut rng, &teaches);
            db.insert(ta, &[&courses[ci], &format!("s{si}"), &terms[ti]]);
            db.insert(taught_by, &[&courses[ci], &format!("prof{pi}"), &terms[ti]]);
        }
    }

    // Noise: publications among random people (solo or student-student),
    // and TAships without the advising link.
    for _ in 0..cfg.noise_publications {
        let t = format!("noise_paper{pub_id}");
        pub_id += 1;
        let author = if rng.random_range(0.0..1.0) < 0.7 {
            format!("s{}", rng.random_range(0..cfg.students))
        } else {
            format!("prof{}", rng.random_range(0..cfg.professors))
        };
        db.insert(publication, &[&t, &author]);
    }
    for _ in 0..cfg.courses / 2 {
        let (ci, _, ti) = *pick(&mut rng, &teaches);
        let si = rng.random_range(0..cfg.students);
        db.insert(ta, &[&courses[ci], &format!("s{si}"), &terms[ti]]);
    }

    // Committee-style noise: co-authored papers between pairs that are NOT
    // advised. Collected so the negative sampler can include them.
    let mut noise_pairs: Vec<(usize, usize)> = Vec::new();
    for _ in 0..cfg.noise_coauthor_pairs {
        let si = rng.random_range(0..cfg.students);
        let pi = rng.random_range(0..cfg.professors);
        if truth.contains(&vec![studs[si], profs[pi]]) {
            continue;
        }
        let t = format!("joint_paper{pub_id}");
        pub_id += 1;
        db.insert(publication, &[&t, &format!("s{si}")]);
        db.insert(publication, &[&t, &format!("prof{pi}")]);
        noise_pairs.push((si, pi));
    }

    insert_positives(&mut db, target, &pos);
    // Half the negatives (where available) are the adversarial co-author
    // pairs; the rest are random non-advised pairs.
    let mut noise_cursor = 0usize;
    let neg = negatives(&mut rng, target, &truth, cfg.negatives, |rng| {
        if noise_cursor < noise_pairs.len() && rng.random_range(0..4) == 0 {
            let (si, pi) = noise_pairs[noise_cursor];
            noise_cursor += 1;
            vec![studs[si], profs[pi]]
        } else {
            vec![
                studs[rng.random_range(0..studs.len())],
                profs[rng.random_range(0..profs.len())],
            ]
        }
    });

    // Faculty bibliographies: sole-author papers spread uniformly over the
    // professors. Single-author tuples cannot satisfy a co-authorship join,
    // so the examples' labels are unaffected — only the professor-side
    // posting lists grow. Drawn *after* example sampling so the same seed
    // yields identical pos/neg sets whatever this knob is set to.
    for _ in 0..cfg.faculty_publications * cfg.professors {
        let t = format!("solo_paper{pub_id}");
        pub_id += 1;
        let pi = rng.random_range(0..cfg.professors);
        db.insert(publication, &[&t, &format!("prof{pi}")]);
    }

    Dataset {
        name: "UW",
        db,
        target,
        pos,
        neg,
        manual_bias_text: MANUAL_BIAS.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_profile_is_dense_but_label_preserving() {
        let seed = 11;
        let dense = generate(&serve_profile(), seed);
        let thin_cfg = UwConfig {
            faculty_publications: 0,
            ..serve_profile()
        };
        let thin = generate(&thin_cfg, seed);
        // Same examples bit-for-bit: the bibliography knob only adds
        // sole-author tuples, after sampling.
        let render = |d: &Dataset, e: &Example| e.render(&d.db);
        assert_eq!(dense.pos.len(), thin.pos.len());
        assert_eq!(dense.neg.len(), thin.neg.len());
        for (a, b) in dense.pos.iter().zip(&thin.pos) {
            assert_eq!(render(&dense, a), render(&thin, b));
        }
        for (a, b) in dense.neg.iter().zip(&thin.neg) {
            assert_eq!(render(&dense, a), render(&thin, b));
        }
        // The professor side of the publication index is now orders of
        // magnitude heavier than the student side — the degree skew the
        // serving benchmark exercises.
        let publ = dense.db.rel_id("publication").unwrap();
        let rel = dense.db.relation(publ);
        let idx = rel.index(1);
        let prof0 = dense.db.lookup("prof0").unwrap();
        let s0 = dense.db.lookup("s0").unwrap();
        assert!(
            idx.freq(prof0) > 20 * idx.freq(s0).max(1),
            "prof degree {} should dwarf student degree {}",
            idx.freq(prof0),
            idx.freq(s0)
        );
    }

    #[test]
    fn default_scale_matches_paper() {
        let d = generate(&UwConfig::default(), 3);
        assert_eq!(d.db.catalog().len(), 10); // 9 schema relations + target
        assert_eq!(d.pos.len(), 102);
        assert_eq!(d.neg.len(), 204);
        // ~1.8K tuples like the paper (generous band: the exact count
        // depends on random teaching assignments).
        let tuples = d.db.total_tuples();
        assert!((900..3_000).contains(&tuples), "got {tuples}");
    }

    #[test]
    fn no_negative_is_a_positive() {
        let d = generate(&UwConfig::default(), 5);
        let truth: std::collections::HashSet<_> = d.pos.iter().map(|e| e.args.clone()).collect();
        for n in &d.neg {
            assert!(!truth.contains(&n.args));
        }
    }

    #[test]
    fn every_positive_has_evidence() {
        // With evidence_prob = 1 each advised pair must be connected by a
        // co-pub or a TA link.
        let d = generate(
            &UwConfig {
                evidence_prob: 1.0,
                noise_coauthor_pairs: 0,
                ..UwConfig::default()
            },
            9,
        );
        let publ = d.db.rel_id("publication").unwrap();
        let ta = d.db.rel_id("ta").unwrap();
        let taught = d.db.rel_id("taughtBy").unwrap();
        for e in &d.pos {
            let s = e.args[0];
            let p = e.args[1];
            let s_pubs: FxHashSet<Const> =
                d.db.relation(publ)
                    .iter()
                    .filter(|(_, t)| t[1] == s)
                    .map(|(_, t)| t[0])
                    .collect();
            let coauth =
                d.db.relation(publ)
                    .iter()
                    .any(|(_, t)| t[1] == p && s_pubs.contains(&t[0]));
            let s_tas: FxHashSet<(Const, Const)> =
                d.db.relation(ta)
                    .iter()
                    .filter(|(_, t)| t[1] == s)
                    .map(|(_, t)| (t[0], t[2]))
                    .collect();
            let taship =
                d.db.relation(taught)
                    .iter()
                    .any(|(_, t)| t[1] == p && s_tas.contains(&(t[0], t[2])));
            assert!(
                coauth || taship,
                "positive {} lacks evidence",
                e.render(&d.db)
            );
        }
    }

    #[test]
    fn manual_bias_parses_with_19_definitions() {
        let d = generate(&UwConfig::default(), 1);
        let bias = d.manual_bias().unwrap();
        assert_eq!(bias.size(), 20); // 11 preds + 9 modes (19 body defs + target pred)
    }
}
