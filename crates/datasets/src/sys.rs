//! SYS-like dataset (paper §6.1): file-access events of server processes,
//! provided by a private software company. A **single relation** of events
//! with the `malicious(proc)` target, and far more negatives than positives
//! ("due to the rarity of malicious activities").
//!
//! The single-relation structure is what makes SYS interesting in Table 6:
//! with no joins to explore, naïve sampling beats random and stratified
//! sampling — there is no relational structure for them to exploit, only
//! overhead.
//!
//! Ground truth: a process is malicious iff it *executes* a file in a temp
//! directory **and** writes to a system directory.

use crate::gen_util::{insert_positives, negatives};
use crate::Dataset;
use autobias::example::Example;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use relstore::{Const, FxHashSet};

/// SYS generator parameters.
#[derive(Debug, Clone)]
pub struct SysConfig {
    /// Number of processes.
    pub processes: usize,
    /// Events per process (mean).
    pub events_per_process: usize,
    /// Number of malicious processes.
    pub malicious: usize,
    /// Negative examples (the paper's ratio is 150 : 2000).
    pub negatives: usize,
}

impl Default for SysConfig {
    fn default() -> Self {
        Self {
            processes: 2_000,
            events_per_process: 25,
            malicious: 60,
            negatives: 800,
        }
    }
}

/// Expert bias for SYS (the paper reports 9 definitions; the single relation
/// keeps it small, which matches its description).
const MANUAL_BIAS: &str = "\
pred access(TP, TF, TO, TD)
pred malicious(TP)
mode access(+, -, #, #)
mode access(+, -, #, -)
mode access(+, -, -, #)
";

const OPS: &[&str] = &["read", "write", "exec", "delete", "stat"];
const DIRS: &[&str] = &["home", "app", "var", "etc", "tmp", "sys"];

/// Generates the SYS dataset.
pub fn generate(cfg: &SysConfig, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x575);
    let mut db = relstore::Database::new();
    let access = db.add_relation("access", &["proc", "file", "op", "dir"]);
    let target = db.add_relation("malicious", &["proc"]);

    let mut mal_ids = Vec::new();
    let mut benign_ids = Vec::new();

    for pi in 0..cfg.processes {
        let p = format!("proc{pi}");
        let is_mal = pi < cfg.malicious;
        let n_events = rng
            .random_range(cfg.events_per_process / 2..cfg.events_per_process * 3 / 2)
            .max(3);
        for ei in 0..n_events {
            let f = format!("file{}_{}", pi % 97, ei % 31); // shared file pool
            let (op, dir) = loop {
                let op = OPS[rng.random_range(0..OPS.len())];
                let dir = DIRS[rng.random_range(0..DIRS.len())];
                // Benign processes never show *either half* of the malicious
                // signature in full: they may exec (not from tmp) and write
                // (not to sys).
                if !is_mal && ((op == "exec" && dir == "tmp") || (op == "write" && dir == "sys")) {
                    continue;
                }
                break (op, dir);
            };
            db.insert(access, &[&p, &f, op, dir]);
        }
        if is_mal {
            // Plant the signature: exec from tmp + write to sys.
            db.insert(access, &[&p, &format!("payload{pi}"), "exec", "tmp"]);
            db.insert(access, &[&p, &format!("regfile{pi}"), "write", "sys"]);
            mal_ids.push(db.lookup(&p).expect("process interned above"));
        } else {
            benign_ids.push(db.lookup(&p).expect("process interned above"));
        }
    }

    let mut pos: Vec<Example> = mal_ids
        .iter()
        .map(|&p| Example::new(target, vec![p]))
        .collect();
    use rand::seq::SliceRandom;
    pos.shuffle(&mut rng);

    let truth: FxHashSet<Vec<Const>> = mal_ids.iter().map(|&p| vec![p]).collect();
    insert_positives(&mut db, target, &pos);
    let neg = negatives(&mut rng, target, &truth, cfg.negatives, |rng| {
        vec![benign_ids[rng.random_range(0..benign_ids.len())]]
    });

    Dataset {
        name: "SYS",
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
    fn shape_and_imbalance() {
        let d = generate(&SysConfig::default(), 1);
        assert_eq!(d.db.catalog().len(), 2); // single relation + target
        assert_eq!(d.pos.len(), 60);
        assert_eq!(d.neg.len(), 800);
        assert!(
            d.neg.len() > 10 * d.pos.len() / 2,
            "heavy imbalance preserved"
        );
        assert!(d.db.total_tuples() > 30_000);
    }

    #[test]
    fn signature_separates_classes() {
        let d = generate(&SysConfig::default(), 2);
        let access = d.db.rel_id("access").unwrap();
        let exec = d.db.lookup("exec").unwrap();
        let write = d.db.lookup("write").unwrap();
        let tmp = d.db.lookup("tmp").unwrap();
        let sys = d.db.lookup("sys").unwrap();
        let has_sig = |p: Const| {
            let r = d.db.relation(access);
            let e = r
                .iter()
                .any(|(_, t)| t[0] == p && t[2] == exec && t[3] == tmp);
            let w = r
                .iter()
                .any(|(_, t)| t[0] == p && t[2] == write && t[3] == sys);
            e && w
        };
        for e in &d.pos {
            assert!(has_sig(e.args[0]));
        }
        for e in &d.neg {
            assert!(!has_sig(e.args[0]));
        }
    }

    #[test]
    fn manual_bias_parses() {
        let d = generate(
            &SysConfig {
                processes: 100,
                malicious: 10,
                negatives: 40,
                ..SysConfig::default()
            },
            1,
        );
        assert!(d.manual_bias().is_ok());
    }
}
