//! IMDb-like dataset (paper §6.1): movies and the people who make them, with
//! the `dramaDirector(dir)` target.
//!
//! What the paper's IMDb contributes to the evaluation: a *wide* schema
//! (46 relations there; 12 here) where hand-writing bias is laborious (the
//! expert needed 112 definitions), and a target whose accurate definition
//! **requires a constant** — `dramaDirector(x) ← directedBy(m, x),
//! genre(m, drama)` — so "No const." fails on it (Table 5).

use crate::gen_util::{insert_positives, negatives};
use crate::Dataset;
use autobias::example::Example;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use relstore::{Const, FxHashSet};

/// IMDb generator parameters.
#[derive(Debug, Clone)]
pub struct ImdbConfig {
    /// Number of movies.
    pub movies: usize,
    /// Number of directors.
    pub directors: usize,
    /// Number of actors.
    pub actors: usize,
    /// Number of writers.
    pub writers: usize,
    /// Fraction of movies that are dramas.
    pub drama_fraction: f64,
    /// Positive examples (drama directors).
    pub positives: usize,
    /// Negative examples (directors with no drama).
    pub negatives: usize,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        Self {
            movies: 1500,
            directors: 400,
            actors: 900,
            writers: 250,
            drama_fraction: 0.35,
            positives: 150,
            negatives: 300,
        }
    }
}

const GENRES: &[&str] = &[
    "drama",
    "comedy",
    "action",
    "thriller",
    "documentary",
    "horror",
    "romance",
    "scifi",
];
const COUNTRIES: &[&str] = &["usa", "uk", "france", "india", "japan", "brazil"];
const LANGS: &[&str] = &["english", "french", "hindi", "japanese", "portuguese"];
const RATINGS: &[&str] = &["g", "pg", "pg13", "r"];

/// Expert bias for IMDb. The real one took 112 lines; this schema needs 27.
const MANUAL_BIAS: &str = "\
pred movie(TM)
pred director(TD)
pred actor(TA)
pred writer(TW)
pred directedBy(TM, TD)
pred castMember(TM, TA)
pred writtenBy(TM, TW)
pred genre(TM, TG)
pred releasedIn(TM, TY)
pred country(TM, TCO)
pred language(TM, TL)
pred rating(TM, TRA)
pred dramaDirector(TD)
mode movie(+)
mode director(+)
mode actor(+)
mode writer(+)
mode directedBy(+, -)
mode directedBy(-, +)
mode castMember(+, -)
mode castMember(-, +)
mode writtenBy(+, -)
mode writtenBy(-, +)
mode genre(+, #)
mode releasedIn(+, -)
mode country(+, #)
mode language(+, #)
mode rating(+, #)
";

/// Generates the IMDb dataset.
pub fn generate(cfg: &ImdbConfig, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x13db);
    let mut db = relstore::Database::new();
    let movie = db.add_relation("movie", &["mid"]);
    let director = db.add_relation("director", &["did"]);
    let actor = db.add_relation("actor", &["aid"]);
    let writer = db.add_relation("writer", &["wid"]);
    let directed_by = db.add_relation("directedBy", &["mid", "did"]);
    let cast_member = db.add_relation("castMember", &["mid", "aid"]);
    let written_by = db.add_relation("writtenBy", &["mid", "wid"]);
    let genre = db.add_relation("genre", &["mid", "genre"]);
    let released_in = db.add_relation("releasedIn", &["mid", "year"]);
    let country = db.add_relation("country", &["mid", "country"]);
    let language = db.add_relation("language", &["mid", "lang"]);
    let rating = db.add_relation("rating", &["mid", "rating"]);
    let target = db.add_relation("dramaDirector", &["did"]);

    for di in 0..cfg.directors {
        db.insert(director, &[&format!("d{di}")]);
    }
    for ai in 0..cfg.actors {
        db.insert(actor, &[&format!("act{ai}")]);
    }
    for wi in 0..cfg.writers {
        db.insert(writer, &[&format!("w{wi}")]);
    }

    // Split directors: the first `drama_directors` make dramas (among other
    // genres); the rest never do.
    let drama_directors = cfg.positives.min(cfg.directors / 2);
    let mut is_drama_director = vec![false; cfg.directors];

    for mi in 0..cfg.movies {
        let m = format!("m{mi}");
        db.insert(movie, &[&m]);
        // Drama movies are directed only by drama-pool directors.
        let is_drama = rng.random_range(0.0..1.0) < cfg.drama_fraction;
        let di = if is_drama {
            rng.random_range(0..drama_directors)
        } else {
            rng.random_range(0..cfg.directors)
        };
        db.insert(directed_by, &[&m, &format!("d{di}")]);
        let g = if is_drama {
            is_drama_director[di] = true;
            "drama"
        } else {
            GENRES[rng.random_range(1..GENRES.len())] // never drama
        };
        db.insert(genre, &[&m, g]);
        // Secondary genre sometimes (never drama for non-dramas).
        if rng.random_range(0.0..1.0) < 0.3 {
            db.insert(genre, &[&m, GENRES[rng.random_range(1..GENRES.len())]]);
        }
        for _ in 0..rng.random_range(2..5) {
            db.insert(
                cast_member,
                &[&m, &format!("act{}", rng.random_range(0..cfg.actors))],
            );
        }
        db.insert(
            written_by,
            &[&m, &format!("w{}", rng.random_range(0..cfg.writers))],
        );
        db.insert(
            released_in,
            &[&m, &format!("y{}", 1960 + rng.random_range(0..65))],
        );
        db.insert(
            country,
            &[&m, COUNTRIES[rng.random_range(0..COUNTRIES.len())]],
        );
        db.insert(language, &[&m, LANGS[rng.random_range(0..LANGS.len())]]);
        db.insert(rating, &[&m, RATINGS[rng.random_range(0..RATINGS.len())]]);
    }

    let drama_ids: Vec<Const> = (0..cfg.directors)
        .filter(|&di| is_drama_director[di])
        .map(|di| {
            db.lookup(&format!("d{di}"))
                .expect("director interned above")
        })
        .collect();
    let non_drama_ids: Vec<Const> = (0..cfg.directors)
        .filter(|&di| !is_drama_director[di])
        .map(|di| {
            db.lookup(&format!("d{di}"))
                .expect("director interned above")
        })
        .collect();

    let mut pos: Vec<Example> = drama_ids
        .iter()
        .take(cfg.positives)
        .map(|&d| Example::new(target, vec![d]))
        .collect();
    use rand::seq::SliceRandom;
    pos.shuffle(&mut rng);

    let truth: FxHashSet<Vec<Const>> = drama_ids.iter().map(|&d| vec![d]).collect();
    insert_positives(&mut db, target, &pos);
    let neg = negatives(&mut rng, target, &truth, cfg.negatives, |rng| {
        vec![non_drama_ids[rng.random_range(0..non_drama_ids.len())]]
    });

    Dataset {
        name: "IMDb",
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
    fn shape() {
        let d = generate(&ImdbConfig::default(), 1);
        assert_eq!(d.db.catalog().len(), 13); // 12 + target
        assert!(
            d.pos.len() <= 150 && d.pos.len() > 50,
            "pos {}",
            d.pos.len()
        );
        assert!(d.db.total_tuples() > 10_000);
    }

    #[test]
    fn positives_direct_a_drama_negatives_do_not() {
        let d = generate(&ImdbConfig::default(), 4);
        let directed = d.db.rel_id("directedBy").unwrap();
        let genre_rel = d.db.rel_id("genre").unwrap();
        let drama = d.db.lookup("drama").unwrap();
        let drama_movies: FxHashSet<Const> =
            d.db.relation(genre_rel)
                .iter()
                .filter(|(_, t)| t[1] == drama)
                .map(|(_, t)| t[0])
                .collect();
        let directs_drama = |who: Const| {
            d.db.relation(directed)
                .iter()
                .any(|(_, t)| t[1] == who && drama_movies.contains(&t[0]))
        };
        for e in &d.pos {
            assert!(
                directs_drama(e.args[0]),
                "{} not a drama director",
                e.render(&d.db)
            );
        }
        for e in &d.neg {
            assert!(
                !directs_drama(e.args[0]),
                "{} IS a drama director",
                e.render(&d.db)
            );
        }
    }

    #[test]
    fn manual_bias_parses_and_allows_genre_constants() {
        let d = generate(
            &ImdbConfig {
                movies: 100,
                positives: 10,
                negatives: 20,
                ..ImdbConfig::default()
            },
            1,
        );
        let bias = d.manual_bias().unwrap();
        let genre_rel = d.db.rel_id("genre").unwrap();
        assert!(bias.can_be_const(relstore::AttrRef::new(genre_rel, 1)));
    }
}
