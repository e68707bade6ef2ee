//! Saving and loading datasets as plain directories of CSV files, so the
//! synthetic workloads can be inspected, versioned, or swapped for real data:
//!
//! ```text
//! <dir>/
//!   schema.txt        one line per relation: name(attr1, attr2, …)
//!   target.txt        the target relation's name
//!   <relation>.csv    tuples, one per line
//!   pos.csv           positive examples
//!   neg.csv           negative examples
//!   manual_bias.txt   expert bias in the `bias::parse` format
//! ```

use crate::Dataset;
use autobias::example::Example;
use relstore::csv::{load_csv, write_csv, CsvError};
use relstore::{Database, RelId};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Errors raised while saving or loading a dataset directory.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Malformed CSV content.
    Csv(CsvError),
    /// Malformed schema line or missing file.
    Format(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Csv(e) => write!(f, "CSV error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<CsvError> for IoError {
    fn from(e: CsvError) -> Self {
        IoError::Csv(e)
    }
}

/// Writes `ds` under `dir` (created if missing).
pub fn save_dataset(ds: &Dataset, dir: &Path) -> Result<(), IoError> {
    fs::create_dir_all(dir)?;
    let mut schema = fs::File::create(dir.join("schema.txt"))?;
    for (rel, s) in ds.db.catalog().iter() {
        writeln!(schema, "{}({})", s.name, s.attrs.join(", "))?;
        let file = fs::File::create(dir.join(format!("{}.csv", s.name)))?;
        write_csv(&ds.db, rel, file)?;
    }
    fs::write(
        dir.join("target.txt"),
        &ds.db.catalog().schema(ds.target).name,
    )?;
    write_examples(&ds.db, &ds.pos, &dir.join("pos.csv"))?;
    write_examples(&ds.db, &ds.neg, &dir.join("neg.csv"))?;
    fs::write(dir.join("manual_bias.txt"), &ds.manual_bias_text)?;
    Ok(())
}

fn write_examples(db: &Database, examples: &[Example], path: &Path) -> Result<(), IoError> {
    let mut f = fs::File::create(path)?;
    for e in examples {
        let vals: Vec<&str> = e.args.iter().map(|&c| db.const_name(c)).collect();
        writeln!(f, "{}", vals.join(","))?;
    }
    Ok(())
}

/// Loads a dataset directory written by [`save_dataset`].
///
/// The returned dataset's `name` is the leaked directory stem (datasets carry
/// a `&'static str` name); pass data through a stable location.
pub fn load_dataset(dir: &Path) -> Result<Dataset, IoError> {
    let schema_text = fs::read_to_string(dir.join("schema.txt"))?;
    let mut db = Database::new();
    let mut rels: Vec<(RelId, String)> = Vec::new();
    for line in schema_text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let open = line
            .find('(')
            .ok_or_else(|| IoError::Format(format!("bad schema line: {line}")))?;
        let close = line
            .rfind(')')
            .ok_or_else(|| IoError::Format(format!("bad schema line: {line}")))?;
        let name = line[..open].trim();
        let attrs: Vec<&str> = line[open + 1..close].split(',').map(str::trim).collect();
        let rel = db.add_relation(name, &attrs);
        rels.push((rel, name.to_string()));
    }

    let target_name = fs::read_to_string(dir.join("target.txt"))?;
    let target = db
        .rel_id(target_name.trim())
        .ok_or_else(|| IoError::Format(format!("unknown target: {}", target_name.trim())))?;

    for (rel, name) in &rels {
        let path = dir.join(format!("{name}.csv"));
        if path.exists() {
            let file = fs::File::open(path)?;
            load_csv(&mut db, *rel, file)?;
        }
    }

    let pos = read_examples(&mut db, target, &dir.join("pos.csv"))?;
    let neg = read_examples(&mut db, target, &dir.join("neg.csv"))?;
    let manual_bias_text = fs::read_to_string(dir.join("manual_bias.txt")).unwrap_or_default();

    let name: &'static str = Box::leak(
        dir.file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "loaded".to_string())
            .into_boxed_str(),
    );
    Ok(Dataset {
        name,
        db,
        target,
        pos,
        neg,
        manual_bias_text,
    })
}

fn read_examples(db: &mut Database, rel: RelId, path: &Path) -> Result<Vec<Example>, IoError> {
    let arity = db.catalog().schema(rel).arity();
    let text = fs::read_to_string(path)?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != arity {
            return Err(IoError::Format(format!(
                "{}:{}: expected {} fields, found {}",
                path.display(),
                i + 1,
                arity,
                fields.len()
            )));
        }
        out.push(Example::from_strs(db, rel, &fields));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uw::{generate, UwConfig};

    #[test]
    fn roundtrip_uw() {
        let dir = std::env::temp_dir().join(format!("autobias_io_test_{}", std::process::id()));
        let ds = generate(
            &UwConfig {
                students: 20,
                professors: 8,
                courses: 10,
                advised_pairs: 10,
                negatives: 20,
                ..UwConfig::default()
            },
            3,
        );
        save_dataset(&ds, &dir).expect("save");
        let loaded = load_dataset(&dir).expect("load");
        assert_eq!(loaded.db.catalog().len(), ds.db.catalog().len());
        assert_eq!(loaded.db.total_tuples(), ds.db.total_tuples());
        assert_eq!(loaded.pos.len(), ds.pos.len());
        assert_eq!(loaded.neg.len(), ds.neg.len());
        assert_eq!(loaded.manual_bias_text, ds.manual_bias_text);
        // Example constants survive the round trip by name.
        for (a, b) in ds.pos.iter().zip(&loaded.pos) {
            assert_eq!(a.render(&ds.db), b.render(&loaded.db));
        }
        // The manual bias still parses against the loaded database.
        loaded.manual_bias().expect("bias parses after roundtrip");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_target_is_an_error() {
        let dir = std::env::temp_dir().join(format!("autobias_io_bad_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("schema.txt"), "r(a)\n").unwrap();
        fs::write(dir.join("target.txt"), "nosuch").unwrap();
        let err = load_dataset(&dir).unwrap_err();
        assert!(matches!(err, IoError::Format(_)));
        fs::remove_dir_all(&dir).ok();
    }
}
