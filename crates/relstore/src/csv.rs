//! CSV load/store for relations. Deliberately small: comma-separated, values
//! optionally double-quoted (with `""` escaping), one tuple per line.

use crate::database::Database;
use crate::schema::RelId;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Errors raised while parsing CSV input.
#[derive(Debug)]
pub enum CsvError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A row whose field count does not match the relation arity.
    ArityMismatch {
        /// 1-based line number.
        line: usize,
        /// Fields found on the line.
        found: usize,
        /// Arity expected by the relation schema.
        expected: usize,
    },
    /// An unterminated quoted field.
    UnterminatedQuote {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::ArityMismatch {
                line,
                found,
                expected,
            } => write!(f, "line {line}: expected {expected} fields, found {found}"),
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Splits one CSV line into fields, honouring double quotes.
fn split_line(line: &str, line_no: usize) -> Result<Vec<String>, CsvError> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    loop {
        match chars.peek() {
            Some('"') => {
                chars.next();
                let mut closed = false;
                while let Some(c) = chars.next() {
                    if c == '"' {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            cur.push('"');
                        } else {
                            closed = true;
                            break;
                        }
                    } else {
                        cur.push(c);
                    }
                }
                if !closed {
                    return Err(CsvError::UnterminatedQuote { line: line_no });
                }
            }
            Some(',') => {
                chars.next();
                fields.push(std::mem::take(&mut cur));
            }
            Some(&c) => {
                chars.next();
                cur.push(c);
            }
            None => {
                fields.push(cur);
                break;
            }
        }
    }
    Ok(fields)
}

/// Loads CSV rows from `reader` into relation `rel` of `db`.
///
/// Returns the number of tuples inserted. Blank lines are skipped.
pub fn load_csv<R: Read>(db: &mut Database, rel: RelId, reader: R) -> Result<usize, CsvError> {
    let arity = db.catalog().schema(rel).arity();
    let buf = BufReader::new(reader);
    let mut count = 0;
    for (i, line) in buf.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_line(&line, i + 1)?;
        if fields.len() != arity {
            return Err(CsvError::ArityMismatch {
                line: i + 1,
                found: fields.len(),
                expected: arity,
            });
        }
        let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
        db.insert(rel, &refs);
        count += 1;
    }
    Ok(count)
}

/// Writes relation `rel` of `db` as CSV to `writer`. A value holding a
/// comma or a quote is quoted, and so is a blank one, whose line
/// [`load_csv`] would otherwise skip. Values must not hold line breaks.
pub fn write_csv<W: Write>(db: &Database, rel: RelId, writer: W) -> Result<(), CsvError> {
    let mut out = BufWriter::new(writer);
    let relation = db.relation(rel);
    for (_, tuple) in relation.iter() {
        let mut first = true;
        for &c in tuple {
            if !first {
                out.write_all(b",")?;
            }
            first = false;
            let name = db.const_name(c);
            if name.contains([',', '"']) || name.trim().is_empty() {
                write!(out, "\"{}\"", name.replace('"', "\"\""))?;
            } else {
                out.write_all(name.as_bytes())?;
            }
        }
        out.write_all(b"\n")?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn load_simple_csv() {
        let mut db = Database::new();
        let r = db.add_relation("flight", &["src", "dst"]);
        let n = load_csv(&mut db, r, "pdx,sfo\nsfo,lax\n\npdx,lax\n".as_bytes()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(db.relation(r).len(), 3);
        assert_eq!(
            db.render_tuple(r, db.relation(r).tuple(2)),
            "flight(pdx, lax)"
        );
    }

    #[test]
    fn quoted_fields_roundtrip() {
        let mut db = Database::new();
        let r = db.add_relation("t", &["a", "b"]);
        load_csv(
            &mut db,
            r,
            "\"hello, world\",\"say \"\"hi\"\"\"\n".as_bytes(),
        )
        .unwrap();
        let t = db.relation(r).tuple(0).to_vec();
        assert_eq!(db.const_name(t[0]), "hello, world");
        assert_eq!(db.const_name(t[1]), "say \"hi\"");

        let mut out = Vec::new();
        write_csv(&db, r, &mut out).unwrap();
        let mut db2 = Database::new();
        let r2 = db2.add_relation("t", &["a", "b"]);
        load_csv(&mut db2, r2, out.as_slice()).unwrap();
        let t2 = db2.relation(r2).tuple(0).to_vec();
        assert_eq!(db2.const_name(t2[0]), "hello, world");
        assert_eq!(db2.const_name(t2[1]), "say \"hi\"");
    }

    #[test]
    fn arity_mismatch_is_reported_with_line() {
        let mut db = Database::new();
        let r = db.add_relation("t", &["a", "b"]);
        let err = load_csv(&mut db, r, "x,y\nz\n".as_bytes()).unwrap_err();
        match err {
            CsvError::ArityMismatch {
                line,
                found,
                expected,
            } => {
                assert_eq!((line, found, expected), (2, 1, 2));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    /// A string of up to `max_len` characters drawn from `alphabet`.
    fn random_string(rng: &mut StdRng, alphabet: &[char], max_len: usize) -> String {
        let len = rng.random_range(0..=max_len);
        (0..len).map(|_| *alphabet.choose(rng).unwrap()).collect()
    }

    #[test]
    fn load_never_panics_on_arbitrary_bytes() {
        let mut rng = StdRng::seed_from_u64(0x5eed_000a);
        let alphabet = b"ab,,\"\"\n\r \t\xff\xc3\x00";
        for _ in 0..20_000 {
            let len = rng.random_range(0..60);
            let bytes: Vec<u8> = (0..len)
                .map(|_| match rng.random_range(0..3) {
                    0 => rng.random_range(0..=255u8),
                    _ => *alphabet.choose(&mut rng).unwrap(),
                })
                .collect();
            let mut db = Database::new();
            let attrs = ["a", "b", "c"];
            let r = db.add_relation("t", &attrs[..rng.random_range(1..=3)]);
            if let Ok(n) = load_csv(&mut db, r, bytes.as_slice()) {
                assert_eq!(db.relation(r).len(), n);
            }
        }
    }

    #[test]
    fn written_relations_load_back() {
        let mut rng = StdRng::seed_from_u64(0x5eed_000b);
        // Separators, quotes, whitespace and multi-byte characters; a line
        // break cannot be carried by a line-per-tuple format.
        let alphabet = [
            ',', '"', ' ', '\t', 'a', 'b', '0', ';', '\'', 'é', '中', '😀',
        ];
        for case in 0..2_000 {
            let attrs = ["a", "b", "c"];
            let arity = rng.random_range(1..=3);
            let mut db = Database::new();
            let r = db.add_relation("t", &attrs[..arity]);
            let rows: Vec<Vec<String>> = (0..rng.random_range(0..8))
                .map(|_| {
                    (0..arity)
                        .map(|_| random_string(&mut rng, &alphabet, 6))
                        .collect()
                })
                .collect();
            for row in &rows {
                let refs: Vec<&str> = row.iter().map(String::as_str).collect();
                db.insert(r, &refs);
            }
            let mut out = Vec::new();
            write_csv(&db, r, &mut out).unwrap();
            let text = String::from_utf8_lossy(&out);
            let mut db2 = Database::new();
            let r2 = db2.add_relation("t", &attrs[..arity]);
            let n = load_csv(&mut db2, r2, out.as_slice())
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
            assert_eq!(n, rows.len(), "case {case}: {text}");
            for ((_, t), row) in db2.relation(r2).iter().zip(&rows) {
                let names: Vec<&str> = t.iter().map(|&c| db2.const_name(c)).collect();
                assert_eq!(names, *row, "case {case}: {text}");
            }
        }
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let mut db = Database::new();
        let r = db.add_relation("t", &["a"]);
        assert!(matches!(
            load_csv(&mut db, r, "\"oops\n".as_bytes()),
            Err(CsvError::UnterminatedQuote { line: 1 })
        ));
    }
}
