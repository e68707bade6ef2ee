//! Minimal `--key value` argument parsing (no external dependencies).

pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn new(raw: Vec<String>) -> Self {
        Self { raw }
    }

    /// Value of `--key <v>` as a string, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    /// Parsed value of `--key <v>`, if present. A value that does not parse
    /// is an error naming the flag, never a silent default.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get_str(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for {key}"))
            })
            .transpose()
    }

    /// Parsed value of `--key <v>`, or `default` when the flag is absent.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.try_get(key)?.unwrap_or(default))
    }

    /// Whether the bare flag `--key` is present.
    pub fn has(&self, key: &str) -> bool {
        self.raw.iter().any(|a| a == key)
    }

    /// Arguments that are not part of a `--key value` pair, in order.
    /// Assumes every `--key` takes a value (true for the subcommands that
    /// use positionals), so bare boolean flags would swallow one argument.
    pub fn positionals(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.raw.len() {
            if self.raw[i].starts_with("--") {
                i += 2;
            } else {
                out.push(self.raw[i].as_str());
                i += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::new(s.iter().map(|x| x.to_string()).collect())
    }

    #[test]
    fn lookup_and_parse() {
        let a = args(&["--seed", "42", "--out", "dir/x"]);
        assert_eq!(a.get_str("--out"), Some("dir/x"));
        assert_eq!(a.get("--seed", 0u64), Ok(42));
        assert_eq!(a.get("--missing", 7u64), Ok(7));
        assert_eq!(a.try_get::<u64>("--missing"), Ok(None));
    }

    #[test]
    fn malformed_values_are_errors_naming_the_flag() {
        let a = args(&["--depth", "two", "--out", "dir/x"]);
        let err = a.get("--depth", 2usize).unwrap_err();
        assert!(err.contains("--depth") && err.contains("\"two\""), "{err}");
        assert!(a.try_get::<u64>("--out").unwrap_err().contains("--out"));
    }

    #[test]
    fn positionals_skip_key_value_pairs() {
        let a = args(&["watch", "--addr", "127.0.0.1:1", "3"]);
        assert_eq!(a.positionals(), vec!["watch", "3"]);
        assert!(args(&["--seed", "42"]).positionals().is_empty());
    }

    #[test]
    fn missing_value_is_none() {
        let a = args(&["--flag"]);
        assert_eq!(a.get_str("--flag"), None);
        assert!(a.has("--flag"));
        assert!(!a.has("--other"));
    }
}
