//! What every report generator shares: the JSON string escaper, the
//! workspace root the committed `BENCH_*.json` files live in, and the one
//! report writer.
//!
//! JSON is emitted by hand (the workspace has no serde); [`json_string`] is
//! the only escaping the reports need.

use std::fmt::Write as _;
use std::path::Path;

/// JSON-escapes a string (shared by the report writers; the workspace has
/// no serde).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The workspace root (where the `BENCH_*.json` reports live), derived
/// from this crate's manifest directory at compile time.
pub fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."))
}

/// Writes a rendered report to `path`, or exits the process with status 1.
///
/// A report that silently fails to land leaves the committed file in
/// place, and a regenerate-then-`git diff` gate would then compare the
/// stale file with itself and pass.
pub fn write_report(path: &Path, text: &str) {
    match std::fs::write(path, text) {
        Ok(()) => println!("report written to {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }

    #[test]
    fn workspace_root_contains_the_manifest() {
        assert!(workspace_root().join("Cargo.toml").exists());
    }
}
