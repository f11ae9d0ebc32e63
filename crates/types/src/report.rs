//! The report harness every verdict-report binary shares: one JSON writer
//! and reader, one ordered worker pool, one flag parser and one write path.
//!
//! The committed `BENCH_*.json` files are regenerated and diffed byte for
//! byte, so they all come from [`Value::render`], whose layout is the one
//! rule `docs/ANALYSIS.md` states: the top-level object's members one per
//! line at 2 spaces, the elements and members of a depth-1 array or object
//! one per line at 4 spaces, anything deeper inline, and numbers exactly as
//! the caller formatted them.  [`parse`] reads such documents (and
//! `benchmark/`'s result files) back.  [`run_ordered`] fans cells out over
//! worker threads and returns their results in cell order, so a report does
//! not depend on the worker count.  [`args`] parses the flags a binary
//! declares, and [`write_report`] lands the report where they send it.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// JSON-escapes a string, quotes included: the one escaper of the reports.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON value to write.  Objects keep their members in the order given.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A number, boolean or `null`, written as this text.
    Raw(String),
    /// A string, escaped when written.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in order.
    Object(Vec<(String, Value)>),
}

/// Builds a [`Value::Object`] from `"key": value` pairs, in order; each
/// value goes through `Value::from`.
#[macro_export]
macro_rules! json_object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::report::Value::Object(vec![
            $(($key.to_string(), $crate::report::Value::from($value))),*
        ])
    };
}

macro_rules! raw_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Raw(v.to_string())
            }
        }
    )*};
}
raw_from!(bool, u32, u64, usize);

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or_else(|| Value::Raw("null".into()), Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl Value {
    /// A number written with `places` decimals (`{:.3}`, `{:.1}`).
    pub fn fixed(x: f64, places: usize) -> Self {
        Value::Raw(format!("{x:.places$}"))
    }

    /// The document: this value laid out by the report rule, plus a final
    /// newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Raw(text) => out.push_str(text),
            Value::Str(s) => out.push_str(&json_string(s)),
            Value::Array(items) => write_members(out, depth, "[]", items.iter().map(|v| (None, v))),
            Value::Object(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, depth, "{}", members)
            }
        }
    }
}

/// Writes a container's members between `brackets`: one per line, indented,
/// at the top level and depth 1; inline deeper down.
fn write_members<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
) {
    let broken = depth < 2;
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in members.enumerate() {
        out.push_str(match (i, broken) {
            (0, false) => "",
            (_, false) => ", ",
            (0, true) => "\n",
            (_, true) => ",\n",
        });
        if broken {
            out.push_str(&"  ".repeat(depth + 1));
        }
        if let Some(key) = key {
            out.push_str(&json_string(key));
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if broken {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push_str(&brackets[1..]);
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is not preserved (keys are sorted).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A recursive-descent reader: objects, arrays, strings (with the escapes
/// [`json_string`] emits and the rest of JSON's), numbers, booleans and
/// null.  Not a streaming or zero-copy one.
struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unread byte, always on a char boundary.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    /// Reads `open`, then items separated by `,` until `close`.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect_byte(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error(format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let mut map = BTreeMap::new();
        self.seq(b'{', b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect_byte(b':')?;
            map.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(Json::Object(map))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.seq(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Array(items))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = (self.src.get(self.pos + 1..self.pos + 5))
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let c =
                        (self.src[self.pos..].chars().next()).expect("the Some(_) arm saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error(format!("invalid number '{text}'")))
    }
}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut parser = Parser { src: input, pos: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != input.len() {
        return Err(parser.error("trailing garbage after JSON value"));
    }
    Ok(value)
}

/// Maps `f` over `items` on `workers` OS threads (at least one, at most one
/// per item) and returns the results in item order, whichever worker ran
/// each item.  Work is handed out one item at a time, so long items do not
/// serialise behind short ones.
pub fn run_ordered<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                // ORDERING: Relaxed — the cursor is a work ticket with no
                // data published through it; the slot mutexes order the
                // results.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(item);
                *slots[i].lock().expect("no worker panics holding a slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics holding a slot")
                .expect("every item was claimed and completed")
        })
        .collect()
}

/// A flag a report binary may declare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// `--smoke`: the CI-sized run, which writes no report unless `--out`
    /// names one.
    Smoke,
    /// `--workers N`: worker threads, a positive integer.
    Workers,
    /// `--out PATH`: write the report to PATH instead of the committed file.
    Out,
    /// `--seam NAME`: the chaos grid's seam filter.
    Seam,
}

impl Flag {
    fn usage(self) -> &'static str {
        match self {
            Flag::Smoke => "--smoke",
            Flag::Workers => "--workers N",
            Flag::Out => "--out PATH",
            Flag::Seam => "--seam NAME",
        }
    }
}

/// What a report binary was asked to do.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// `--smoke` was given.
    pub smoke: bool,
    /// `--workers N`.
    pub workers: Option<usize>,
    /// `--out PATH`.
    pub out: Option<PathBuf>,
    /// `--seam NAME`.
    pub seam: Option<String>,
    /// The positional arguments, one per declared name: what was given,
    /// else the declared default.
    pub positional: Vec<u64>,
}

impl Args {
    /// Where the report goes: `--out PATH` when given, else the committed
    /// file `name` at the workspace root unless the run is `--smoke`.
    pub fn report_path(&self, name: &str) -> Option<PathBuf> {
        self.out
            .clone()
            .or_else(|| (!self.smoke).then(|| workspace_root().join(name)))
    }
}

/// [`args`] on an explicit argument list, returning the refusal.
fn parse_args(
    flags: &[Flag],
    positional: &[(&str, u64)],
    args: impl IntoIterator<Item = String>,
) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let flag = flags
            .iter()
            .find(|f| f.usage().split(' ').next() == Some(&arg));
        let mut value = |what: &str| args.next().ok_or(format!("{arg} expects {what}"));
        match flag {
            Some(Flag::Smoke) => parsed.smoke = true,
            Some(Flag::Workers) => {
                let n = value("a positive integer")?;
                let n = n.parse().ok().filter(|&n| n > 0);
                parsed.workers = Some(n.ok_or("--workers expects a positive integer")?);
            }
            Some(Flag::Out) => parsed.out = Some(value("a path")?.into()),
            Some(Flag::Seam) => parsed.seam = Some(value("a seam name")?),
            None => match positional.get(parsed.positional.len()) {
                Some((name, _)) if !arg.starts_with("--") => {
                    let n = arg
                        .parse()
                        .map_err(|_| format!("{name} expects an integer ≥ 0, not {arg}"));
                    parsed.positional.push(n?);
                }
                _ => return Err(format!("unknown argument: {arg}")),
            },
        }
    }
    let given = parsed.positional.len();
    (parsed.positional).extend(positional[given..].iter().map(|&(_, default)| default));
    Ok(parsed)
}

/// Parses the process's arguments for binary `bin`, which accepts `flags`
/// and up to `positional.len()` non-negative integers, each
/// `(name, default)`; on any other argument prints why and the usage line
/// and exits with status 2.
pub fn args(bin: &str, flags: &[Flag], positional: &[(&str, u64)]) -> Args {
    parse_args(flags, positional, std::env::args().skip(1)).unwrap_or_else(|why| {
        let flags = flags.iter().map(|f| f.usage().to_string());
        let positional = positional
            .iter()
            .map(|(name, default)| format!("{name}={default}"));
        let usage: String = flags.chain(positional).map(|a| format!(" [{a}]")).collect();
        eprintln!("{bin}: {why}\nusage: {bin}{usage}");
        std::process::exit(2)
    })
}

/// The workspace root, where the committed `BENCH_*.json` reports live.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Writes `text` to [`Args::report_path`] and returns whether a report was
/// written.  Exits with status 1 when it cannot be: a report that silently
/// fails to land leaves the committed file in place, and a
/// regenerate-then-`git diff` gate would compare the stale file with itself
/// and pass.
pub fn write_report(args: &Args, name: &str, text: &str) -> bool {
    let Some(path) = args.report_path(name) else {
        return false;
    };
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("report written to {}", path.display());
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_newlines_and_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("\u{1}"), r#""\u0001""#);
        assert_eq!(json_string("plain"), "\"plain\"");
        let original = "quote\" slash\\ newline\n control\u{1}";
        assert_eq!(
            parse(&json_string(original)).unwrap().as_str(),
            Some(original)
        );
    }

    #[test]
    fn the_layout_breaks_two_levels_and_inlines_the_rest() {
        let doc = json_object! {
            "bench": "demo",
            "rows": vec![json_object! { "k": 1u64, "ok": true }, json_object! { "k": 2u64, "ok": false }],
            "empty": Vec::<Value>::new(),
            "metrics": json_object! { "rate": Value::fixed(2.0 / 3.0, 3), "mean": Value::fixed(0.25, 1) },
        };
        assert_eq!(
            doc.render(),
            "{\n  \"bench\": \"demo\",\n  \"rows\": [\n    {\"k\": 1, \"ok\": true},\n    \
             {\"k\": 2, \"ok\": false}\n  ],\n  \"empty\": [\n  ],\n  \"metrics\": {\n    \
             \"rate\": 0.667,\n    \"mean\": 0.2\n  }\n}\n"
        );
    }

    #[test]
    fn a_nested_object_of_arrays_stays_on_its_row() {
        // The shape of `check`'s counterexample: an object of arrays inside a
        // row, plus a missing one as null.
        let counterexample = json_object! {
            "schedule": vec![0u64, 1, 1],
            "seams": vec!["c0:commit".to_string()],
            "reasons": vec!["a \"quoted\" reason"],
        };
        let doc = json_object! {
            "model": vec![
                json_object! { "cell": "a", "counterexample": counterexample },
                json_object! { "cell": "b", "counterexample": None::<Value> },
            ],
        };
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"model\": [\n    {\"cell\": \"a\", \"counterexample\": {\"schedule\": [0, 1, 1], \
             \"seams\": [\"c0:commit\"], \"reasons\": [\"a \\\"quoted\\\" reason\"]}},\n    \
             {\"cell\": \"b\", \"counterexample\": null}\n  ]\n}\n"
        );
        let parsed = parse(&text).unwrap();
        let row = &parsed.get("model").unwrap().as_array().unwrap()[0];
        let reasons = row.get("counterexample").unwrap().get("reasons").unwrap();
        assert_eq!(
            reasons.as_array().unwrap()[0].as_str(),
            Some("a \"quoted\" reason")
        );
    }

    #[test]
    fn run_ordered_keeps_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..40).collect();
        let squares: Vec<u64> = items.iter().map(|i| i * i).collect();
        assert_eq!(run_ordered(&items, 1, |&i| i * i), squares);
        // Item 0 cannot finish before item 39 has, so four workers complete
        // the items out of order.
        let (finished, last) = std::sync::mpsc::channel();
        let last = Mutex::new(last);
        let out = run_ordered(&items, 4, |&i| {
            if i == 0 {
                last.lock()
                    .expect("one waiter")
                    .recv()
                    .expect("item 39 ran");
            }
            if i == 39 {
                finished.send(()).expect("item 0 waits");
            }
            i * i
        });
        assert_eq!(out, squares);
        assert!(run_ordered(&[] as &[u64], 4, |&i| i).is_empty());
    }

    fn parse_strs(
        flags: &[Flag],
        positional: &[(&str, u64)],
        args: &[&str],
    ) -> Result<Args, String> {
        parse_args(flags, positional, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn each_binary_accepts_exactly_the_flags_it_declares() {
        let all = [Flag::Smoke, Flag::Workers, Flag::Out, Flag::Seam];
        let args = parse_strs(&all, &[], &["--smoke", "--workers", "4", "--out", "r.json"]);
        let args = args.unwrap();
        assert!(args.smoke);
        assert_eq!(args.workers, Some(4));
        assert_eq!(
            args.report_path("BENCH_x.json"),
            Some(PathBuf::from("r.json"))
        );
        for bad in [
            &["--workers", "0"][..],
            &["--workers"],
            &["--out"],
            &["--threads", "4"],
            &["7"],
        ] {
            assert!(parse_strs(&all, &[], bad).is_err(), "{bad:?}");
        }
        assert!(parse_strs(&[Flag::Smoke], &[], &["--workers", "2"]).is_err());
        let table = [("replicas", 8), ("duration", 20), ("seed", 2019)];
        let given = parse_strs(&[], &table, &["4", "0"]).unwrap().positional;
        assert_eq!(
            given,
            vec![4, 0, 2019],
            "a missing argument takes its default"
        );
        for bad in [&["x"][..], &["-1"], &["1", "2", "3", "4"], &["--smoke"]] {
            assert!(parse_strs(&[], &table, bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn out_replaces_the_committed_path_and_smoke_writes_nowhere_else() {
        let full = Args::default();
        let committed = full.report_path("BENCH_x.json").unwrap();
        assert_eq!(committed, workspace_root().join("BENCH_x.json"));
        assert!(workspace_root().join("Cargo.toml").exists());
        let out = Args {
            out: Some("o.json".into()),
            ..Args::default()
        };
        assert_eq!(
            out.report_path("BENCH_x.json"),
            Some(PathBuf::from("o.json"))
        );
        let smoke = Args {
            smoke: true,
            ..Args::default()
        };
        assert_eq!(smoke.report_path("BENCH_x.json"), None);
    }
}
