//! Dependency-free, token-level lint pass for the workspace sources.
//!
//! Every rule is one row of [`RULES`]: its id, what a finding says, the
//! patterns it refuses with the paths each binds under and the owner files
//! it never fires in, the comment that lifts it, and whether test code and
//! the frozen `benchmark/` harness are in scope.  `docs/ANALYSIS.md` §3 is
//! the prose table of the rows (a unit test keeps its ids equal to these).
//!
//! The scanner is a small hand-rolled tokenizer, not a regex pass: it
//! masks out string literals (including raw and byte strings), char
//! literals (without eating lifetimes), and line/nested-block comments,
//! so `"contains .unwrap()"` in a string or an `unsafe` in a doc comment
//! cannot produce findings.  Test code is every file under a `tests/`,
//! `bin/` or `examples/` directory, `main.rs`/`build.rs`, and the braced
//! item after a `#[cfg(test)]` (tracked by depth).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How many lines above a site a justification comment may sit.
const LOOKBACK: usize = 3;
/// How many lines below a `delta_above(` call its `.take(` cap (or below a
/// payload iteration its `.collect`) may sit.
const LOOKAHEAD: usize = 3;

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintFinding {
    /// Path as scanned (workspace-relative when walked).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The id of a [`RULES`] row.
    pub rule: &'static str,
    /// Human-readable description of the site.
    pub detail: String,
}

/// One source line split into its code part and its comment part, with
/// strings/chars blanked out of the code part.
#[derive(Clone, Debug, Default)]
struct LineView {
    code: String,
    comment: String,
    /// Brace depth of *code* at the start of the line (for cfg(test)
    /// region tracking).
    depth_at_start: i64,
}

/// Masks comments, strings and char literals out of `source`, returning
/// one [`LineView`] per line.
fn mask(source: &str) -> Vec<LineView> {
    enum S {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(u32),
    }
    let cs: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut cur = LineView::default();
    let mut depth: i64 = 0;
    let mut st = S::Code;
    let mut i = 0usize;
    while i < cs.len() {
        let c = cs[i];
        if c == '\n' {
            if matches!(st, S::Line) {
                st = S::Code;
            }
            let mut done = std::mem::take(&mut cur);
            lines.push(std::mem::take(&mut done));
            cur.depth_at_start = depth;
            i += 1;
            continue;
        }
        match st {
            S::Code => {
                let next = cs.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = S::Line;
                    cur.comment.push_str("//");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = S::Block(1);
                    i += 2;
                } else if c == '"' {
                    // The opening quote survives masking so rules can tell
                    // a string-literal argument from an expression.
                    st = S::Str;
                    cur.code.push('"');
                    i += 1;
                } else if c == 'r' && !ident_tail(&cur.code) && raw_hashes(&cs, i + 1).is_some() {
                    let h = raw_hashes(&cs, i + 1).expect("checked by the branch guard");
                    st = S::RawStr(h);
                    cur.code.push('"');
                    i += 2 + h as usize;
                } else if c == 'b' && !ident_tail(&cur.code) && next == Some('"') {
                    st = S::Str;
                    cur.code.push(' ');
                    i += 2;
                } else if c == 'b'
                    && !ident_tail(&cur.code)
                    && next == Some('r')
                    && raw_hashes(&cs, i + 2).is_some()
                {
                    let h = raw_hashes(&cs, i + 2).expect("checked by the branch guard");
                    st = S::RawStr(h);
                    cur.code.push(' ');
                    i += 3 + h as usize;
                } else if (c == '\'' || (c == 'b' && next == Some('\'') && !ident_tail(&cur.code)))
                    && char_literal_len(&cs, if c == 'b' { i + 1 } else { i }).is_some()
                {
                    let start = if c == 'b' { i + 1 } else { i };
                    cur.code.push(' ');
                    i = start + char_literal_len(&cs, start).expect("checked by the branch guard");
                } else {
                    if c == '{' {
                        depth += 1;
                    } else if c == '}' {
                        depth -= 1;
                    }
                    cur.code.push(c);
                    i += 1;
                }
            }
            S::Line => {
                cur.comment.push(c);
                i += 1;
            }
            S::Block(d) => {
                let next = cs.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    st = S::Block(d + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if d == 1 { S::Code } else { S::Block(d - 1) };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            S::Str => {
                if c == '\\' {
                    i += 2;
                } else if c == '"' {
                    st = S::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            S::RawStr(h) => {
                if c == '"' && (0..h as usize).all(|k| cs.get(i + 1 + k) == Some(&'#')) {
                    st = S::Code;
                    i += 1 + h as usize;
                } else {
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    lines
}

/// `true` if the code buffer ends mid-identifier (so a following `r`/`b`
/// is part of a name, not a literal prefix).
fn ident_tail(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// If `cs[at..]` starts `#*"` (a raw-string opener minus the `r`),
/// returns the hash count.
fn raw_hashes(cs: &[char], at: usize) -> Option<u32> {
    let mut h = 0u32;
    let mut j = at;
    while cs.get(j) == Some(&'#') {
        h += 1;
        j += 1;
    }
    (cs.get(j) == Some(&'"')).then_some(h)
}

/// If `cs[at..]` is a char literal (`'x'`, `'\n'`, `'\u{1F600}'`),
/// returns its length in chars; `None` for lifetimes.
fn char_literal_len(cs: &[char], at: usize) -> Option<usize> {
    if cs.get(at) != Some(&'\'') {
        return None;
    }
    if cs.get(at + 1) == Some(&'\\') {
        let mut j = at + 2;
        while j < cs.len() && cs[j] != '\'' && cs[j] != '\n' {
            j += 1;
        }
        (cs.get(j) == Some(&'\'')).then_some(j + 1 - at)
    } else if cs.get(at + 2) == Some(&'\'') && cs.get(at + 1) != Some(&'\'') {
        Some(3)
    } else {
        None // a lifetime tick
    }
}

/// Finds `needle` as a whole word in `hay`, returning true if present.
fn has_word(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre = hay[..start].chars().next_back();
        let post = hay[end..].chars().next();
        let boundary = |c: Option<char>| !c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary(pre) && boundary(post) {
            return true;
        }
        from = end;
    }
    false
}

/// `true` iff the site at `idx` carries a comment containing `marker`
/// (and, if given, `must_name`) on the same line or in the window above.
/// Comment-only lines extend the window for free, so a multi-line
/// justification block counts in full; other lines consume the
/// `LOOKBACK` budget.
fn justified(lines: &[LineView], idx: usize, marker: &str, must_name: Option<&str>) -> bool {
    let hit = |l: &LineView| {
        l.comment.contains(marker) && must_name.is_none_or(|name| l.comment.contains(name))
    };
    if hit(&lines[idx]) {
        return true;
    }
    let mut budget = LOOKBACK;
    for l in lines[..idx].iter().rev() {
        let comment_only = l.code.trim().is_empty() && !l.comment.is_empty();
        if !comment_only {
            if budget == 0 {
                return false;
            }
            budget -= 1;
        }
        if hit(l) {
            return true;
        }
    }
    false
}

/// `true` iff the masked `lines[idx]` holds the pattern.
type Matcher = fn(&[LineView], usize, &str) -> bool;

/// One pattern a rule refuses, and where in the tree it binds.
#[derive(Clone, Copy)]
struct Find {
    pattern: &'static str,
    matcher: Matcher,
    /// Index of what a hit says in the rule's `details`.
    detail: usize,
    /// Path fragments it binds under (none: everywhere).
    under: &'static [&'static str],
    /// Path fragments that own the pattern: it never fires there.
    owners: &'static [&'static str],
}

/// `pattern` as a plain substring of the code, bound everywhere.
const fn find(pattern: &'static str) -> Find {
    Find {
        pattern,
        matcher: contains,
        detail: 0,
        under: &[],
        owners: &[],
    }
}

impl Find {
    const fn by(self, matcher: Matcher) -> Self {
        Find { matcher, ..self }
    }
    const fn detail(self, detail: usize) -> Self {
        Find { detail, ..self }
    }
    const fn under(self, under: &'static [&'static str]) -> Self {
        Find { under, ..self }
    }
    const fn owners(self, owners: &'static [&'static str]) -> Self {
        Find { owners, ..self }
    }

    /// Whether the pattern binds in `path`.
    fn binds(&self, path: &Path) -> bool {
        (self.under.is_empty() || self.under.iter().any(|u| within(path, u)))
            && !self.owners.iter().any(|o| within(path, o))
    }
}

/// One row of the registry.
pub struct Rule {
    /// The id printed in brackets with each finding.
    pub id: &'static str,
    /// The comment marker that lifts the rule on a site's line or in the
    /// window above (`None`: nothing does); an `ORDERING:` comment must
    /// also name the matched variant.
    lift: Option<&'static str>,
    /// Whether test code is in scope.
    tests: bool,
    /// Whether the frozen `benchmark/` harness's library code is in scope.
    benchmark: bool,
    /// What a finding says; `{}` stands for the matched pattern.
    details: &'static [&'static str],
    finds: &'static [Find],
}

const RNG: &[&str] = &["crates/types/src/rng.rs"];
const ORACLE: &[&str] = &["crates/oracle/src"];
const CRITERIA: &[&str] = &["crates/core/src/criteria"];
const JUDGE_INDEX: &[&str] = &["crates/core/src/criteria/index.rs"];

/// The rules, in the order `docs/ANALYSIS.md` §3 numbers them.
#[rustfmt::skip]
pub static RULES: [Rule; 14] = [
    Rule { id: "unsafe-needs-safety", lift: Some("SAFETY:"), tests: true, benchmark: true,
        details: &["`unsafe` without a `// SAFETY:` justification"],
        finds: &[find("unsafe").by(word)] },
    Rule { id: "atomic-ordering-needs-justification", lift: Some("ORDERING:"), tests: true, benchmark: true,
        details: &["`Ordering::{}` without a `// ORDERING:` comment naming `{}`"],
        finds: &[find("Relaxed").by(atomic), find("Acquire").by(atomic), find("Release").by(atomic),
            find("AcqRel").by(atomic), find("SeqCst").by(atomic)] },
    Rule { id: "no-bare-unwrap", lift: Some("LINT-ALLOW:"), tests: false, benchmark: true,
        details: &["bare `.unwrap()` in library code (annotate `// LINT-ALLOW: <reason>` or handle the error)",
            "`.expect(..)` without a string-literal invariant message (give it one, or annotate `// LINT-ALLOW: <reason>`)"],
        finds: &[find(".unwrap()"), find(".expect(").by(non_literal_expect).detail(1)] },
    Rule { id: "no-chain-for-tip", lift: Some("LINT-ALLOW:"), tests: false, benchmark: false,
        details: &["a whole chain selected to read its tip (use `select_tip` / the replica's `tip()`, or annotate `// LINT-ALLOW: <reason>`)"],
        finds: &[find(".selected().tip()"), find(".select(").by(select_then_tip)] },
    Rule { id: "no-allocating-encode", lift: Some("LINT-ALLOW:"), tests: false, benchmark: false,
        details: &["`encode_record(..)` allocates per record (encode with `encode_record_into` into a reused buffer, or annotate `// LINT-ALLOW: <reason>`)"],
        finds: &[find("encode_record(").by(whole_name).owners(&["codec.rs"])] },
    Rule { id: "delta-needs-cap", lift: Some("LINT-ALLOW:"), tests: false, benchmark: true,
        details: &["`delta_above(..)` without a `.take(..)` cap within the next 3 lines (a reply costs what it walks; cap it, or annotate `// LINT-ALLOW: <reason>`)"],
        finds: &[find("delta_above(").by(uncapped_call)] },
    Rule { id: "no-payload-copy", lift: Some("LINT-ALLOW:"), tests: false, benchmark: false,
        details: &["a block's payload copied transaction by transaction (a `Payload` is shared: clone the handle with `.payload.clone()`, or annotate `// LINT-ALLOW: <reason>`)"],
        finds: &[find(".payload.to_vec()"), find(".payload.iter().cloned()").by(collected),
            find(".payload.iter().copied()").by(collected)] },
    Rule { id: "no-leaf-scan", lift: Some("LINT-ALLOW:"), tests: false, benchmark: true,
        details: &["`.leaves()` / `.all_chains()` scans the whole arena and sorts (use `leaf_count()` or a best-tip query, or annotate `// LINT-ALLOW: <reason>`)"],
        finds: &[find(".leaves()"), find(".all_chains()")] },
    Rule { id: "no-pair-loop", lift: Some("LINT-ALLOW:"), tests: false, benchmark: false,
        details: &["a `for` over `(i + 1)..` in a consistency checker is half of an all-pairs loop (count with an index, or annotate `// LINT-ALLOW: <reason>` saying why it is bounded)"],
        finds: &[find("for ").by(pair_loop).under(&["criteria"])] },
    Rule { id: "one-prune-door", lift: Some("LINT-ALLOW:"), tests: false, benchmark: true,
        details: &["a tree window rebuilt or a store pruned outside `ReplicaCore::prune` (prune through the core, or annotate `// LINT-ALLOW: <reason>`)"],
        finds: &[find("BlockTree::rerooted(").owners(&["types/src/tree.rs", "store/src/durable.rs"]),
            find(".prune(&").owners(&["store/src/durable.rs"])] },
    Rule { id: "no-chain-per-read", lift: Some("LINT-ALLOW:"), tests: false, benchmark: true,
        details: &["`chain_to_idx(` / `.chain_to(` copies the whole path from the root (record a read with `ReadSpines::record(tree, tip)`, or annotate `// LINT-ALLOW: <reason>`)"],
        finds: &[find("chain_to_idx(").owners(&["crates/types/src"]),
            find(".chain_to(").under(&["crates/core/src", "crates/protocols/src"])] },
    Rule { id: "one-k-door", lift: Some("LINT-ALLOW:"), tests: false, benchmark: true,
        details: &["`K[]` state kept beside `SlotArena` (consume through `SlotArena::consume`, or annotate `// LINT-ALLOW: <reason>`)"],
        finds: &[find("consumed_serials").by(word).under(ORACLE), find("Vec<Vec<Block>>").by(spaceless).under(ORACLE)] },
    Rule { id: "one-rng", lift: None, tests: true, benchmark: false,
        details: &["a SplitMix64 / ChaCha constant outside `btadt_types::rng` (draw from `ChaCha8`, `SplitMix64` or `mix64` instead of a private copy)"],
        finds: &[find("bf58476d1ce4e5b9").by(generator).owners(RNG), find("94d049bb133111eb").by(generator).owners(RNG),
            find("61707865").by(generator).owners(RNG)] },
    Rule { id: "one-judge-index", lift: None, tests: false, benchmark: true,
        details: &["a property builds an index of its own (read it from the check's `JudgeIndex`, which `criteria/index.rs` builds once per check)"],
        finds: &[find("ReadIndex::new(").under(CRITERIA).owners(JUDGE_INDEX),
            find("ReachForest::from_chains(").under(CRITERIA).owners(JUDGE_INDEX)] },
];

impl Rule {
    /// Whether a justification comment at `lines[idx]` lifts this rule.
    fn lifted(&self, lines: &[LineView], idx: usize, pattern: &str) -> bool {
        self.lift.is_some_and(|marker| {
            let name = (marker == "ORDERING:").then_some(pattern);
            justified(lines, idx, marker, name)
        })
    }

    /// Where the row binds, on one line.
    pub fn scope(&self) -> String {
        let mut out = String::from(["non-test code", "tests included"][usize::from(self.tests)]);
        if !self.benchmark {
            out += ", benchmark/ exempt";
        }
        for f in self.finds {
            for (word, paths) in [("under", f.under), ("not in", f.owners)] {
                if !paths.is_empty() {
                    out += &format!("; `{}` {word} {}", f.pattern, paths.join(", "));
                }
            }
        }
        match self.lift {
            Some(marker) => out + &format!("; lifted by `// {marker}`"),
            None => out + "; nothing lifts it",
        }
    }
}

/// `true` iff `path` holds the component sequence `fragment` (a directory
/// name, a path suffix such as `store/src/durable.rs`, or a file name).
fn within(path: &Path, fragment: &str) -> bool {
    path.ancestors().any(|a| a.ends_with(fragment))
}

/// `true` iff `lines[idx]` or one of the [`LOOKAHEAD`] lines below holds
/// `needle`.
fn ahead(lines: &[LineView], idx: usize, needle: &str) -> bool {
    lines[idx..lines.len().min(idx + 1 + LOOKAHEAD)]
        .iter()
        .any(|l| l.code.contains(needle))
}

fn contains(lines: &[LineView], idx: usize, pattern: &str) -> bool {
    lines[idx].code.contains(pattern)
}

fn word(lines: &[LineView], idx: usize, pattern: &str) -> bool {
    has_word(&lines[idx].code, pattern)
}

/// Whitespace ignored: `Vec< Vec<Block> >` holds `Vec<Vec<Block>>`.
fn spaceless(lines: &[LineView], idx: usize, pattern: &str) -> bool {
    let compact: String = lines[idx].code.split_whitespace().collect();
    compact.contains(pattern)
}

/// Case and `_` ignored: `0xBF58_476D_1CE4_E5B9` holds `bf58476d1ce4e5b9`.
fn generator(lines: &[LineView], idx: usize, constant: &str) -> bool {
    let code = lines[idx].code.replace('_', "").to_ascii_lowercase();
    code.contains(constant)
}

/// `Ordering::<variant>`; `std::cmp::Ordering`'s variants are not atomic.
fn atomic(lines: &[LineView], idx: usize, variant: &str) -> bool {
    lines[idx].code.contains(&format!("Ordering::{variant}"))
}

/// `pattern` not preceded by an identifier character
/// (`encode_record_into(` is not `encode_record(`).
fn whole_name(lines: &[LineView], idx: usize, pattern: &str) -> bool {
    let code = &lines[idx].code;
    code.match_indices(pattern)
        .any(|(p, _)| !ident_tail(&code[..p]))
}

/// A call of `pattern` (not where a `fn` defines it) with no `.take(` on
/// its line or within the next [`LOOKAHEAD`] lines.
fn uncapped_call(lines: &[LineView], idx: usize, pattern: &str) -> bool {
    let code = &lines[idx].code;
    let call = code.match_indices(pattern).any(|(p, _)| {
        let pre = &code[..p];
        let definition = pre
            .trim_end()
            .strip_suffix("fn")
            .is_some_and(|rest| !ident_tail(rest));
        !ident_tail(pre) && !definition
    });
    call && !ahead(lines, idx, ".take(")
}

/// `pattern` reaching a `.collect` on its line or within the next
/// [`LOOKAHEAD`] lines.
fn collected(lines: &[LineView], idx: usize, pattern: &str) -> bool {
    contains(lines, idx, pattern) && ahead(lines, idx, ".collect")
}

/// `.expect(` whose argument is not a string literal; the argument may
/// start on the next line (rustfmt wraps long messages).
fn non_literal_expect(lines: &[LineView], idx: usize, pattern: &str) -> bool {
    let code = &lines[idx].code;
    code.match_indices(pattern).any(|(p, _)| {
        let after = code[p + pattern.len()..].trim_start();
        let next = || lines.get(idx + 1).map_or("", |l| l.code.trim_start());
        !(if after.is_empty() { next() } else { after }).starts_with('"')
    })
}

/// `.select(<args>).tip()`: a whole chain selected to take its last block.
fn select_then_tip(lines: &[LineView], idx: usize, pattern: &str) -> bool {
    let code = &lines[idx].code;
    code.match_indices(pattern).any(|(p, pat)| {
        let args = &code[p + pat.len()..];
        let mut depth = 1usize;
        for (i, c) in args.char_indices() {
            match c {
                '(' => depth += 1,
                ')' if depth == 1 => return args[i + 1..].starts_with(".tip()"),
                ')' => depth -= 1,
                _ => {}
            }
        }
        false
    })
}

/// A `for` whose range starts one past a variable: `for <pat> in
/// (<ident> + 1)..` or `for <pat> in <ident> + 1..` — the inner half of an
/// all-pairs loop.
fn pair_loop(lines: &[LineView], idx: usize, pattern: &str) -> bool {
    let code = &lines[idx].code;
    code.match_indices(pattern).any(|(p, _)| {
        let Some((_, range)) = code[p..].split_once(" in ") else {
            return false;
        };
        let range: String = range.chars().filter(|c| !c.is_whitespace()).collect();
        let start = match range.strip_prefix('(') {
            Some(inner) => inner.split_once("+1)..").map(|(ident, _)| ident),
            None => range.split_once("+1..").map(|(ident, _)| ident),
        };
        let is_ident = |ident: &str| {
            ident.starts_with(|c: char| c.is_alphabetic() || c == '_')
                && ident.chars().all(|c| c.is_alphanumeric() || c == '_')
        };
        !ident_tail(&code[..p]) && start.is_some_and(is_ident)
    })
}

/// Where the item after a `#[cfg(test)]` ends its header: `Some('{')` at
/// the brace that opens its body, `Some(';')` if it ends first (`use …;`,
/// `mod tests;`), `None` if neither is on this line.  `nest` carries the
/// `(`/`[` depth across lines, so the `;` in `[u8; 2]` does not end it.
fn item_end(code: &str, nest: &mut i64) -> Option<char> {
    for c in code.chars() {
        match c {
            '(' | '[' => *nest += 1,
            ')' | ']' => *nest -= 1,
            '{' => return Some('{'),
            ';' if *nest == 0 => return Some(';'),
            _ => {}
        }
    }
    None
}

/// Lints one source file.  `file` (workspace-relative when walked) decides
/// what binds: test code has only the rows that take tests, the
/// `benchmark/` harness only the rows that take it, and each pattern binds
/// under its paths and outside its owners.
pub fn lint_source(file: &str, source: &str) -> Vec<LintFinding> {
    let path = Path::new(file);
    let test_file = ["tests", "bin", "examples"].iter().any(|d| within(path, d))
        || path
            .file_name()
            .is_some_and(|f| f == "main.rs" || f == "build.rs");
    let benchmark = !test_file && within(path, "benchmark");
    let live: Vec<(&Rule, &Find)> = RULES
        .iter()
        .filter(|r| (r.tests || !test_file) && (r.benchmark || !benchmark))
        .flat_map(|r| {
            r.finds
                .iter()
                .filter(|f| f.binds(path))
                .map(move |f| (r, f))
        })
        .collect();
    let lines = mask(source);
    let mut findings: Vec<LintFinding> = Vec::new();
    // The braced item after a #[cfg(test)] is test code: its region opens
    // at that brace (at whatever depth it sits), is active on every line
    // that starts inside it, and closes once the depth returns to the
    // floor.  An item that ends at a `;` first opens no region.
    let mut pending: Option<i64> = None;
    let mut test_floor: Option<i64> = None;
    let mut entered = false;
    for (idx, line) in lines.iter().enumerate() {
        if let Some(floor) = test_floor {
            if line.depth_at_start > floor {
                entered = true;
            } else if entered {
                test_floor = None;
                entered = false;
            }
        }
        let mut header = line.code.as_str();
        if let Some(at) = header.find("#[cfg(test)]") {
            pending = Some(0);
            header = &header[at + "#[cfg(test)]".len()..];
        }
        if let Some(nest) = pending.as_mut() {
            match item_end(header, nest) {
                Some('{') if test_floor.is_none() => {
                    test_floor = Some(line.depth_at_start);
                    entered = false;
                    pending = None;
                }
                Some(_) => pending = None,
                None => {}
            }
        }
        let in_test = test_floor.is_some_and(|floor| line.depth_at_start > floor);

        let first = findings.len();
        for &(rule, find) in &live {
            if (in_test && !rule.tests)
                || !(find.matcher)(&lines, idx, find.pattern)
                || rule.lifted(&lines, idx, find.pattern)
            {
                continue;
            }
            let detail = rule.details[find.detail].replace("{}", find.pattern);
            // A row reports a line once per distinct detail.
            if !findings[first..]
                .iter()
                .any(|f| f.rule == rule.id && f.detail == detail)
            {
                findings.push(LintFinding {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: rule.id,
                    detail,
                });
            }
        }
    }
    findings
}

/// Recursively collects the workspace `.rs` files under `root`, skipping
/// `target/` and `.git/`.  Sorted for deterministic output.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_str().unwrap_or("");
            if path.is_dir() {
                if matches!(name, "target" | ".git" | "node_modules") {
                    continue;
                }
                walk(&path, out)?;
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(root, &mut out)?;
    out.sort();
    Ok(out)
}

/// Lints every workspace source under `root`.  Returns the number of
/// files scanned and all findings, sorted by (file, line).
pub fn lint_workspace(root: &Path) -> io::Result<(usize, Vec<LintFinding>)> {
    let files = workspace_files(root)?;
    let mut findings = Vec::new();
    for path in &files {
        let source = fs::read_to_string(path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned();
        findings.extend(lint_source(&label, &source));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok((files.len(), findings))
}

/// One corpus case: `(name, expected (rule, line) findings, source)`; the
/// name is the path the source is linted as.
type CorpusCase = (&'static str, &'static [(&'static str, usize)], &'static str);

/// Built-in corpus: every row fires in some case and stays quiet in an
/// annotated or out-of-scope twin; `--self-test` runs it.
#[rustfmt::skip]
static CORPUS: &[CorpusCase] = &[
    ("unsafe-missing", &[("unsafe-needs-safety", 2)],
        "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n"),
    ("unsafe-justified", &[],
        "fn f() {\n    // SAFETY: the branch is unreachable by construction\n    unsafe { core::hint::unreachable_unchecked() }\n}\n"),
    ("unsafe-in-string-or-comment", &[],
        "fn f() {\n    let _ = \"unsafe .unwrap()\";\n    // unsafe in a comment is fine\n}\n"),
    ("ordering-missing", &[("atomic-ordering-needs-justification", 2)],
        "fn f(a: &AtomicU64) {\n    a.load(Ordering::Acquire);\n}\n"),
    ("ordering-wrong-variant-named", &[("atomic-ordering-needs-justification", 3)],
        "fn f(a: &AtomicU64) {\n    // ORDERING: Relaxed is fine here\n    a.load(Ordering::Acquire);\n}\n"),
    ("ordering-justified", &[],
        "fn f(a: &AtomicU64) {\n    // ORDERING: Acquire pairs with the Release store in publish()\n    a.load(Ordering::Acquire);\n}\n"),
    ("cmp-ordering-ignored", &[],
        "fn f(x: u32) -> std::cmp::Ordering {\n    if x == 0 { std::cmp::Ordering::Less } else { std::cmp::Ordering::Greater }\n}\n"),
    ("bare-unwrap", &[("no-bare-unwrap", 2)],
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n"),
    ("literal-expect-is-annotated", &[],
        "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"present by the caller contract\")\n}\n"),
    ("non-literal-expect", &[("no-bare-unwrap", 2)],
        "fn f(x: Option<u32>, msg: &str) -> u32 {\n    x.expect(msg)\n}\n"),
    ("wrapped-literal-expect-is-annotated", &[],
        "fn f(x: Option<u32>) -> u32 {\n    x.expect(\n        \"a long invariant message that rustfmt wrapped\",\n    )\n}\n"),
    ("allowed-unwrap", &[],
        "fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW: x is Some by the caller contract\n    x.unwrap()\n}\n"),
    ("unwrap-or-is-fine", &[],
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0) + x.unwrap_or_default()\n}\n"),
    ("expect-named-method-is-fine", &[],
        "fn f(p: &mut Parser) {\n    p.expect_byte(b'{');\n}\n"),
    ("cfg-test-region-exempt", &[],
        "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n"),
    ("cfg-test-use-opens-no-region", &[("no-bare-unwrap", 4)],
        "#[cfg(test)]\nuse std::collections::HashSet;\npub fn lib(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n"),
    ("cfg-test-mod-declaration-opens-no-region", &[("no-bare-unwrap", 4)],
        "#[cfg(test)]\nmod tests;\npub fn lib(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n"),
    ("cfg-test-array-type-still-opens-its-region", &[],
        "#[cfg(test)]\nfn helper(b: [u8; 2]) -> u8 {\n    Some(b[0]).unwrap()\n}\n"),
    ("unwrap-after-test-region-still-checked", &[("no-bare-unwrap", 6)],
        "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\nfn lib(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n"),
    ("raw-string-and-char-masked", &[],
        "fn f<'a>(s: &'a str) -> usize {\n    let r = r#\"contains .unwrap() and unsafe\"#;\n    let c = '\\'';\n    r.len() + s.len() + (c as usize)\n}\n"),
    ("chain-for-tip", &[("no-chain-for-tip", 2), ("no-chain-for-tip", 3)],
        "fn parents(r: &Replica, f: &dyn SelectionFunction, t: &BlockTree) -> (Block, Block) {\n    let a = r.selected().tip().clone();\n    let b = f.select(t.as_ref()).tip().clone();\n    (a, b)\n}\n"),
    ("tip-lookup-is-clean", &[],
        "fn parent(r: &Replica, f: &dyn SelectionFunction, t: &BlockTree) -> Block {\n    let chain = f.select(t);\n    let _ = (chain.tip(), r.tip(), r.selected().len());\n    // LINT-ALLOW: the whole chain is recorded on the next line anyway\n    let _ = r.selected().tip();\n    t.block_at(f.select_tip(t)).clone()\n}\n#[cfg(test)]\nmod tests {\n    fn t(r: &Replica) { r.selected().tip(); }\n}\n"),
    ("allocating-encode", &[("no-allocating-encode", 2), ("no-allocating-encode", 3)],
        "fn persist(medium: &mut SimMedium, file: &str, block: &Block) {\n    let record = encode_record(block);\n    medium.append(file, &codec::encode_record(block));\n    drop(record);\n}\n"),
    ("in-place-encode-is-clean", &[],
        "pub use codec::{encode_record, encode_record_into};\nfn persist(buf: &mut Vec<u8>, block: &Block, chunk: &mut ChunkSum) -> usize {\n    let sum = encode_record_into(buf, block);\n    chunk.push(sum.expect(\"fits\"));\n    // LINT-ALLOW: a one-off probe wants the record's length, not a run\n    encode_record(block).len()\n}\n#[cfg(test)]\nmod tests {\n    fn t(b: &Block) { encode_record(b); }\n}\n"),
    ("uncapped-delta", &[("delta-needs-cap", 2), ("delta-needs-cap", 3)],
        "fn reply(t: &BlockTree, h: u64) -> Vec<Block> {\n    let all: Vec<Block> = t.delta_above(h).cloned().collect();\n    let _ = BlockTree::delta_above(t, h).count();\n    all\n}\n"),
    ("capped-delta-is-clean", &[],
        "pub fn delta_above(&self, height: u64) -> Delta<'_> {\n    self.walk(height)\n}\nfn reply(t: &BlockTree, h: u64) -> (Vec<Block>, usize) {\n    let batch = t\n        .delta_above(h)\n        .filter(|b| b.height > 0)\n        .take(MAX_SYNC_BATCH)\n        .cloned()\n        .collect();\n    // LINT-ALLOW: an audit walks the whole index on purpose\n    let n = t.delta_above(h).count();\n    (batch, n)\n}\n#[cfg(test)]\nmod tests {\n    fn t(t: &BlockTree) { t.delta_above(0).count(); }\n}\n"),
    ("payload-copy", &[("no-payload-copy", 2), ("no-payload-copy", 3), ("no-payload-copy", 4)],
        "fn rebuild(b: &Block, parent: &Block) -> (Block, Vec<Transaction>) {\n    let copy = BlockBuilder::new(parent).payload(b.payload.to_vec()).build();\n    let txs: Vec<Transaction> = b.payload.iter().copied().collect();\n    let again: Vec<Transaction> = b.payload.iter().cloned()\n        .filter(|tx| tx.amount > 0)\n        .collect();\n    (copy, txs.into_iter().chain(again).collect())\n}\n"),
    ("shared-payload-is-clean", &[],
        "fn rebuild(b: &Block, parent: &Block) -> (Block, u64) {\n    let shared = BlockBuilder::new(parent).payload(b.payload.clone()).build();\n    let total = b.payload.iter().copied().map(|tx| tx.amount).sum();\n    // LINT-ALLOW: the caller mutates its own copy\n    let _mine = b.payload.to_vec();\n    (shared, total)\n}\n#[cfg(test)]\nmod tests {\n    fn t(b: &Block) -> Vec<Transaction> { b.payload.to_vec() }\n}\n"),
    ("leaf-scan", &[("no-leaf-scan", 2), ("no-leaf-scan", 4)],
        "fn audit(t: &BlockTree) -> usize {\n    let leaves = t.leaves();\n    let chains = t\n        .all_chains();\n    leaves.len() + chains.len()\n}\n"),
    ("leaf-count-is-clean", &[],
        "pub fn leaves(&self) -> Vec<BlockId> {\n    self.scan()\n}\nfn audit(t: &BlockTree) -> usize {\n    // LINT-ALLOW: a report lists every branch once, off the hot path\n    let chains = t.all_chains();\n    t.leaf_count() + chains.len() + t.best_leaf_by_height(true).0 as usize\n}\n#[cfg(test)]\nmod tests {\n    fn t(t: &BlockTree) { t.leaves(); }\n}\n"),
    ("crates/core/src/criteria/pair-loop.rs", &[("no-pair-loop", 4), ("no-pair-loop", 7)],
        "fn judge(reads: &[Chain]) -> usize {\n    let mut n = 0;\n    for i in 0..reads.len() {\n        for j in (i + 1)..reads.len() {\n            n += usize::from(reads[i] != reads[j]);\n        }\n        for j in i + 1..reads.len() { n += j; }\n    }\n    n\n}\n"),
    ("crates/core/src/criteria/bounded-pair-loop-is-clean.rs", &[],
        "fn judge(reads: &[Chain], rows: &[usize]) -> usize {\n    let mut n = 0;\n    for &i in rows {\n        // LINT-ALLOW: only the rows that hold a violation, at most DETAIL_CAP\n        for j in (i + 1)..reads.len() {\n            n += usize::from(reads[i] != reads[j]);\n        }\n    }\n    for k in (n + 2)..8 { n += k; }\n    for j in 1..n { n += j; }\n    let _ = (n + 1..9).count();\n    n\n}\n#[cfg(test)]\nmod tests {\n    fn t(r: &[u8]) { for i in 0..r.len() { for j in (i + 1)..r.len() {} } }\n}\n"),
    ("prune-door", &[("one-prune-door", 2), ("one-prune-door", 3)],
        "fn shrink(t: &BlockTree, root: Block, s: &mut BlockStore, keep: &HashSet<BlockId>) -> BlockTree {\n    s.prune(&keep, 9);\n    let window = BlockTree::rerooted(root);\n    window\n}\n"),
    ("prune-through-the-core-is-clean", &[],
        "pub fn prune(&mut self, depth: u64) -> Option<PruneOutcome> {\n    self.prune_inner(depth)\n}\nfn shrink(core: &mut ReplicaCore, s: BlockStore, keep: &HashSet<BlockId>) -> BlockTree {\n    core.prune(16);\n    let _ = s.prune_crashing_before_commit(&keep, 9);\n    // LINT-ALLOW: a throwaway tree interned from recorded chains, not a window\n    let fresh = BlockTree::rerooted(Block::genesis());\n    fresh\n}\n#[cfg(test)]\nmod tests {\n    fn t(s: &mut BlockStore, k: &HashSet<BlockId>) { s.prune(&k, 3); BlockTree::rerooted(Block::genesis()); }\n}\n"),
    ("crates/protocols/src/chain-per-read.rs", &[("no-chain-per-read", 2), ("no-chain-per-read", 3), ("no-chain-per-read", 5)],
        "fn read(log: &mut Vec<Blockchain>, tree: &BlockTree, tip: NodeIdx) {\n    log.push(tree.chain_to_idx(tip));\n    let again = BlockTree::chain_to_idx(tree, tip);\n    log.push(again);\n    log.extend(tree.chain_to(tree.block_at(tip).id));\n}\n"),
    ("crates/core/src/read-by-id-is-a-chain-per-read.rs", &[("no-chain-per-read", 3)],
        "fn read(spines: &mut ReadSpines, tree: &BlockTree, tip: NodeIdx) -> Blockchain {\n    spines.record(tree, tip);\n    let _ = tree.chain_to(tree.block_at(tip).id);\n    // LINT-ALLOW: a report prints one chain, off the replica's path\n    tree.chain_to_idx(tip)\n}\n#[cfg(test)]\nmod tests {\n    fn t(t: &BlockTree, tip: NodeIdx) { t.chain_to_idx(tip); t.chain_to(t.genesis().id); }\n}\n"),
    ("crates/core/src/read-through-the-recorder-is-clean.rs", &[],
        "pub fn chain_to(&self, id: BlockId) -> Option<Blockchain> {\n    self.idx_of(id).map(|idx| self.walk(idx))\n}\nfn read(spines: &mut ReadSpines, tree: &BlockTree, tip: NodeIdx) -> (usize, usize) {\n    spines.record(tree, tip)\n}\nfn valid(tree: &BlockTree, parent: BlockId) -> bool {\n    // LINT-ALLOW: the spec's validity context is the whole chain\n    tree.chain_to(parent).is_some()\n}\n"),
    ("crates/oracle/src/second-k.rs", &[("one-k-door", 2), ("one-k-door", 3), ("one-k-door", 6), ("one-k-door", 8)],
        "struct Oracle {\n    slots: Vec<Vec<Block>>,\n    consumed_serials: HashSet<u64>,\n}\nfn fresh(o: &Oracle, serial: u64) -> bool {\n    !o.consumed_serials.contains(&serial) && o.slots.len() < 9\n}\ntype Slab = Vec< Vec<Block> >;\n"),
    ("crates/oracle/src/k-through-the-arena-is-clean.rs", &[],
        "fn consume(slots: &mut SlotArena, grant: &TokenGrant, consumed_serials_seen: u64) -> bool {\n    // a consumed_serials set is what this replaced\n    let chains: Vec<Vec<BlockId>> = Vec::new();\n    // LINT-ALLOW: a throwaway copy for a report, not the oracle's state\n    let report: Vec<Vec<Block>> = Vec::new();\n    slots.consume(grant, Some(1)) && chains.is_empty() && report.is_empty() && consumed_serials_seen > 0\n}\n#[cfg(test)]\nmod tests {\n    struct Reference { consumed_serials: HashSet<u64>, slots: Vec<Vec<Block>> }\n}\n"),
    ("crates/store/src/private-splitmix.rs", &[("one-rng", 2), ("one-rng", 3), ("one-rng", 6), ("one-rng", 9)],
        "fn mix(mut x: u64) -> u64 {\n    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);\n    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);\n    x ^ (x >> 31)\n}\nconst SIGMA: [u32; 1] = [0x6170_7865];\n#[cfg(test)]\nmod tests {\n    const K: u64 = 0xbf58_476d_1ce4_e5b9;\n}\n"),
    ("crates/types/src/rng.rs", &[],
        "// a comment may name 0xbf58_476d_1ce4_e5b9 anywhere\nconst SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];\nfn mix64(x: u64) -> u64 {\n    let z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);\n    let _ = \"0x94d0_49bb_1331_11eb\";\n    (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb)\n}\n"),
    ("crates/core/src/criteria/own-index.rs", &[("one-judge-index", 2), ("one-judge-index", 3)],
        "fn check(&self, history: &BtHistory) -> Verdict {\n    let index = ReadIndex::new(history, self.score.as_ref());\n    let forest = crate::reachability::ReachForest::from_chains(index.chains());\n    self.judge(&index, forest)\n}\n"),
    ("crates/core/src/criteria/index.rs", &[],
        "fn new(history: &BtHistory, needs: Needs<'_>) -> JudgeIndex<'_> {\n    let by_process = ReadIndex::new(&reads, &record_at);\n    let forest = ReachForest::from_chains(reads.iter().map(|(_, c)| *c));\n    JudgeIndex { by_process, forest }\n}\n#[cfg(test)]\nmod tests {\n    fn t(c: &[Blockchain]) { ReachForest::from_chains(c); }\n}\n"),
    ("block-comment-masked", &[],
        "/* unsafe\n   .unwrap()\n   Ordering::SeqCst */\nfn f() {}\n"),
];

/// Runs the embedded corpus; returns the number of cases on success or a
/// description of the first mismatch.
pub fn self_test() -> Result<usize, String> {
    for (name, expected, source) in CORPUS {
        let got: Vec<(&str, usize)> = lint_source(name, source)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect();
        if got != *expected {
            return Err(format!(
                "corpus case `{name}`: expected {expected:?}, got {got:?}"
            ));
        }
    }
    Ok(CORPUS.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<(&'static str, usize)> {
        lint_source(path, src)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn corpus_self_test_passes() {
        self_test().expect("corpus verdicts match");
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        for (name, expected, _) in CORPUS {
            for (rule, _) in *expected {
                assert!(
                    ids.contains(rule),
                    "case `{name}` names `{rule}`, not a row"
                );
            }
        }
        // Every row fires in some case and stays quiet in another that
        // mentions one of its patterns (case and `_` ignored).
        let norm = |s: &str| s.replace('_', "").to_ascii_lowercase();
        for rule in &RULES {
            let fires = |c: &CorpusCase| c.1.iter().any(|(r, _)| *r == rule.id);
            let mentions = |c: &CorpusCase| {
                rule.finds
                    .iter()
                    .any(|f| norm(c.2).contains(&norm(f.pattern)))
            };
            assert!(CORPUS.iter().any(fires), "{} never fires", rule.id);
            assert!(
                CORPUS.iter().any(|c| !fires(c) && mentions(c)),
                "{} has no clean case",
                rule.id
            );
        }
    }

    #[test]
    fn the_analysis_table_lists_the_registry() {
        let doc = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/ANALYSIS.md");
        let doc = fs::read_to_string(doc).expect("docs/ANALYSIS.md");
        let section = doc
            .split("\n## ")
            .find(|s| s.starts_with("3. "))
            .expect("a section 3");
        let table: Vec<&str> = section
            .lines()
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .collect();
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(table, ids);
    }

    #[test]
    fn lifetimes_do_not_confuse_the_char_scanner() {
        let src = "fn f<'a, 'b>(x: &'a str, y: &'b str) -> usize { x.len() + y.len() }\n";
        assert!(lint_source("t", src).is_empty());
    }

    #[test]
    fn same_line_justification_counts() {
        let src =
            "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed) } // ORDERING: Relaxed, a counter\n";
        assert!(lint_source("t", src).is_empty());
    }

    #[test]
    fn lookback_window_is_bounded() {
        let src = "// ORDERING: SeqCst explained too far away\n\n\n\n\nfn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n";
        assert_eq!(
            rules("t", src),
            [("atomic-ordering-needs-justification", 6)]
        );
    }

    #[test]
    fn exempt_paths_skip_only_the_unwrap_rule() {
        let src =
            "fn main() { std::fs::read(\"x\").unwrap(); let _ = A.load(Ordering::SeqCst); }\n";
        assert_eq!(
            rules("src/bin/tool.rs", src),
            [("atomic-ordering-needs-justification", 1)]
        );
    }

    #[test]
    fn the_pair_loop_rule_binds_only_the_criteria() {
        let src = "fn f(r: &[u8]) -> usize {\n    let mut n = 0;\n    for i in 0..r.len() {\n        for j in (i + 1)..r.len() { n += j; }\n    }\n    n\n}\n";
        assert_eq!(
            rules("crates/core/src/criteria/strong_prefix.rs", src),
            [("no-pair-loop", 4)]
        );
        for elsewhere in [
            "crates/core/src/reachability.rs",
            "crates/core/tests/criteria/scale.rs",
            "crates/bench/src/scenarios.rs",
            "benchmark/src/criteria/judge.rs",
        ] {
            assert!(rules(elsewhere, src).is_empty(), "{elsewhere}");
        }
    }

    #[test]
    fn the_prune_door_is_the_durable_core() {
        let src = "fn f(t: &BlockTree, s: &mut BlockStore, k: &HashSet<BlockId>) {\n    let _ = BlockTree::rerooted(t.genesis().clone());\n    s.prune(&k, 8);\n}\n";
        assert!(rules("crates/store/src/durable.rs", src).is_empty());
        assert_eq!(
            rules("crates/types/src/tree.rs", src),
            [("one-prune-door", 3)]
        );
        assert_eq!(
            rules("crates/store/src/store.rs", src),
            [("one-prune-door", 2), ("one-prune-door", 3)]
        );
        assert!(rules("crates/store/tests/crash_prefixes.rs", src).is_empty());
    }

    #[test]
    fn a_chain_per_read_is_refused_outside_the_types_crate() {
        let src = "fn f(t: &BlockTree, tip: NodeIdx) -> Blockchain {\n    t.chain_to_idx(tip)\n}\n";
        for owner in ["crates/types/src/tree.rs", "crates/types/src/selection.rs"] {
            assert!(rules(owner, src).is_empty(), "{owner}");
        }
        for library in [
            "crates/protocols/src/pow.rs",
            "crates/types/benches/walk.rs",
            "crates/bench/src/scenarios.rs",
        ] {
            assert_eq!(rules(library, src), [("no-chain-per-read", 2)], "{library}");
        }
        for test in [
            "crates/protocols/tests/recorded_reads.rs",
            "crates/types/tests/props.rs",
        ] {
            assert!(rules(test, src).is_empty(), "{test}");
        }
    }

    #[test]
    fn a_chain_by_id_is_refused_where_histories_are_recorded() {
        let src =
            "fn f(t: &BlockTree, id: BlockId) -> Option<Blockchain> {\n    t.chain_to(id)\n}\n";
        for recorder in [
            "crates/core/src/hierarchy.rs",
            "crates/protocols/src/pow.rs",
        ] {
            assert_eq!(
                rules(recorder, src),
                [("no-chain-per-read", 2)],
                "{recorder}"
            );
        }
        for elsewhere in [
            "crates/types/src/tree.rs",
            "crates/bench/src/scenarios.rs",
            "crates/core/tests/contended_reads.rs",
            "crates/protocols/tests/recorded_reads.rs",
        ] {
            assert!(rules(elsewhere, src).is_empty(), "{elsewhere}");
        }
    }

    #[test]
    fn the_k_door_binds_only_the_oracle_sources() {
        let src = "struct Reference {\n    consumed_serials: HashSet<u64>,\n    slots: Vec<Vec<Block>>,\n}\n";
        for oracle in ["crates/oracle/src/oracle.rs", "crates/oracle/src/pow.rs"] {
            assert_eq!(
                rules(oracle, src),
                [("one-k-door", 2), ("one-k-door", 3)],
                "{oracle}"
            );
        }
        for elsewhere in [
            "crates/oracle/tests/k_reference.rs",
            "crates/concurrent/src/blocktree.rs",
            "crates/bench/src/scenarios.rs",
        ] {
            assert!(rules(elsewhere, src).is_empty(), "{elsewhere}");
        }
    }

    #[test]
    fn generator_constants_live_only_in_the_rng_module() {
        let src = "#[cfg(test)]\nmod tests {\n    fn step(z: u64) -> u64 { z.wrapping_mul(0xBF58_476D_1CE4_E5B9) }\n}\n";
        assert!(rules("crates/types/src/rng.rs", src).is_empty());
        assert!(rules("benchmark/src/gen.rs", src).is_empty());
        for elsewhere in [
            "crates/types/src/tree.rs",
            "crates/concurrent/src/fault.rs",
            "crates/pipeline/tests/equivalence.rs",
            "crates/bench/src/bin/store.rs",
            "crates/shims/rand_chacha/src/lib.rs",
            "benchmark/src/main.rs",
        ] {
            assert_eq!(rules(elsewhere, src), [("one-rng", 3)], "{elsewhere}");
        }
    }

    #[test]
    fn workspace_walk_finds_this_file_and_skips_target() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root).expect("walk");
        assert!(files
            .iter()
            .any(|p| p.ends_with("crates/check/src/lint.rs")));
        assert!(files
            .iter()
            .all(|p| !p.components().any(|c| c.as_os_str() == "target")));
    }
}
