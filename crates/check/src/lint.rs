//! Dependency-free, token-level lint pass for the workspace sources.
//!
//! Twelve rules: three about keeping the concurrency story auditable, one
//! about keeping tip lookups O(1), one about keeping the durable write path
//! allocation-free, one about keeping a delta-sync reply as cheap as what
//! it sends, one about keeping one copy of a block's transactions, one
//! about keeping whole-tree leaf scans off library paths, one about
//! keeping the consistency checkers off all-pairs loops, one about keeping
//! one pruning path, one about keeping a recorded read as cheap as what
//! changed, one about keeping one copy of the oracle's `K[]`:
//!
//! | Rule id | Requirement |
//! |---|---|
//! | `unsafe-needs-safety` | every `unsafe` token carries a `// SAFETY:` comment on the same line or within the 3 lines above |
//! | `atomic-ordering-needs-justification` | every *atomic* `Ordering::` variant (`Relaxed`, `Acquire`, `Release`, `AcqRel`, `SeqCst`) carries a `// ORDERING:` comment within the same window that **names the variant** |
//! | `no-bare-unwrap` | no `.unwrap()` and no `.expect(` with a non-literal argument in non-test library code unless the line (or a line in the window above) carries `// LINT-ALLOW: <reason>` — `.expect("message")` with a string-literal invariant message *is* the annotated form |
//! | `no-chain-for-tip` | no `.selected().tip()` / `.select(…).tip()` on one line in non-test library code unless `// LINT-ALLOW: <reason>` — that builds an O(height) chain to look at one block; ask `SelectionFunction::select_tip` (or the replica's `tip()`) instead |
//! | `no-allocating-encode` | no `encode_record(` call in non-test library code outside `codec.rs` unless `// LINT-ALLOW: <reason>` — it allocates a buffer per record and its sum feeds no chunk; the store's writer encodes with `encode_record_into` into its reused run buffer |
//! | `delta-needs-cap` | every `delta_above(` call in non-test library code reaches a `.take(` on the same line or within the next 3 lines, unless `// LINT-ALLOW: <reason>` — the walk is lazy, so an uncapped one costs the whole tree above the floor |
//! | `no-payload-copy` | no `.payload.to_vec()` and no `.payload.iter().cloned()` / `.copied()` reaching a `.collect` within the next 3 lines in non-test library code unless `// LINT-ALLOW: <reason>` — a block's `Payload` is shared and immutable, so a holder clones the handle (`.payload.clone()`) instead of copying the transactions |
//! | `no-leaf-scan` | no `.leaves()` and no `.all_chains()` call in non-test library code unless `// LINT-ALLOW: <reason>` — the tree keeps a leaf *count*, not a leaf set, so each is an O(n) scan of the arena plus a sort; ask `leaf_count()` or a best-tip query instead |
//! | `no-pair-loop` | in non-test library code under `crates/core/src/criteria/`, no `for` whose range starts at `(<ident> + 1)..` (or `<ident> + 1..`) unless `// LINT-ALLOW: <reason>` — the inner half of an all-pairs loop is O(R²) over a history's reads; count with an index (`ReachForest::diverging_later`) and say why what is left is bounded |
//! | `one-prune-door` | in non-test library code, no `BlockTree::rerooted(` outside `types/src/tree.rs` and `store/src/durable.rs`, and no `BlockStore::prune` call (`.prune(&`) outside `store/src/durable.rs`, unless `// LINT-ALLOW: <reason>` — a replica's window is rebuilt and its store collected in one place, `ReplicaCore::prune`, so a second pruning path cannot drift from it |
//! | `no-chain-per-read` | in non-test library code, no `chain_to_idx(` call outside `crates/types/src` unless `// LINT-ALLOW: <reason>` — it copies the whole O(height) path from the root; a replica records a read with `ReplicaLog::record_read(at, tree, tip)`, which pushes only the blocks that differ from its spine |
//! | `one-k-door` | in non-test library code under `crates/oracle/src`, no `consumed_serials` identifier and no `Vec<Vec<Block>>` unless `// LINT-ALLOW: <reason>` — `K[]` lives and changes only inside `SlotArena` (one arena cell per accepted token; freshness is "serial not in `K[h]`"), so a second set of consumed serials or a vector per parent cannot come back beside it |
//!
//! `std::cmp::Ordering` variants (`Less`/`Equal`/`Greater`) never trigger
//! the ordering rule — only the five atomic variants are matched.
//!
//! The scanner is a small hand-rolled tokenizer, not a regex pass: it
//! masks out string literals (including raw and byte strings), char
//! literals (without eating lifetimes), and line/nested-block comments,
//! so `"contains .unwrap()"` in a string or an `unsafe` in a doc comment
//! cannot produce findings.  Test code is exempt from the ten library
//! rules (`no-bare-unwrap`, `no-chain-for-tip`, `no-allocating-encode`,
//! `delta-needs-cap`, `no-payload-copy`, `no-leaf-scan`, `no-pair-loop`,
//! `one-prune-door`, `no-chain-per-read`, `one-k-door`) only: files under
//! a `tests/` directory, `src/bin/` entry points, `main.rs`/`build.rs`, and
//! `#[cfg(test)]` brace regions (tracked by depth); the frozen `benchmark/`
//! harness is additionally exempt from `no-chain-for-tip`,
//! `no-allocating-encode` (its probe times `encode_record` itself) and
//! `no-payload-copy`, and `codec.rs`, which defines the wrapper, from
//! `no-allocating-encode`; `no-pair-loop` applies under a `criteria/`
//! directory only.  The
//! justification rules apply *everywhere*, tests included — a memory
//! ordering deserves a reason even in a test.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule id: `unsafe` without a `// SAFETY:` comment.
pub const RULE_SAFETY: &str = "unsafe-needs-safety";
/// Rule id: atomic `Ordering::` variant without a naming `// ORDERING:` comment.
pub const RULE_ORDERING: &str = "atomic-ordering-needs-justification";
/// Rule id: bare `.unwrap()` / `.expect(` in non-test library code.
pub const RULE_UNWRAP: &str = "no-bare-unwrap";
/// Rule id: a whole chain materialised to read its last block.
pub const RULE_CHAIN_FOR_TIP: &str = "no-chain-for-tip";
/// Rule id: the allocating record encoder called on a library path.
pub const RULE_ALLOC_ENCODE: &str = "no-allocating-encode";
/// Rule id: a delta-sync walk that is not capped.
pub const RULE_DELTA_CAP: &str = "delta-needs-cap";
/// Rule id: a block's shared payload copied transaction by transaction.
pub const RULE_PAYLOAD_COPY: &str = "no-payload-copy";
/// Rule id: a whole-tree leaf scan on a library path.
pub const RULE_LEAF_SCAN: &str = "no-leaf-scan";
/// Rule id: the inner half of an all-pairs loop in a consistency checker.
pub const RULE_PAIR_LOOP: &str = "no-pair-loop";
/// Rule id: a window rebuilt or a store pruned outside `ReplicaCore::prune`.
pub const RULE_PRUNE_DOOR: &str = "one-prune-door";
/// Rule id: a whole chain copied out of a tree outside the types crate.
pub const RULE_CHAIN_PER_READ: &str = "no-chain-per-read";
/// Rule id: the oracle's `K[]` is kept and changed only in `SlotArena`.
pub const RULE_K_DOOR: &str = "one-k-door";

const ATOMIC_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
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
    /// One of the `RULE_*` ids.
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

/// `true` iff the masked code line selects a whole chain only to take its
/// last block: `.selected().tip()` or `.select(<args>).tip()`.
fn chain_for_tip(code: &str) -> bool {
    if code.contains(".selected().tip()") {
        return true;
    }
    code.match_indices(".select(").any(|(p, pat)| {
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

/// `true` iff the masked code line calls the allocating record encoder:
/// `encode_record(` as a whole name (`encode_record_into(` is the in-place
/// one).
fn allocating_encode(code: &str) -> bool {
    code.match_indices("encode_record(").any(|(p, _)| {
        let pre = code[..p].chars().next_back();
        !pre.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

/// `true` iff the masked code line calls `delta_above(` — as a method or
/// path call, not where it is defined.
fn delta_call(code: &str) -> bool {
    code.match_indices("delta_above(").any(|(p, _)| {
        let pre = &code[..p];
        let definition = pre
            .trim_end()
            .strip_suffix("fn")
            .is_some_and(|rest| !ident_tail(rest));
        !ident_tail(pre) && !definition
    })
}

/// `true` iff the masked code at `lines[idx]` copies a block's payload
/// out: `.payload.to_vec()`, or `.payload.iter().cloned()` /
/// `.payload.iter().copied()` that reaches a `.collect` on the same line or
/// within the next [`LOOKAHEAD`] lines.
fn payload_copy(lines: &[LineView], idx: usize) -> bool {
    let code = &lines[idx].code;
    if code.contains(".payload.to_vec()") {
        return true;
    }
    let iterated = [".payload.iter().cloned()", ".payload.iter().copied()"]
        .iter()
        .any(|pat| code.contains(pat));
    iterated
        && lines[idx..lines.len().min(idx + 1 + LOOKAHEAD)]
            .iter()
            .any(|l| l.code.contains(".collect"))
}

/// `true` iff the masked code line enumerates the tree's leaves:
/// `.leaves()` or `.all_chains()`.
fn leaf_scan(code: &str) -> bool {
    code.contains(".leaves()") || code.contains(".all_chains()")
}

/// `true` iff the masked code line opens a `for` loop whose range starts
/// one past a variable: `for <pat> in (<ident> + 1)..` or
/// `for <pat> in <ident> + 1..` — the inner half of an all-pairs loop.
fn pair_loop(code: &str) -> bool {
    code.match_indices("for ").any(|(p, _)| {
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

/// `true` iff the masked code line in `file` rebuilds a tree window or
/// prunes a store outside the files that own pruning: a
/// `BlockTree::rerooted(` call outside `types/src/tree.rs` (which defines
/// it) and `store/src/durable.rs`, or a `.prune(&` call outside
/// `store/src/durable.rs`.
fn prune_door(file: &str, code: &str) -> bool {
    let owner = |suffix: &str| Path::new(file).ends_with(suffix);
    let rerooted = code.contains("BlockTree::rerooted(")
        && !owner("types/src/tree.rs")
        && !owner("store/src/durable.rs");
    rerooted || (code.contains(".prune(&") && !owner("store/src/durable.rs"))
}

/// `true` iff the masked code line in `file` copies a root-to-tip path
/// out of a tree (`chain_to_idx(`) outside `crates/types/src`, which
/// defines it and builds `SelectionFunction::select` on it.
fn chain_per_read(file: &str, code: &str) -> bool {
    code.contains("chain_to_idx(")
        && !Path::new(file)
            .ancestors()
            .any(|dir| dir.ends_with("crates/types/src"))
}

/// `true` iff the masked code line in `file`, under `crates/oracle/src`,
/// keeps `K[]` state beside `SlotArena`: a `consumed_serials` identifier
/// or a `Vec<Vec<Block>>` (spaces ignored).
fn k_door(file: &str, code: &str) -> bool {
    let compact: String = code.split_whitespace().collect();
    (has_word(code, "consumed_serials") || compact.contains("Vec<Vec<Block>>"))
        && Path::new(file)
            .ancestors()
            .any(|dir| dir.ends_with("crates/oracle/src"))
}

/// Lints one source file.  `exempt` lists the library-only rules
/// ([`RULE_UNWRAP`], [`RULE_CHAIN_FOR_TIP`], [`RULE_ALLOC_ENCODE`],
/// [`RULE_DELTA_CAP`], [`RULE_PAYLOAD_COPY`], [`RULE_LEAF_SCAN`],
/// [`RULE_PAIR_LOOP`], [`RULE_PRUNE_DOOR`], [`RULE_CHAIN_PER_READ`],
/// [`RULE_K_DOOR`]) the whole file is exempt
/// from (test files, binaries); `#[cfg(test)]` regions are detected
/// internally on top of it.
pub fn lint_source(file: &str, source: &str, exempt: &[&str]) -> Vec<LintFinding> {
    let lines = mask(source);
    let mut findings = Vec::new();
    // cfg(test) region tracking: after a line mentions #[cfg(test)], the
    // region opened by the next brace (at whatever depth the opener sits)
    // is test code until that brace closes.
    let mut pending_cfg_test = false;
    let mut test_floor: Option<i64> = None;
    let mut entered = false;
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        // A test region opens at the brace following #[cfg(test)] and is
        // active on every line whose starting depth is below (inside) it;
        // it closes once the depth returns to the floor after entry.
        if let Some(floor) = test_floor {
            if line.depth_at_start > floor {
                entered = true;
            } else if entered {
                test_floor = None;
                entered = false;
            }
        }
        if line.code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }
        if pending_cfg_test && test_floor.is_none() && line.code.contains('{') {
            test_floor = Some(line.depth_at_start);
            entered = false;
            pending_cfg_test = false;
        }
        let in_test = test_floor.is_some_and(|floor| line.depth_at_start > floor);

        if has_word(&line.code, "unsafe") && !justified(&lines, idx, "SAFETY:", None) {
            findings.push(LintFinding {
                file: file.to_string(),
                line: lineno,
                rule: RULE_SAFETY,
                detail: "`unsafe` without a `// SAFETY:` justification".to_string(),
            });
        }
        for variant in ATOMIC_VARIANTS {
            let pat = format!("Ordering::{variant}");
            if line.code.contains(&pat) && !justified(&lines, idx, "ORDERING:", Some(variant)) {
                findings.push(LintFinding {
                    file: file.to_string(),
                    line: lineno,
                    rule: RULE_ORDERING,
                    detail: format!("`{pat}` without a `// ORDERING:` comment naming `{variant}`"),
                });
            }
        }
        if in_test {
            continue;
        }
        let allowed = || justified(&lines, idx, "LINT-ALLOW:", None);
        if !exempt.contains(&RULE_CHAIN_FOR_TIP) && chain_for_tip(&line.code) && !allowed() {
            findings.push(LintFinding {
                file: file.to_string(),
                line: lineno,
                rule: RULE_CHAIN_FOR_TIP,
                detail: "a whole chain selected to read its tip (use `select_tip` / the \
                         replica's `tip()`, or annotate `// LINT-ALLOW: <reason>`)"
                    .to_string(),
            });
        }
        if !exempt.contains(&RULE_ALLOC_ENCODE) && allocating_encode(&line.code) && !allowed() {
            findings.push(LintFinding {
                file: file.to_string(),
                line: lineno,
                rule: RULE_ALLOC_ENCODE,
                detail: "`encode_record(..)` allocates per record (encode with \
                         `encode_record_into` into a reused buffer, or annotate \
                         `// LINT-ALLOW: <reason>`)"
                    .to_string(),
            });
        }
        if !exempt.contains(&RULE_DELTA_CAP)
            && delta_call(&line.code)
            && !lines[idx..lines.len().min(idx + 1 + LOOKAHEAD)]
                .iter()
                .any(|l| l.code.contains(".take("))
            && !allowed()
        {
            findings.push(LintFinding {
                file: file.to_string(),
                line: lineno,
                rule: RULE_DELTA_CAP,
                detail: "`delta_above(..)` without a `.take(..)` cap within the next 3 lines \
                         (a reply costs what it walks; cap it, or annotate \
                         `// LINT-ALLOW: <reason>`)"
                    .to_string(),
            });
        }
        if !exempt.contains(&RULE_PAYLOAD_COPY) && payload_copy(&lines, idx) && !allowed() {
            findings.push(LintFinding {
                file: file.to_string(),
                line: lineno,
                rule: RULE_PAYLOAD_COPY,
                detail: "a block's payload copied transaction by transaction (a `Payload` \
                         is shared: clone the handle with `.payload.clone()`, or annotate \
                         `// LINT-ALLOW: <reason>`)"
                    .to_string(),
            });
        }
        if !exempt.contains(&RULE_LEAF_SCAN) && leaf_scan(&line.code) && !allowed() {
            findings.push(LintFinding {
                file: file.to_string(),
                line: lineno,
                rule: RULE_LEAF_SCAN,
                detail: "`.leaves()` / `.all_chains()` scans the whole arena and sorts (use \
                         `leaf_count()` or a best-tip query, or annotate \
                         `// LINT-ALLOW: <reason>`)"
                    .to_string(),
            });
        }
        if !exempt.contains(&RULE_PAIR_LOOP) && pair_loop(&line.code) && !allowed() {
            findings.push(LintFinding {
                file: file.to_string(),
                line: lineno,
                rule: RULE_PAIR_LOOP,
                detail: "a `for` over `(i + 1)..` in a consistency checker is half of an \
                         all-pairs loop (count with an index, or annotate \
                         `// LINT-ALLOW: <reason>` saying why it is bounded)"
                    .to_string(),
            });
        }
        if !exempt.contains(&RULE_PRUNE_DOOR) && prune_door(file, &line.code) && !allowed() {
            findings.push(LintFinding {
                file: file.to_string(),
                line: lineno,
                rule: RULE_PRUNE_DOOR,
                detail: "a tree window rebuilt or a store pruned outside `ReplicaCore::prune` \
                         (prune through the core, or annotate `// LINT-ALLOW: <reason>`)"
                    .to_string(),
            });
        }
        if !exempt.contains(&RULE_CHAIN_PER_READ) && chain_per_read(file, &line.code) && !allowed()
        {
            findings.push(LintFinding {
                file: file.to_string(),
                line: lineno,
                rule: RULE_CHAIN_PER_READ,
                detail: "`chain_to_idx(` copies the whole path from the root (record a read \
                         with `ReplicaLog::record_read(at, tree, tip)`, or annotate \
                         `// LINT-ALLOW: <reason>`)"
                    .to_string(),
            });
        }
        if !exempt.contains(&RULE_K_DOOR) && k_door(file, &line.code) && !allowed() {
            findings.push(LintFinding {
                file: file.to_string(),
                line: lineno,
                rule: RULE_K_DOOR,
                detail: "`K[]` state kept beside `SlotArena` (consume through \
                         `SlotArena::consume`, or annotate `// LINT-ALLOW: <reason>`)"
                    .to_string(),
            });
        }
        if !exempt.contains(&RULE_UNWRAP) {
            let bare_unwrap = line.code.contains(".unwrap()");
            // `.expect("…")` with a string-literal message is the annotated
            // form; only non-literal arguments are flagged.  The argument
            // may start on the next line (rustfmt wraps long messages).
            let bare_expect = line.code.match_indices(".expect(").any(|(p, pat)| {
                let after = line.code[p + pat.len()..].trim_start();
                let head = if after.is_empty() {
                    lines
                        .get(idx + 1)
                        .map(|l| l.code.trim_start())
                        .unwrap_or("")
                } else {
                    after
                };
                !head.starts_with('"')
            });
            if bare_unwrap && !allowed() {
                findings.push(LintFinding {
                    file: file.to_string(),
                    line: lineno,
                    rule: RULE_UNWRAP,
                    detail: "bare `.unwrap()` in library code (annotate `// LINT-ALLOW: <reason>` \
                             or handle the error)"
                        .to_string(),
                });
            }
            if bare_expect && !allowed() {
                findings.push(LintFinding {
                    file: file.to_string(),
                    line: lineno,
                    rule: RULE_UNWRAP,
                    detail: "`.expect(..)` without a string-literal invariant message (give it \
                             one, or annotate `// LINT-ALLOW: <reason>`)"
                        .to_string(),
                });
            }
        }
    }
    findings
}

/// The library-only rules a path is exempt from as a whole file: all ten
/// for tests and tools; [`RULE_CHAIN_FOR_TIP`], [`RULE_ALLOC_ENCODE`] and
/// [`RULE_PAYLOAD_COPY`] for the `benchmark/` harness — frozen to library
/// PRs, it reads each miner's tip once after a run, not per event, its
/// encode probe times the allocating wrapper on purpose, and it builds its
/// inputs untimed; and [`RULE_ALLOC_ENCODE`] for `codec.rs`, where the
/// wrapper is defined.  [`RULE_PAIR_LOOP`] binds only the consistency
/// checkers under a `criteria/` directory.
fn exempt_rules(path: &Path) -> &'static [&'static str] {
    let in_dir = |name: &str| path.components().any(|c| c.as_os_str() == name);
    let file = path.file_name().and_then(|f| f.to_str()).unwrap_or("");
    if in_dir("tests")
        || in_dir("bin")
        || in_dir("examples")
        || file == "main.rs"
        || file == "build.rs"
    {
        &[
            RULE_UNWRAP,
            RULE_CHAIN_FOR_TIP,
            RULE_ALLOC_ENCODE,
            RULE_DELTA_CAP,
            RULE_PAYLOAD_COPY,
            RULE_LEAF_SCAN,
            RULE_PAIR_LOOP,
            RULE_PRUNE_DOOR,
            RULE_CHAIN_PER_READ,
            RULE_K_DOOR,
        ]
    } else if in_dir("benchmark") {
        &[
            RULE_CHAIN_FOR_TIP,
            RULE_ALLOC_ENCODE,
            RULE_PAYLOAD_COPY,
            RULE_PAIR_LOOP,
        ]
    } else if file == "codec.rs" {
        &[RULE_ALLOC_ENCODE, RULE_PAIR_LOOP]
    } else if in_dir("criteria") {
        &[]
    } else {
        &[RULE_PAIR_LOOP]
    }
}

/// Recursively collects the workspace `.rs` files under `root`, skipping
/// `target/`, `.git/` and the dependency shims (vendored idiom, not ours
/// to annotate).  Sorted for deterministic output.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_str().unwrap_or("");
            if path.is_dir() {
                if matches!(name, "target" | ".git" | "shims" | "node_modules") {
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
        findings.extend(lint_source(&label, &source, exempt_rules(path)));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok((files.len(), findings))
}

/// One corpus case: `(name, source, expected (rule, line) findings)`.
type CorpusCase = (&'static str, &'static str, Vec<(&'static str, usize)>);

/// Built-in corpus.
/// Exercises every rule positively and negatively; `--self-test` runs it.
fn corpus() -> Vec<CorpusCase> {
    vec![
        (
            "unsafe-missing",
            "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n",
            vec![(RULE_SAFETY, 2)],
        ),
        (
            "unsafe-justified",
            "fn f() {\n    // SAFETY: the branch is unreachable by construction\n    unsafe { core::hint::unreachable_unchecked() }\n}\n",
            vec![],
        ),
        (
            "unsafe-in-string-or-comment",
            "fn f() {\n    let _ = \"unsafe .unwrap()\";\n    // unsafe in a comment is fine\n}\n",
            vec![],
        ),
        (
            "ordering-missing",
            "fn f(a: &AtomicU64) {\n    a.load(Ordering::Acquire);\n}\n",
            vec![(RULE_ORDERING, 2)],
        ),
        (
            "ordering-wrong-variant-named",
            "fn f(a: &AtomicU64) {\n    // ORDERING: Relaxed is fine here\n    a.load(Ordering::Acquire);\n}\n",
            vec![(RULE_ORDERING, 3)],
        ),
        (
            "ordering-justified",
            "fn f(a: &AtomicU64) {\n    // ORDERING: Acquire pairs with the Release store in publish()\n    a.load(Ordering::Acquire);\n}\n",
            vec![],
        ),
        (
            "cmp-ordering-ignored",
            "fn f(x: u32) -> std::cmp::Ordering {\n    if x == 0 { std::cmp::Ordering::Less } else { std::cmp::Ordering::Greater }\n}\n",
            vec![],
        ),
        (
            "bare-unwrap",
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
            vec![(RULE_UNWRAP, 2)],
        ),
        (
            "literal-expect-is-annotated",
            "fn f(x: Option<u32>) -> u32 {\n    x.expect(\"present by the caller contract\")\n}\n",
            vec![],
        ),
        (
            "non-literal-expect",
            "fn f(x: Option<u32>, msg: &str) -> u32 {\n    x.expect(msg)\n}\n",
            vec![(RULE_UNWRAP, 2)],
        ),
        (
            "wrapped-literal-expect-is-annotated",
            "fn f(x: Option<u32>) -> u32 {\n    x.expect(\n        \"a long invariant message that rustfmt wrapped\",\n    )\n}\n",
            vec![],
        ),
        (
            "allowed-unwrap",
            "fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW: x is Some by the caller contract\n    x.unwrap()\n}\n",
            vec![],
        ),
        (
            "unwrap-or-is-fine",
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0) + x.unwrap_or_default()\n}\n",
            vec![],
        ),
        (
            "expect-named-method-is-fine",
            "fn f(p: &mut Parser) {\n    p.expect_byte(b'{');\n}\n",
            vec![],
        ),
        (
            "cfg-test-region-exempt",
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n",
            vec![],
        ),
        (
            "unwrap-after-test-region-still-checked",
            "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\nfn lib(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
            vec![(RULE_UNWRAP, 6)],
        ),
        (
            "raw-string-and-char-masked",
            "fn f<'a>(s: &'a str) -> usize {\n    let r = r#\"contains .unwrap() and unsafe\"#;\n    let c = '\\'';\n    r.len() + s.len() + (c as usize)\n}\n",
            vec![],
        ),
        (
            "chain-for-tip",
            "fn parents(r: &Replica, f: &dyn SelectionFunction, t: &BlockTree) -> (Block, Block) {\n    let a = r.selected().tip().clone();\n    let b = f.select(t.as_ref()).tip().clone();\n    (a, b)\n}\n",
            vec![(RULE_CHAIN_FOR_TIP, 2), (RULE_CHAIN_FOR_TIP, 3)],
        ),
        (
            "tip-lookup-is-clean",
            "fn parent(r: &Replica, f: &dyn SelectionFunction, t: &BlockTree) -> Block {\n    let chain = f.select(t);\n    let _ = (chain.tip(), r.tip(), r.selected().len());\n    // LINT-ALLOW: the whole chain is recorded on the next line anyway\n    let _ = r.selected().tip();\n    t.block_at(f.select_tip(t)).clone()\n}\n#[cfg(test)]\nmod tests {\n    fn t(r: &Replica) { r.selected().tip(); }\n}\n",
            vec![],
        ),
        (
            "allocating-encode",
            "fn persist(medium: &mut SimMedium, file: &str, block: &Block) {\n    let record = encode_record(block);\n    medium.append(file, &codec::encode_record(block));\n    drop(record);\n}\n",
            vec![(RULE_ALLOC_ENCODE, 2), (RULE_ALLOC_ENCODE, 3)],
        ),
        (
            "in-place-encode-is-clean",
            "pub use codec::{encode_record, encode_record_into};\nfn persist(buf: &mut Vec<u8>, block: &Block, chunk: &mut ChunkSum) -> usize {\n    let sum = encode_record_into(buf, block);\n    chunk.push(sum.expect(\"fits\"));\n    // LINT-ALLOW: a one-off probe wants the record's length, not a run\n    encode_record(block).len()\n}\n#[cfg(test)]\nmod tests {\n    fn t(b: &Block) { encode_record(b); }\n}\n",
            vec![],
        ),
        (
            "uncapped-delta",
            "fn reply(t: &BlockTree, h: u64) -> Vec<Block> {\n    let all: Vec<Block> = t.delta_above(h).cloned().collect();\n    let _ = BlockTree::delta_above(t, h).count();\n    all\n}\n",
            vec![(RULE_DELTA_CAP, 2), (RULE_DELTA_CAP, 3)],
        ),
        (
            "capped-delta-is-clean",
            "pub fn delta_above(&self, height: u64) -> Delta<'_> {\n    self.walk(height)\n}\nfn reply(t: &BlockTree, h: u64) -> (Vec<Block>, usize) {\n    let batch = t\n        .delta_above(h)\n        .filter(|b| b.height > 0)\n        .take(MAX_SYNC_BATCH)\n        .cloned()\n        .collect();\n    // LINT-ALLOW: an audit walks the whole index on purpose\n    let n = t.delta_above(h).count();\n    (batch, n)\n}\n#[cfg(test)]\nmod tests {\n    fn t(t: &BlockTree) { t.delta_above(0).count(); }\n}\n",
            vec![],
        ),
        (
            "payload-copy",
            "fn rebuild(b: &Block, parent: &Block) -> (Block, Vec<Transaction>) {\n    let copy = BlockBuilder::new(parent).payload(b.payload.to_vec()).build();\n    let txs: Vec<Transaction> = b.payload.iter().copied().collect();\n    let again: Vec<Transaction> = b.payload.iter().cloned()\n        .filter(|tx| tx.amount > 0)\n        .collect();\n    (copy, txs.into_iter().chain(again).collect())\n}\n",
            vec![(RULE_PAYLOAD_COPY, 2), (RULE_PAYLOAD_COPY, 3), (RULE_PAYLOAD_COPY, 4)],
        ),
        (
            "shared-payload-is-clean",
            "fn rebuild(b: &Block, parent: &Block) -> (Block, u64) {\n    let shared = BlockBuilder::new(parent).payload(b.payload.clone()).build();\n    let total = b.payload.iter().copied().map(|tx| tx.amount).sum();\n    // LINT-ALLOW: the caller mutates its own copy\n    let _mine = b.payload.to_vec();\n    (shared, total)\n}\n#[cfg(test)]\nmod tests {\n    fn t(b: &Block) -> Vec<Transaction> { b.payload.to_vec() }\n}\n",
            vec![],
        ),
        (
            "leaf-scan",
            "fn audit(t: &BlockTree) -> usize {\n    let leaves = t.leaves();\n    let chains = t\n        .all_chains();\n    leaves.len() + chains.len()\n}\n",
            vec![(RULE_LEAF_SCAN, 2), (RULE_LEAF_SCAN, 4)],
        ),
        (
            "leaf-count-is-clean",
            "pub fn leaves(&self) -> Vec<BlockId> {\n    self.scan()\n}\nfn audit(t: &BlockTree) -> usize {\n    // LINT-ALLOW: a report lists every branch once, off the hot path\n    let chains = t.all_chains();\n    t.leaf_count() + chains.len() + t.best_leaf_by_height(true).0 as usize\n}\n#[cfg(test)]\nmod tests {\n    fn t(t: &BlockTree) { t.leaves(); }\n}\n",
            vec![],
        ),
        (
            "pair-loop",
            "fn judge(reads: &[Chain]) -> usize {\n    let mut n = 0;\n    for i in 0..reads.len() {\n        for j in (i + 1)..reads.len() {\n            n += usize::from(reads[i] != reads[j]);\n        }\n        for j in i + 1..reads.len() { n += j; }\n    }\n    n\n}\n",
            vec![(RULE_PAIR_LOOP, 4), (RULE_PAIR_LOOP, 7)],
        ),
        (
            "bounded-pair-loop-is-clean",
            "fn judge(reads: &[Chain], rows: &[usize]) -> usize {\n    let mut n = 0;\n    for &i in rows {\n        // LINT-ALLOW: only the rows that hold a violation, at most DETAIL_CAP\n        for j in (i + 1)..reads.len() {\n            n += usize::from(reads[i] != reads[j]);\n        }\n    }\n    for k in (n + 2)..8 { n += k; }\n    for j in 1..n { n += j; }\n    let _ = (n + 1..9).count();\n    n\n}\n#[cfg(test)]\nmod tests {\n    fn t(r: &[u8]) { for i in 0..r.len() { for j in (i + 1)..r.len() {} } }\n}\n",
            vec![],
        ),
        (
            "prune-door",
            "fn shrink(t: &BlockTree, root: Block, s: &mut BlockStore, keep: &HashSet<BlockId>) -> BlockTree {\n    s.prune(&keep, 9);\n    let window = BlockTree::rerooted(root);\n    window\n}\n",
            vec![(RULE_PRUNE_DOOR, 2), (RULE_PRUNE_DOOR, 3)],
        ),
        (
            "prune-through-the-core-is-clean",
            "pub fn prune(&mut self, depth: u64) -> Option<PruneOutcome> {\n    self.prune_inner(depth)\n}\nfn shrink(core: &mut ReplicaCore, s: BlockStore, keep: &HashSet<BlockId>) -> BlockTree {\n    core.prune(16);\n    let _ = s.prune_crashing_before_commit(&keep, 9);\n    // LINT-ALLOW: a throwaway tree interned from recorded chains, not a window\n    let fresh = BlockTree::rerooted(Block::genesis());\n    fresh\n}\n#[cfg(test)]\nmod tests {\n    fn t(s: &mut BlockStore, k: &HashSet<BlockId>) { s.prune(&k, 3); BlockTree::rerooted(Block::genesis()); }\n}\n",
            vec![],
        ),
        (
            "chain-per-read",
            "fn read(log: &mut Vec<Blockchain>, tree: &BlockTree, tip: NodeIdx) {\n    log.push(tree.chain_to_idx(tip));\n    let again = BlockTree::chain_to_idx(tree, tip);\n    log.push(again);\n}\n",
            vec![(RULE_CHAIN_PER_READ, 2), (RULE_CHAIN_PER_READ, 3)],
        ),
        (
            "read-through-the-log-is-clean",
            "fn read(log: &mut ReplicaLog, at: SimTime, tree: &BlockTree, tip: NodeIdx) -> Blockchain {\n    log.record_read(at, tree, tip);\n    let _ = tree.chain_to(tree.block_at(tip).id);\n    // LINT-ALLOW: a report prints one chain, off the replica's path\n    tree.chain_to_idx(tip)\n}\n#[cfg(test)]\nmod tests {\n    fn t(t: &BlockTree, tip: NodeIdx) { t.chain_to_idx(tip); }\n}\n",
            vec![],
        ),
        (
            "crates/oracle/src/second-k.rs",
            "struct Oracle {\n    slots: Vec<Vec<Block>>,\n    consumed_serials: HashSet<u64>,\n}\nfn fresh(o: &Oracle, serial: u64) -> bool {\n    !o.consumed_serials.contains(&serial) && o.slots.len() < 9\n}\ntype Slab = Vec< Vec<Block> >;\n",
            vec![(RULE_K_DOOR, 2), (RULE_K_DOOR, 3), (RULE_K_DOOR, 6), (RULE_K_DOOR, 8)],
        ),
        (
            "crates/oracle/src/k-through-the-arena-is-clean.rs",
            "fn consume(slots: &mut SlotArena, grant: &TokenGrant, consumed_serials_seen: u64) -> bool {\n    // a consumed_serials set is what this replaced\n    let chains: Vec<Vec<BlockId>> = Vec::new();\n    // LINT-ALLOW: a throwaway copy for a report, not the oracle's state\n    let report: Vec<Vec<Block>> = Vec::new();\n    slots.consume(grant, Some(1)) && chains.is_empty() && report.is_empty() && consumed_serials_seen > 0\n}\n#[cfg(test)]\nmod tests {\n    struct Reference { consumed_serials: HashSet<u64>, slots: Vec<Vec<Block>> }\n}\n",
            vec![],
        ),
        (
            "block-comment-masked",
            "/* unsafe\n   .unwrap()\n   Ordering::SeqCst */\nfn f() {}\n",
            vec![],
        ),
    ]
}

/// Runs the embedded corpus; returns the number of cases on success or a
/// description of the first mismatch.
pub fn self_test() -> Result<usize, String> {
    let cases = corpus();
    for (name, source, expected) in &cases {
        let got: Vec<(&'static str, usize)> = lint_source(name, source, &[])
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect();
        if &got != expected {
            return Err(format!(
                "corpus case `{name}`: expected {expected:?}, got {got:?}"
            ));
        }
    }
    Ok(cases.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_self_test_passes() {
        let n = self_test().expect("corpus verdicts match");
        assert!(n >= 12);
    }

    #[test]
    fn lifetimes_do_not_confuse_the_char_scanner() {
        let src = "fn f<'a, 'b>(x: &'a str, y: &'b str) -> usize { x.len() + y.len() }\n";
        assert!(lint_source("t", src, &[]).is_empty());
    }

    #[test]
    fn same_line_justification_counts() {
        let src =
            "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed) } // ORDERING: Relaxed, a counter\n";
        assert!(lint_source("t", src, &[]).is_empty());
    }

    #[test]
    fn lookback_window_is_bounded() {
        let src = "// ORDERING: SeqCst explained too far away\n\n\n\n\nfn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n";
        let findings = lint_source("t", src, &[]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_ORDERING);
    }

    #[test]
    fn exempt_paths_skip_only_the_unwrap_rule() {
        let src =
            "fn main() { std::fs::read(\"x\").unwrap(); let _ = A.load(Ordering::SeqCst); }\n";
        let findings = lint_source(
            "src/bin/tool.rs",
            src,
            exempt_rules(Path::new("src/bin/tool.rs")),
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, RULE_ORDERING);
    }

    #[test]
    fn the_pair_loop_rule_binds_only_the_criteria() {
        let src = "fn f(r: &[u8]) -> usize {\n    let mut n = 0;\n    for i in 0..r.len() {\n        for j in (i + 1)..r.len() { n += j; }\n    }\n    n\n}\n";
        let lint = |path: &str| lint_source(path, src, exempt_rules(Path::new(path)));
        let hits = lint("crates/core/src/criteria/strong_prefix.rs");
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].rule, hits[0].line), (RULE_PAIR_LOOP, 4));
        for elsewhere in [
            "crates/core/src/reachability.rs",
            "crates/core/tests/criteria/scale.rs",
            "crates/bench/src/scenarios.rs",
        ] {
            assert!(lint(elsewhere).is_empty(), "{elsewhere}");
        }
    }

    #[test]
    fn the_prune_door_is_the_durable_core() {
        let src = "fn f(t: &BlockTree, s: &mut BlockStore, k: &HashSet<BlockId>) {\n    let _ = BlockTree::rerooted(t.genesis().clone());\n    s.prune(&k, 8);\n}\n";
        let rules = |path: &str| -> Vec<(&str, usize)> {
            lint_source(path, src, exempt_rules(Path::new(path)))
                .into_iter()
                .map(|f| (f.rule, f.line))
                .collect()
        };
        assert!(rules("crates/store/src/durable.rs").is_empty());
        assert_eq!(rules("crates/types/src/tree.rs"), [(RULE_PRUNE_DOOR, 3)]);
        assert_eq!(
            rules("crates/store/src/store.rs"),
            [(RULE_PRUNE_DOOR, 2), (RULE_PRUNE_DOOR, 3)]
        );
        assert!(rules("crates/store/tests/crash_prefixes.rs").is_empty());
    }

    #[test]
    fn a_chain_per_read_is_refused_outside_the_types_crate() {
        let src = "fn f(t: &BlockTree, tip: NodeIdx) -> Blockchain {\n    t.chain_to_idx(tip)\n}\n";
        let rules = |path: &str| -> Vec<(&str, usize)> {
            lint_source(path, src, exempt_rules(Path::new(path)))
                .into_iter()
                .map(|f| (f.rule, f.line))
                .collect()
        };
        for owner in ["crates/types/src/tree.rs", "crates/types/src/selection.rs"] {
            assert!(rules(owner).is_empty(), "{owner}");
        }
        for library in [
            "crates/protocols/src/pow.rs",
            "crates/types/benches/walk.rs",
            "crates/bench/src/scenarios.rs",
        ] {
            assert_eq!(rules(library), [(RULE_CHAIN_PER_READ, 2)], "{library}");
        }
        for test in [
            "crates/protocols/tests/recorded_reads.rs",
            "crates/types/tests/props.rs",
        ] {
            assert!(rules(test).is_empty(), "{test}");
        }
    }

    #[test]
    fn the_k_door_binds_only_the_oracle_sources() {
        let src = "struct Reference {\n    consumed_serials: HashSet<u64>,\n    slots: Vec<Vec<Block>>,\n}\n";
        let rules = |path: &str| -> Vec<(&str, usize)> {
            lint_source(path, src, exempt_rules(Path::new(path)))
                .into_iter()
                .map(|f| (f.rule, f.line))
                .collect()
        };
        for oracle in ["crates/oracle/src/oracle.rs", "crates/oracle/src/pow.rs"] {
            assert_eq!(
                rules(oracle),
                [(RULE_K_DOOR, 2), (RULE_K_DOOR, 3)],
                "{oracle}"
            );
        }
        for elsewhere in [
            "crates/oracle/tests/k_reference.rs",
            "crates/concurrent/src/blocktree.rs",
            "crates/bench/src/scenarios.rs",
        ] {
            assert!(rules(elsewhere).is_empty(), "{elsewhere}");
        }
    }

    #[test]
    fn workspace_walk_finds_this_file_and_skips_target() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root).expect("walk");
        assert!(files
            .iter()
            .any(|p| p.ends_with("crates/check/src/lint.rs")));
        assert!(files.iter().all(|p| {
            !p.components().any(|c| c.as_os_str() == "target")
                && !p.components().any(|c| c.as_os_str() == "shims")
        }));
    }
}
