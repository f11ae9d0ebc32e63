//! `cargo run -p btadt-check --bin lint [-- --self-test] [--root PATH]`
//! — the offline lint gate over the workspace sources.
//!
//! Scans every `.rs` file (skipping `target/` and `.git/`) for the
//! thirteen rules of [`btadt_check::lint`]: `unsafe`
//! without `// SAFETY:`, atomic `Ordering::` variants without a naming
//! `// ORDERING:` comment, and — in non-test library code, unless
//! `// LINT-ALLOW:` — bare `.unwrap()` / `.expect(`, a chain selected
//! only to read its tip (`.selected().tip()`), the allocating
//! `encode_record(` outside `codec.rs`, a `delta_above(` walk with no
//! `.take(` cap, a block's shared payload copied out
//! (`.payload.to_vec()`), a whole-tree leaf scan (`.leaves()` /
//! `.all_chains()`), under `crates/core/src/criteria/` a `for` over
//! `(i + 1)..` (the inner half of an all-pairs loop), and a window rebuilt
//! with `BlockTree::rerooted(` or a store pruned with `.prune(&` outside
//! `ReplicaCore::prune` (`store/src/durable.rs`), and a root-to-tip path
//! copied with `chain_to_idx(` outside `crates/types/src`, and, under
//! `crates/oracle/src`, `K[]` state kept beside `SlotArena`
//! (`consumed_serials`, `Vec<Vec<Block>>`), and — tests included — a
//! SplitMix64 or ChaCha constant outside `crates/types/src/rng.rs`.
//! Exits 1 on any finding.
//!
//! `--self-test` runs the embedded corpus (every rule exercised
//! positively and negatively) instead of scanning, exiting nonzero on
//! any corpus mismatch — CI runs both modes.

use btadt_check::lint::{lint_workspace, self_test};

fn main() {
    let mut root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut run_self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--self-test" => run_self_test = true,
            "--root" => {
                root = args.next().map(Into::into).unwrap_or_else(|| {
                    eprintln!("--root expects a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other} (expected --self-test or --root PATH)");
                std::process::exit(2);
            }
        }
    }

    if run_self_test {
        match self_test() {
            Ok(n) => println!("lint --self-test: {n} corpus cases ok"),
            Err(e) => {
                eprintln!("lint --self-test FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let (files, findings) = lint_workspace(&root).unwrap_or_else(|e| {
        eprintln!("lint: cannot walk {}: {e}", root.display());
        std::process::exit(2);
    });
    for f in &findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.detail);
    }
    if findings.is_empty() {
        println!("lint: {files} files clean");
    } else {
        eprintln!("lint: {} finding(s) across {files} files", findings.len());
        std::process::exit(1);
    }
}
