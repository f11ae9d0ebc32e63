//! `cargo run -p btadt-check --bin lint [-- --self-test] [--root PATH]`
//! — the offline lint gate over the workspace sources.
//!
//! Scans every `.rs` file (skipping `target/` and `.git/`) against the
//! rows of [`btadt_check::lint::RULES`] (described in `docs/ANALYSIS.md`
//! §3) and exits 1 on any finding.  `--self-test` instead prints each row
//! with its scope and runs the embedded corpus, exiting nonzero on any
//! mismatch.  CI runs both modes.

use btadt_check::lint::{lint_workspace, self_test, RULES};

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
        for (n, rule) in RULES.iter().enumerate() {
            println!("{:>2} {:<35} {}", n + 1, rule.id, rule.scope());
        }
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
