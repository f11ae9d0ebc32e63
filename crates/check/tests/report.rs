//! The `check` binary's report goes through the shared write path: it
//! lands where `--out` sends it, parses back, and a report that cannot be
//! written fails the run.

use std::process::Command;

use btadt_types::report::parse;

fn check(out: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_check"))
        .args(["--smoke", "--workers", "2", "--out"])
        .arg(out)
        .output()
        .expect("the check binary starts")
}

#[test]
fn the_smoke_report_lands_at_out_and_parses() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("check-smoke.json");
    let run = check(&out);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("the report was written");
    let doc = parse(&text).expect("emitted JSON parses");
    assert_eq!(doc.get("mode").and_then(|m| m.as_str()), Some("smoke"));
    let model = doc
        .get("model")
        .and_then(|m| m.as_array())
        .expect("a model array");
    assert!(model.iter().all(|cell| cell.get("as_expected").is_some()));
    // The positive controls' counterexamples: an object of arrays in a row.
    let reasons = model
        .iter()
        .filter_map(|cell| cell.get("counterexample")?.get("reasons")?.as_array())
        .count();
    assert!(reasons > 0, "a caught violation carries its counterexample");
    let race = doc
        .get("race")
        .and_then(|r| r.as_array())
        .expect("a race array");
    assert_eq!(race.len(), 3, "two threaded probes and the scripted one");
}

#[test]
fn a_report_that_cannot_be_written_fails_the_run() {
    // A path below a regular file can never be created.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("Cargo.toml")
        .join("report.json");
    let run = check(&out);
    // Exit 1 from the write path, not 2 from a refused flag.
    assert_eq!(run.status.code(), Some(1), "a lost report must not exit 0");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("could not write"), "{stderr}");
}
