//! The committed `BENCH_*.json` files are guarded by regenerating them and
//! running `git diff --exit-code`.  That gate holds only if a report is a
//! pure function of its seeds and every regeneration really lands on disk;
//! these tests pin both properties.

use std::process::Command;

use btadt_bench::json::{parse, Json};
use btadt_bench::{concurrent, scenarios};

/// Every object key anywhere in `doc`.
fn keys(doc: &Json, out: &mut Vec<String>) {
    match doc {
        Json::Object(map) => {
            for (key, value) in map {
                out.push(key.clone());
                keys(value, out);
            }
        }
        Json::Array(items) => items.iter().for_each(|item| keys(item, out)),
        _ => {}
    }
}

fn assert_carries_no_timing(report: &str) {
    let doc = parse(report).expect("the report is JSON");
    let mut all = Vec::new();
    keys(&doc, &mut all);
    let timing: Vec<&String> = all
        .iter()
        .filter(|k| {
            k.contains("wall")
                || k.ends_with("_ns")
                || k.contains("per_sec")
                || k.contains("speedup")
                || k.contains("parallelism")
        })
        .collect();
    assert!(timing.is_empty(), "host-dependent keys: {timing:?}");
}

#[test]
fn threaded_reports_render_byte_identically_and_carry_no_timing() {
    let matrix = scenarios::smoke_matrix();
    let serial = scenarios::render_json(&scenarios::sweep(&matrix, 1));
    let parallel = scenarios::render_json(&scenarios::sweep(&matrix, 4));
    assert_eq!(serial, parallel, "the worker count leaks into the report");
    assert_carries_no_timing(&serial);

    // Each render runs real client threads at 1, 2, 4 and 8 per path.
    let first = concurrent::render_json(&concurrent::run_all(true));
    let second = concurrent::render_json(&concurrent::run_all(true));
    assert_eq!(first, second, "the interleaving leaks into the report");
    assert_carries_no_timing(&first);
}

#[test]
fn a_report_that_cannot_be_written_fails_the_run() {
    // A path below a regular file can never be created.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("Cargo.toml")
        .join("report.json");
    for bin in [env!("CARGO_BIN_EXE_scenarios"), env!("CARGO_BIN_EXE_chaos")] {
        let run = Command::new(bin)
            .args(["--smoke", "--workers", "1", "--out"])
            .arg(&out)
            .output()
            .expect("the binary starts");
        // Exit 1 from the write path, not 2 from a flag the binary refused.
        assert_eq!(
            run.status.code(),
            Some(1),
            "{bin}: a lost report must not exit 0"
        );
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("could not write"), "{bin}: {stderr}");
    }
}
