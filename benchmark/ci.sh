#!/bin/sh
# Everything a CI job needs for the benchmark package: formatting, lints,
# unit and integration tests, and the whole suite at smoke size.
# Touches nothing outside benchmark/ (build output goes to benchmark/target
# unless CARGO_TARGET_DIR says otherwise).
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- run --all --smoke --seconds 0 --out out/smoke
