//! Regenerates Table 1 of the paper and prints the comparison against the
//! paper's classification.
//!
//! ```bash
//! cargo run --release -p btadt-bench --bin table1 [replicas] [duration] [seed]
//! ```
//!
//! Exits 1 when a row misses the paper's classification, 2 on a malformed
//! argument (the usage line shows the defaults).

use btadt_protocols::table1;
use btadt_types::report::args;

fn main() {
    let table = [("replicas", 8), ("duration", 20), ("seed", 2019)];
    let [replicas, duration, seed] = args("table1", &[], &table).positional[..] else {
        unreachable!("one value per declared argument")
    };
    let replicas = replicas as usize;

    println!("Table 1 — mapping of existing systems (replicas={replicas}, duration={duration}, seed={seed})");
    println!("{}", "=".repeat(100));
    let rows = table1(replicas, duration, seed);
    for row in &rows {
        println!("{}", row.format());
    }
    println!("{}", "=".repeat(100));
    let ok = rows.iter().filter(|r| r.matches_paper).count();
    println!("{ok}/{} rows match the paper's classification", rows.len());
    if ok != rows.len() {
        std::process::exit(1);
    }
}
