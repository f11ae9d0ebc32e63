//! Regenerates the figure experiments of the paper and prints a text report.
//!
//! ```bash
//! cargo run --release -p btadt-bench --bin figures [seeds]
//! ```
//!
//! Runs seeds `0..seeds` (default 8).  Exits 1 when the runs do not
//! confirm the hierarchy of Figure 14, 2 on a malformed argument.

use btadt_bench::{classify_contended, hierarchy_report};
use btadt_core::hierarchy::OracleKind;
use btadt_types::report::args;

fn main() {
    let args = args("figures", &[], &[("seeds", 8)]);
    let seeds: Vec<u64> = (0..args.positional[0]).collect();

    println!("Figures 2–4 — history classification under contention");
    println!("{}", "-".repeat(72));
    for (label, kind) in [
        (
            "frugal(k=1)  [Figure 2 regime: strong]",
            OracleKind::Frugal(1),
        ),
        (
            "frugal(k=4)  [Figure 3 regime: eventual only]",
            OracleKind::Frugal(4),
        ),
        (
            "prodigal     [Figure 3 regime: eventual only]",
            OracleKind::Prodigal,
        ),
    ] {
        let mut sc_count = 0;
        let mut ec_count = 0;
        let mut max_forks = 0;
        for &seed in &seeds {
            let (sc, ec, forks) = classify_contended(kind, seed);
            sc_count += usize::from(sc);
            ec_count += usize::from(ec);
            max_forks = max_forks.max(forks);
        }
        println!(
            "  {label:<46} SC {sc_count}/{n}   EC {ec_count}/{n}   max forks/block {max_forks}",
            n = seeds.len()
        );
    }

    println!("\nFigures 8 & 14 — hierarchy of refinements (Theorems 3.1/3.3/3.4/4.8)");
    println!("{}", "-".repeat(72));
    let report = hierarchy_report(&seeds);
    for (k1, k2, inc) in &report.fork_inclusions {
        let upper = match k2 {
            Some(k2) => format!("frugal(k={k2})"),
            None => "prodigal".to_string(),
        };
        println!(
            "  H(frugal k={k1}) ⊆ H({upper}): inclusion {}/{} runs, strictness witnesses {}",
            inc.included, inc.total, inc.strict_witnesses
        );
    }
    println!(
        "  H_SC ⊆ H_EC: inclusion {}/{} runs, strictness witnesses {}",
        report.sc_ec.included, report.sc_ec.total, report.sc_ec.strict_witnesses
    );
    println!("  Strong-Prefix violations per oracle (Theorem 4.8 / Figure 14):");
    for (label, violating, total) in &report.strong_prefix {
        println!("    {label:<14} {violating}/{total} runs violate Strong Prefix");
    }
    if !report.confirms_paper() {
        eprintln!("figures: these runs do not confirm the hierarchy of Figure 14");
        std::process::exit(1);
    }
    println!(
        "\n  → only R(BT-ADT_SC, Θ_F,k=1) survives on the Strong-Consistency side,\n    exactly the hierarchy of Figure 14."
    );
}
