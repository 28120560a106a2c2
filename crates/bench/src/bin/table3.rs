//! Table III — value-query (spatially-constrained) response time on
//! the "8 GB" datasets; region selectivity 0.1 % and 1 %, no VC,
//! 8 ranks.
//!
//! Paper (seconds): MLOC 1.5–5.3, Seq. Scan 1.8–5.9, FastBit 37–40,
//! SciDB 29–469.
//!
//! Exits nonzero unless MLOC-ISO and MLOC-ISA are below Seq. Scan at
//! 1% GTS. The 0.1% cells are not gated: there MLOC-ISA and Seq. Scan
//! are within a few percent of each other at this scale.

use mloc_bench::compare::{build_systems, value_comparison, Lineup};
use mloc_bench::report::{enforce_shape, note, shape_violations, title, Table};
use mloc_bench::scenario::DatasetSpec;
use mloc_bench::HarnessArgs;
use mloc_pfs::MemBackend;

fn main() {
    let args = HarnessArgs::parse();
    let selectivities = [0.001, 0.01];

    let paper: &[(&str, [f64; 4])] = &[
        ("MLOC-COL", [3.07, 5.06, 3.51, 5.26]),
        ("MLOC-ISO", [2.15, 4.99, 2.96, 4.51]),
        ("MLOC-ISA", [1.52, 3.31, 1.63, 3.42]),
        ("Seq. Scan", [4.38, 5.92, 1.81, 4.75]),
        ("FastBit", [37.29, 38.24, 37.49, 39.70]),
        ("SciDB", [29.10, 122.50, 143.20, 469.10]),
    ];

    title("Table III: value query response time (s), SC selectivity 0.1% / 1%");
    let cols = ["0.1% GTS", "1% GTS", "0.1% S3D", "1% S3D"];
    let mut table = Table::new(&["system", cols[0], cols[1], cols[2], cols[3]]);
    let mut measured: Vec<(String, Vec<f64>)> = Vec::new();

    for (col_base, spec) in [
        (0usize, DatasetSpec::gts(args.large)),
        (2usize, DatasetSpec::s3d(args.large)),
    ] {
        eprintln!("[table3] building systems for {} ...", spec.name);
        let field = spec.generate();
        let be = MemBackend::new();
        let systems = build_systems(&be, &spec, &field, Lineup::Full);
        eprintln!("[table3] running queries for {} ...", spec.name);
        let rows = value_comparison(
            &systems,
            &field,
            &selectivities,
            args.queries,
            args.ranks,
            args.seed,
        );
        for (name, cells) in rows {
            let entry = match measured.iter_mut().find(|(n, _)| *n == name) {
                Some(e) => e,
                None => {
                    measured.push((name.clone(), vec![f64::NAN; 4]));
                    measured.last_mut().unwrap()
                }
            };
            for (i, c) in cells.iter().enumerate() {
                entry.1[col_base + i] = c.response_s;
            }
        }
    }

    for (name, vals) in &measured {
        table.row_seconds(name, vals);
    }
    table.print();

    println!();
    println!("paper Table III (8 GB, for shape comparison):");
    let mut p = Table::new(&["system", "0.1% GTS", "1% GTS", "0.1% S3D", "1% S3D"]);
    for (name, vals) in paper {
        p.row_seconds(name, vals);
    }
    p.print();
    note(&format!(
        "{} queries averaged per cell, {} ranks, scaled datasets",
        args.queries, args.ranks
    ));
    note("expected shape: MLOC ≈ Seq. Scan (both cheap) ≪ FastBit, SciDB;");
    note("MLOC-ISA fastest among MLOC variants (least I/O)");
    enforce_shape(
        "MLOC-ISO and MLOC-ISA below Seq. Scan at 1% GTS",
        &shape_violations(
            &measured,
            &["MLOC-ISO", "MLOC-ISA"],
            "Seq. Scan",
            &[1],
            &cols,
        ),
    );
}
