//! Table II — region-query (value-constrained) response time on the
//! "8 GB" datasets; value selectivity 1 % and 10 %, no SC, 8 ranks.
//!
//! Paper (seconds): rows MLOC-COL/ISO/ISA ≈ 0.3–1.7, Seq. Scan ≈ 19–23,
//! FastBit ≈ 37–38, SciDB ≈ 207–677.
//!
//! Exits nonzero unless every MLOC variant is below Seq. Scan in all
//! four cells — the paper's headline ordering.

use mloc_bench::compare::{build_systems, region_comparison, Lineup};
use mloc_bench::report::{enforce_shape, note, shape_violations, title, Table};
use mloc_bench::scenario::DatasetSpec;
use mloc_bench::HarnessArgs;
use mloc_pfs::MemBackend;

fn main() {
    let args = HarnessArgs::parse();
    let selectivities = [0.01, 0.10];

    let paper: &[(&str, [f64; 4])] = &[
        ("MLOC-COL", [0.53, 1.21, 0.59, 1.62]),
        ("MLOC-ISO", [0.41, 1.10, 0.53, 1.57]),
        ("MLOC-ISA", [0.34, 1.23, 0.56, 1.66]),
        ("Seq. Scan", [19.22, 20.27, 22.71, 22.93]),
        ("FastBit", [36.81, 37.48, 37.27, 37.83]),
        ("SciDB", [206.80, 677.10, 210.00, 597.80]),
    ];

    title("Table II: region query response time (s), VC selectivity 1% / 10%");
    let cols = ["1% GTS", "10% GTS", "1% S3D", "10% S3D"];
    let mut table = Table::new(&["system", cols[0], cols[1], cols[2], cols[3]]);
    let mut measured: Vec<(String, Vec<f64>)> = Vec::new();

    for (col_base, spec) in [
        (0usize, DatasetSpec::gts(args.large)),
        (2usize, DatasetSpec::s3d(args.large)),
    ] {
        eprintln!("[table2] building systems for {} ...", spec.name);
        let field = spec.generate();
        let be = MemBackend::new();
        let systems = build_systems(&be, &spec, &field, Lineup::Full);
        eprintln!("[table2] running queries for {} ...", spec.name);
        let rows = region_comparison(
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
    println!("paper Table II (8 GB, for shape comparison):");
    let mut p = Table::new(&["system", "1% GTS", "10% GTS", "1% S3D", "10% S3D"]);
    for (name, vals) in paper {
        p.row_seconds(name, vals);
    }
    p.print();
    note(&format!(
        "{} queries averaged per cell, {} ranks, scaled datasets",
        args.queries, args.ranks
    ));
    note("expected shape: MLOC ≪ Seq. Scan < FastBit ≪ SciDB");
    enforce_shape(
        "every MLOC variant below Seq. Scan in every cell",
        &shape_violations(
            &measured,
            &["MLOC-COL", "MLOC-ISO", "MLOC-ISA"],
            "Seq. Scan",
            &[0, 1, 2, 3],
            &cols,
        ),
    );
}
