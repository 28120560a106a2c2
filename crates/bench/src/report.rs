//! Fixed-width table printing with paper reference values.

/// Print a table title banner.
pub fn title(text: &str) {
    println!();
    println!("=== {text} ===");
}

/// A printable table with a label column and numeric columns.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    label_width: usize,
    col_width: usize,
}

impl Table {
    /// New table with column headers (first column is the row label).
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            label_width: headers.first().map_or(12, |h| h.len()).max(12),
            col_width: 12,
        }
    }

    /// Add a row of preformatted cells.
    pub fn row(&mut self, label: &str, cells: Vec<String>) {
        self.label_width = self.label_width.max(label.len());
        for c in &cells {
            self.col_width = self.col_width.max(c.len() + 1);
        }
        let mut r = vec![label.to_string()];
        r.extend(cells);
        self.rows.push(r);
    }

    /// Add a row of seconds values (formatted with 3 decimals).
    pub fn row_seconds(&mut self, label: &str, values: &[f64]) {
        self.row(label, values.iter().map(|v| format!("{v:.3}")).collect());
    }

    /// Print the table.
    pub fn print(&self) {
        let lw = self.label_width;
        let cw = self.col_width;
        print!("{:<lw$}", self.headers[0]);
        for h in &self.headers[1..] {
            print!(" {h:>cw$}");
        }
        println!();
        let total = lw + (cw + 1) * (self.headers.len() - 1);
        println!("{}", "-".repeat(total));
        for r in &self.rows {
            print!("{:<lw$}", r[0]);
            for c in &r[1..] {
                print!(" {c:>cw$}");
            }
            println!();
        }
    }
}

/// Format a byte count as human-readable MiB/GiB.
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= (1u64 << 30) as f64 {
        format!("{:.2} GiB", b / (1u64 << 30) as f64)
    } else if b >= (1u64 << 20) as f64 {
        format!("{:.1} MiB", b / (1u64 << 20) as f64)
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// Print a note line.
pub fn note(text: &str) {
    println!("  note: {text}");
}

/// Paper-shape gate: every `systems` row must lie strictly below the
/// `reference` row in each of `cols` (indices into the measured cells,
/// named by `headers`). Returns one line per violated ordering; a
/// missing row or a NaN cell is a violation too.
pub fn shape_violations(
    measured: &[(String, Vec<f64>)],
    systems: &[&str],
    reference: &str,
    cols: &[usize],
    headers: &[&str],
) -> Vec<String> {
    let row = |name: &str| measured.iter().find(|(n, _)| n == name).map(|(_, v)| v);
    let mut out = Vec::new();
    let Some(reference_row) = row(reference) else {
        return vec![format!("no {reference} row measured")];
    };
    for &sys in systems {
        let Some(r) = row(sys) else {
            out.push(format!("no {sys} row measured"));
            continue;
        };
        for &c in cols {
            let (v, refv) = (r[c], reference_row[c]);
            if v.partial_cmp(&refv) != Some(std::cmp::Ordering::Less) {
                out.push(format!(
                    "{sys} {v:.3} s is not below {reference} {refv:.3} s at {}",
                    headers[c]
                ));
            }
        }
    }
    out
}

/// Print the outcome of a paper-shape gate and exit with status 1 when
/// any ordering failed.
pub fn enforce_shape(what: &str, violations: &[String]) {
    if violations.is_empty() {
        note(&format!("shape gate passed: {what}"));
        return;
    }
    for v in violations {
        eprintln!("shape gate FAILED ({what}): {v}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_violations_name_each_failed_cell() {
        let measured = vec![
            ("A".to_string(), vec![0.1, 0.5]),
            ("B".to_string(), vec![0.3, f64::NAN]),
            ("Ref".to_string(), vec![0.2, 0.4]),
        ];
        let h = ["c0", "c1"];
        assert!(shape_violations(&measured, &["A"], "Ref", &[0], &h).is_empty());
        let v = shape_violations(&measured, &["A", "B", "C"], "Ref", &[0, 1], &h);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v[0].starts_with("A 0.500") && v[0].ends_with("at c1"));
        assert!(v.iter().any(|l| l == "no C row measured"));
        assert_eq!(
            shape_violations(&measured, &["A"], "X", &[0], &h),
            vec!["no X row measured".to_string()]
        );
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00 GiB");
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["system", "a", "b"]);
        t.row_seconds("MLOC-COL", &[0.5, 1.25]);
        t.row("paper", vec!["0.53".into(), "1.21".into()]);
        t.print(); // visually inspected; must not panic
        assert_eq!(t.rows.len(), 2);
    }
}
