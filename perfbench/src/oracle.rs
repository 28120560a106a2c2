//! Brute-force answers over the generated field, and the checks that
//! compare the program's answers against them.
//!
//! A workload keeps only a [`Digest`] of each expected answer while its
//! loop runs, so the benchmark's own memory stays out of
//! `peak_rss_mb`; on a mismatch the full brute-force check is redone to
//! say what went wrong.

use mloc::plod::relative_error_bound;
use mloc::{PlodLevel, Query};
use std::hash::{DefaultHasher, Hash, Hasher};

/// Length and 64-bit hash of an answer's positions and value bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    /// Digest of an answer: its positions and, if any, value bits.
    pub fn of(positions: &[u64], values: Option<&[f64]>) -> Self {
        let mut h = DefaultHasher::new();
        positions.hash(&mut h);
        for v in values.unwrap_or(&[]) {
            h.write_u64(v.to_bits());
        }
        Digest {
            len: positions.len(),
            hash: h.finish(),
        }
    }
}

/// Compare an answer's digest with the expected one. On a mismatch,
/// `explain` redoes the full check to name the first difference; the
/// run fails either way.
pub fn check_digest(
    what: &str,
    got: Digest,
    want: Digest,
    explain: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    explain()?;
    Err(format!(
        "{what}: answer of {} points differs from the expected {} points",
        got.len, want.len
    ))
}

/// What a workload's loop checks answers against: the generated field
/// and, for ops whose answer was worked out before the loop, that
/// answer's digest.
pub struct Oracle<'f> {
    field: &'f [f64],
    shape: Vec<usize>,
    digests: Vec<Option<Digest>>,
}

impl<'f> Oracle<'f> {
    /// An oracle over a row-major `field` of `shape` that checks every
    /// op against the field itself.
    pub fn new(field: &'f [f64], shape: &[usize]) -> Self {
        Oracle {
            field,
            shape: shape.to_vec(),
            digests: Vec::new(),
        }
    }

    /// Check op `k` against `digests[k]` where it is given.
    pub fn with_digests(self, digests: Vec<Option<Digest>>) -> Self {
        Oracle { digests, ..self }
    }

    /// The generated field.
    pub fn field(&self) -> &'f [f64] {
        self.field
    }

    /// Check the answer of op `k`, whose brute-force answer is that of
    /// `q`: against the op's digest if it has one, else against the
    /// field.
    pub fn check(
        &self,
        what: &str,
        k: usize,
        q: &Query,
        positions: &[u64],
        values: Option<&[f64]>,
    ) -> Result<(), String> {
        match self.digests.get(k).copied().flatten() {
            Some(want) => check_digest(what, Digest::of(positions, values), want, || {
                self.check_field(what, q, positions, values)
            }),
            None => self.check_field(what, q, positions, values),
        }
    }

    /// Positions of the field inside `q`'s box and value window,
    /// ascending.
    pub fn positions(&self, q: &Query) -> Vec<u64> {
        let inside = |p: &u64| {
            q.vc.is_none_or(|(lo, hi)| {
                let v = self.field[*p as usize];
                v >= lo && v < hi
            })
        };
        match &q.sc {
            Some(r) => box_positions(&self.shape, r.ranges())
                .into_iter()
                .filter(inside)
                .collect(),
            None => (0..self.field.len() as u64).filter(inside).collect(),
        }
    }

    /// Check an answer of `q` against a brute-force scan of the field:
    /// positions exactly, and values, when `q` asks for them, within
    /// the bound of its PLoD level.
    pub fn check_field(
        &self,
        what: &str,
        q: &Query,
        positions: &[u64],
        values: Option<&[f64]>,
    ) -> Result<(), String> {
        let want = self.positions(q);
        check_positions(what, positions, &want)?;
        match (q.wants_values(), values) {
            (false, None) => Ok(()),
            (true, Some(v)) => {
                let exact: Vec<f64> = want.iter().map(|&p| self.field[p as usize]).collect();
                check_values(what, v, &exact, q.plod)
            }
            _ => Err(format!("{what}: value output differs from the query's")),
        }
    }
}

/// Row-major positions whose value lies in `[lo, hi)`.
pub fn region_positions(values: &[f64], lo: f64, hi: f64) -> Vec<u64> {
    values
        .iter()
        .enumerate()
        .filter(|(_, &v)| v >= lo && v < hi)
        .map(|(i, _)| i as u64)
        .collect()
}

/// Row-major positions inside a half-open box, ascending.
pub fn box_positions(shape: &[usize], ranges: &[(usize, usize)]) -> Vec<u64> {
    assert_eq!(shape.len(), ranges.len());
    let mut out = vec![0u64];
    for (d, &(a, b)) in ranges.iter().enumerate() {
        let mut next = Vec::with_capacity(out.len() * (b - a));
        for base in &out {
            for i in a..b {
                next.push(base * shape[d] as u64 + i as u64);
            }
        }
        out = next;
    }
    out
}

/// Exact answers must match position for position.
pub fn check_positions(what: &str, got: &[u64], want: &[u64]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let first = got.iter().zip(want).position(|(a, b)| a != b);
    Err(format!(
        "{what}: {} positions returned, {} expected (first difference at index {first:?})",
        got.len(),
        want.len()
    ))
}

/// Values at full precision must be bit-identical; at a reduced PLoD
/// level each must lie within the level's relative error bound.
pub fn check_values(
    what: &str,
    got: &[f64],
    exact: &[f64],
    level: PlodLevel,
) -> Result<(), String> {
    if got.len() != exact.len() {
        return Err(format!(
            "{what}: {} values returned, {} expected",
            got.len(),
            exact.len()
        ));
    }
    let bound = relative_error_bound(level);
    for (i, (&g, &e)) in got.iter().zip(exact).enumerate() {
        let ok = if level.is_full() {
            g.to_bits() == e.to_bits()
        } else {
            (g - e).abs() <= bound * e.abs()
        };
        if !ok {
            return Err(format!(
                "{what}: value {i} is {g}, exact {e} (PLoD {}, bound {bound:e})",
                level.level()
            ));
        }
    }
    Ok(())
}

/// Region answer of a lossy layout: every point that differs from the
/// exact answer must hold a value within `rel` of a constraint edge,
/// where the codec's error can move it across.
pub fn check_region_lossy(
    what: &str,
    values: &[f64],
    lo: f64,
    hi: f64,
    got: &[u64],
    rel: f64,
) -> Result<(), String> {
    let want = region_positions(values, lo, hi);
    let near_edge = |p: u64| {
        let v = values[p as usize];
        let tol = rel * v.abs().max(lo.abs()).max(hi.abs());
        (v - lo).abs() <= tol || (v - hi).abs() <= tol
    };
    let (mut i, mut j) = (0, 0);
    while i < got.len() || j < want.len() {
        let (g, w) = (got.get(i).copied(), want.get(j).copied());
        let stray = match (g, w) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
                None
            }
            (Some(a), Some(b)) if a < b => {
                i += 1;
                Some(a)
            }
            (Some(a), None) => {
                i += 1;
                Some(a)
            }
            (_, Some(b)) => {
                j += 1;
                Some(b)
            }
            (None, None) => unreachable!(),
        };
        if let Some(p) = stray.filter(|&p| !near_edge(p)) {
            return Err(format!(
                "{what}: position {p} (value {}) differs from the exact answer for [{lo}, {hi})",
                values[p as usize]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_tell_answers_apart() {
        let d = Digest::of(&[1, 2, 3], None);
        assert_eq!(d, Digest::of(&[1, 2, 3], None));
        assert_ne!(d, Digest::of(&[1, 2, 4], None));
        assert_ne!(d, Digest::of(&[1, 2], None));
        assert_ne!(d, Digest::of(&[1, 2, 3], Some(&[0.0; 3])));
        assert!(check_digest("t", d, d, || Err("not called".into())).is_ok());
        let other = Digest::of(&[3], None);
        assert_eq!(
            check_digest("t", d, other, || Err("first difference".into())),
            Err("first difference".into())
        );
        assert!(check_digest("t", d, other, || Ok(())).is_err());
    }

    #[test]
    fn field_check_covers_box_window_and_values() {
        let field = [1.0, 5.0, 2.0, 7.0];
        let oracle = Oracle::new(&field, &[2, 2]);
        let q = Query::values_where(1.5, 6.0).with_region(mloc::Region::new(vec![(0, 2), (1, 2)]));
        assert_eq!(oracle.positions(&q), vec![1]);
        assert!(oracle.check_field("t", &q, &[1], Some(&[5.0])).is_ok());
        assert!(oracle
            .check_field("t", &q, &[1], Some(&[5.000001]))
            .is_err());
        assert!(oracle.check_field("t", &q, &[1], None).is_err());
        assert!(oracle
            .check_field("t", &q, &[1, 3], Some(&[5.0, 7.0]))
            .is_err());
        let digest = |p: &[u64], v: Option<&[f64]>| {
            Oracle::new(&field, &[2, 2]).with_digests(vec![Some(Digest::of(p, v))])
        };
        assert!(digest(&[1], Some(&[5.0]))
            .check("t", 0, &q, &[1], Some(&[5.0]))
            .is_ok());
        // A digest that does not match fails even when the field agrees.
        assert!(digest(&[3], None)
            .check("t", 0, &q, &[1], Some(&[5.0]))
            .is_err());
    }

    #[test]
    fn box_positions_are_row_major() {
        assert_eq!(
            box_positions(&[4, 5], &[(1, 3), (2, 4)]),
            vec![7, 8, 12, 13]
        );
        assert_eq!(
            box_positions(&[2, 2, 2], &[(1, 2), (0, 2), (1, 2)]),
            vec![5, 7]
        );
    }

    #[test]
    fn lossy_check_allows_only_edge_points() {
        let values = [1.0, 2.0, 3.0, 4.0];
        assert!(check_region_lossy("t", &values, 2.0, 4.0, &[1, 2], 1e-3).is_ok());
        // Point 3 holds 4.0 = hi: within tolerance of the edge.
        assert!(check_region_lossy("t", &values, 2.0, 4.0, &[1, 2, 3], 1e-3).is_ok());
        // Point 0 holds 1.0, far from both edges.
        assert!(check_region_lossy("t", &values, 2.0, 4.0, &[0, 1, 2], 1e-3).is_err());
        assert!(check_region_lossy("t", &values, 2.0, 4.0, &[2], 1e-3).is_ok());
        assert!(check_region_lossy("t", &values, 2.5, 3.5, &[], 1e-3).is_err());
    }
}
