//! Line-oriented text format for portable QP instances.
//!
//! The committed corpus under `tests/fixtures/qp_corpus/` stores every
//! instance in this format, and the differential suite replays them
//! through both QP backends. The format is deliberately tiny — one
//! keyword-prefixed line per logical item, whitespace-separated `f64`
//! values printed with Rust's shortest round-trip `Display` — so that a
//! failing proptest can embed a complete reproducer in its panic message
//! and a human can read the instance in a diff.
//!
//! # Format
//!
//! ```text
//! qp 1
//! name clean-simplex-3
//! origin optional free-text provenance line
//! dim 3 eq 1 ineq 3
//! H 2 0 0
//! H 0 2 0
//! H 0 0 2
//! c -1 -2 -3
//! E 1 1 1
//! e 1
//! A 1 0 0
//! A 0 1 0
//! A 0 0 1
//! b 0 0 0
//! start 0.5 0.25 0.25
//! active 0
//! end
//! ```
//!
//! Header `qp 1` (format version), then `name`, optional `origin`,
//! `dim <n> eq <p> ineq <m>`, `n` rows of `H`, one `c` line, the
//! equality block (`p` rows of `E` plus one `e` line, omitted when
//! `p = 0`), the inequality block likewise, an optional warm `start`
//! point and `active` set (sorted, strictly increasing inequality-row
//! indices), and a closing `end`. Parsers skip blank lines and `#`
//! comments; the canonical writer never emits either, which is what
//! makes write → parse → write byte-identical. Every parse failure
//! reports the 1-based line number (0 = truncated input) through
//! [`OptError::Corpus`].

use std::fmt::Write as _;

use cellsync_linalg::{Matrix, Vector};

use crate::qp::QpProblem;
use crate::{OptError, Result};

/// Current (and only) format version.
const FORMAT_VERSION: &str = "1";

/// An owned, serializable QP instance.
///
/// Unlike [`QpProblem`], which borrows its matrices from the caller for
/// zero-copy solves, a `QpInstance` owns everything so it can outlive
/// whatever fit produced it — the harvest hook in `cellsync` returns
/// these, and the corpus files on disk deserialize into them. Call
/// [`QpInstance::problem`] to get a borrowed view any backend can solve.
///
/// # Example
///
/// ```
/// use cellsync_linalg::{Matrix, Vector};
/// use cellsync_opt::{IpmWorkspace, QpInstance};
///
/// # fn main() -> Result<(), cellsync_opt::OptError> {
/// let instance = QpInstance::new(
///     "doc-box-2",
///     Matrix::identity(2).scaled(2.0),
///     Vector::from_slice(&[-2.0, -5.0]),
/// )?
/// .with_inequalities(
///     Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0]]).expect("rows"),
///     Vector::from_slice(&[0.0, 0.0, -2.0]),
/// )?;
/// let text = instance.to_text();
/// let parsed = QpInstance::parse(&text)?;
/// assert_eq!(parsed.to_text(), text); // byte-identical round trip
/// let sol = IpmWorkspace::new().solve(&parsed.problem()?)?;
/// assert!((sol.x[1] - 2.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QpInstance {
    name: String,
    origin: Option<String>,
    h: Matrix,
    c: Vector,
    eq: Option<(Matrix, Vector)>,
    ineq: Option<(Matrix, Vector)>,
    start: Option<Vector>,
    active: Vec<usize>,
}

impl QpInstance {
    /// Creates an unconstrained instance from an objective.
    ///
    /// # Errors
    ///
    /// [`OptError::InvalidArgument`] for an empty or non-`[A-Za-z0-9._-]`
    /// name or non-finite data; [`OptError::DimensionMismatch`] when `h`
    /// is not square of `c`'s length.
    pub fn new(name: &str, h: Matrix, c: Vector) -> Result<Self> {
        if name.is_empty()
            || !name
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || matches!(ch, '-' | '_' | '.'))
        {
            return Err(OptError::InvalidArgument(
                "instance name must be nonempty and use only [A-Za-z0-9._-]",
            ));
        }
        if h.rows() != h.cols() || h.rows() == 0 {
            return Err(OptError::InvalidArgument("hessian must be square, n >= 1"));
        }
        if c.len() != h.rows() {
            return Err(OptError::DimensionMismatch {
                what: "linear term",
                expected: h.rows(),
                got: c.len(),
            });
        }
        if !all_finite(h.as_slice()) || !all_finite(c.as_slice()) {
            return Err(OptError::InvalidArgument(
                "objective has non-finite entries",
            ));
        }
        Ok(QpInstance {
            name: name.to_string(),
            origin: None,
            h,
            c,
            eq: None,
            ineq: None,
            start: None,
            active: Vec::new(),
        })
    }

    /// Attaches a free-text provenance line (harvest parameters, paper
    /// reference, proptest seed — anything a human debugging a corpus
    /// failure would want).
    ///
    /// # Errors
    ///
    /// [`OptError::InvalidArgument`] when the text is empty or contains
    /// control characters (it must survive as a single line).
    pub fn with_origin(mut self, origin: &str) -> Result<Self> {
        if origin.trim().is_empty() || origin.chars().any(|ch| ch.is_control()) {
            return Err(OptError::InvalidArgument(
                "origin must be a nonempty single line without control characters",
            ));
        }
        self.origin = Some(origin.trim().to_string());
        Ok(self)
    }

    /// Adds equality constraints `Ex = e`.
    ///
    /// # Errors
    ///
    /// Dimension mismatches and non-finite entries, as in
    /// [`QpInstance::new`].
    pub fn with_equalities(mut self, e_mat: Matrix, e_rhs: Vector) -> Result<Self> {
        check_block("equalities", &e_mat, &e_rhs, self.h.rows())?;
        self.eq = Some((e_mat, e_rhs));
        Ok(self)
    }

    /// Adds inequality constraints `Ax >= b`.
    ///
    /// # Errors
    ///
    /// Dimension mismatches and non-finite entries, as in
    /// [`QpInstance::new`].
    pub fn with_inequalities(mut self, a_mat: Matrix, b_rhs: Vector) -> Result<Self> {
        check_block("inequalities", &a_mat, &b_rhs, self.h.rows())?;
        self.ineq = Some((a_mat, b_rhs));
        Ok(self)
    }

    /// Attaches a warm starting point: the point the `active` hint was
    /// read at (for a harvested fit, the fitted coefficients). Neither
    /// backend reads it; it is kept with the instance as its record.
    ///
    /// # Errors
    ///
    /// [`OptError::DimensionMismatch`] / [`OptError::InvalidArgument`]
    /// for wrong length or non-finite entries.
    pub fn with_start(mut self, start: Vector) -> Result<Self> {
        if start.len() != self.h.rows() {
            return Err(OptError::DimensionMismatch {
                what: "start",
                expected: self.h.rows(),
                got: start.len(),
            });
        }
        if !all_finite(start.as_slice()) {
            return Err(OptError::InvalidArgument("start has non-finite entries"));
        }
        self.start = Some(start);
        Ok(self)
    }

    /// Attaches a warm active-set hint: sorted, strictly increasing
    /// inequality-row indices.
    ///
    /// # Errors
    ///
    /// [`OptError::InvalidArgument`] when indices are unsorted,
    /// duplicated, or out of range.
    pub fn with_active(mut self, active: Vec<usize>) -> Result<Self> {
        let m = self.ineq.as_ref().map_or(0, |(a, _)| a.rows());
        for w in active.windows(2) {
            if w[1] <= w[0] {
                return Err(OptError::InvalidArgument(
                    "active set must be sorted and strictly increasing",
                ));
            }
        }
        if active.last().is_some_and(|&i| i >= m) {
            return Err(OptError::InvalidArgument(
                "active set index out of inequality range",
            ));
        }
        self.active = active;
        Ok(self)
    }

    /// Instance name (file stem by convention).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Provenance line, when recorded.
    pub fn origin(&self) -> Option<&str> {
        self.origin.as_deref()
    }

    /// Problem dimension `n`.
    pub fn dim(&self) -> usize {
        self.h.rows()
    }

    /// The Hessian `H`.
    pub fn hessian(&self) -> &Matrix {
        &self.h
    }

    /// The linear term `c`.
    pub fn linear(&self) -> &Vector {
        &self.c
    }

    /// Equality block `(E, e)`, when present.
    pub fn equalities(&self) -> Option<(&Matrix, &Vector)> {
        self.eq.as_ref().map(|(m, v)| (m, v))
    }

    /// Inequality block `(A, b)`, when present.
    pub fn inequalities(&self) -> Option<(&Matrix, &Vector)> {
        self.ineq.as_ref().map(|(m, v)| (m, v))
    }

    /// Warm starting point, when present.
    pub fn start(&self) -> Option<&Vector> {
        self.start.as_ref()
    }

    /// Warm active-set hint (empty when absent).
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Borrowed [`QpProblem`] view over this instance (the warm start and
    /// active hint are not part of the problem).
    ///
    /// # Errors
    ///
    /// Propagates [`QpProblem`] construction errors (e.g. an asymmetric
    /// Hessian a hand-edited corpus file might carry).
    pub fn problem(&self) -> Result<QpProblem<'_>> {
        let mut problem = QpProblem::new(&self.h, &self.c)?;
        if let Some((e_mat, e_rhs)) = &self.eq {
            problem = problem.with_equalities(e_mat, e_rhs)?;
        }
        if let Some((a_mat, b_rhs)) = &self.ineq {
            problem = problem.with_inequalities(a_mat, b_rhs)?;
        }
        Ok(problem)
    }

    /// Serializes to the canonical text form.
    ///
    /// Canonical means: no blank lines, no comments, single spaces,
    /// values printed with `f64`'s shortest round-trip `Display` — so
    /// `parse(to_text(x)).to_text() == to_text(x)` byte for byte.
    pub fn to_text(&self) -> String {
        let n = self.dim();
        let p = self.eq.as_ref().map_or(0, |(m, _)| m.rows());
        let m = self.ineq.as_ref().map_or(0, |(a, _)| a.rows());
        let mut out = String::new();
        let _ = writeln!(out, "qp {FORMAT_VERSION}");
        let _ = writeln!(out, "name {}", self.name);
        if let Some(origin) = &self.origin {
            let _ = writeln!(out, "origin {origin}");
        }
        let _ = writeln!(out, "dim {n} eq {p} ineq {m}");
        for r in 0..n {
            write_row(&mut out, "H", self.h.row(r));
        }
        write_row(&mut out, "c", self.c.as_slice());
        if let Some((e_mat, e_rhs)) = &self.eq {
            for r in 0..p {
                write_row(&mut out, "E", e_mat.row(r));
            }
            write_row(&mut out, "e", e_rhs.as_slice());
        }
        if let Some((a_mat, b_rhs)) = &self.ineq {
            for r in 0..m {
                write_row(&mut out, "A", a_mat.row(r));
            }
            write_row(&mut out, "b", b_rhs.as_slice());
        }
        if let Some(start) = &self.start {
            write_row(&mut out, "start", start.as_slice());
        }
        if !self.active.is_empty() {
            let _ = write!(out, "active");
            for i in &self.active {
                let _ = write!(out, " {i}");
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses the text form.
    ///
    /// Blank lines and lines starting with `#` are skipped. Everything
    /// else must follow the grammar exactly; violations produce
    /// [`OptError::Corpus`] with the 1-based line number (0 when the
    /// document ends prematurely).
    ///
    /// # Errors
    ///
    /// [`OptError::Corpus`] for any malformed document: wrong header,
    /// non-finite or unparseable numbers, wrong row counts or lengths,
    /// unknown keywords, truncation, or trailing content after `end`.
    pub fn parse(text: &str) -> Result<QpInstance> {
        let mut lines = ContentLines::new(text);

        let (ln, header) = lines.next_required("header `qp 1`")?;
        let toks: Vec<&str> = header.split_whitespace().collect();
        if toks != ["qp", FORMAT_VERSION] {
            return Err(parse_err(ln, "expected header `qp 1`"));
        }

        let (ln, line) = lines.next_required("`name` line")?;
        let name = match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["name", value] => value.to_string(),
            _ => return Err(parse_err(ln, "expected `name <identifier>`")),
        };

        let (mut ln, mut line) = lines.next_required("`dim` line")?;
        let mut origin = None;
        if let Some(rest) = line.strip_prefix("origin") {
            let rest = rest.trim();
            if rest.is_empty() {
                return Err(parse_err(ln, "`origin` requires text"));
            }
            origin = Some(rest.to_string());
            let (l2, next) = lines.next_required("`dim` line")?;
            ln = l2;
            line = next;
        }

        let toks: Vec<&str> = line.split_whitespace().collect();
        let (n, p, m) = match toks[..] {
            ["dim", n, "eq", p, "ineq", m] => (
                parse_count(ln, "dim", n)?,
                parse_count(ln, "eq", p)?,
                parse_count(ln, "ineq", m)?,
            ),
            _ => return Err(parse_err(ln, "expected `dim <n> eq <p> ineq <m>`")),
        };
        if n == 0 {
            return Err(parse_err(ln, "dimension must be at least 1"));
        }

        let h = parse_matrix(&mut lines, "H", n, n)?;
        let c = parse_vector(&mut lines, "c", n)?;
        let eq = if p > 0 {
            let e_mat = parse_matrix(&mut lines, "E", p, n)?;
            let e_rhs = parse_vector(&mut lines, "e", p)?;
            Some((e_mat, e_rhs))
        } else {
            None
        };
        let ineq = if m > 0 {
            let a_mat = parse_matrix(&mut lines, "A", m, n)?;
            let b_rhs = parse_vector(&mut lines, "b", m)?;
            Some((a_mat, b_rhs))
        } else {
            None
        };

        let mut start = None;
        let mut active = Vec::new();
        loop {
            let (ln, line) = lines.next_required("`end`")?;
            let mut toks = line.split_whitespace();
            match toks.next() {
                Some("start") => {
                    if start.is_some() {
                        return Err(parse_err(ln, "duplicate `start` line"));
                    }
                    if !active.is_empty() {
                        return Err(parse_err(ln, "`start` must precede `active`"));
                    }
                    let values = parse_floats(ln, "start", toks, n)?;
                    start = Some(Vector::from_slice(&values));
                }
                Some("active") => {
                    if !active.is_empty() {
                        return Err(parse_err(ln, "duplicate `active` line"));
                    }
                    for tok in toks {
                        let idx: usize = tok
                            .parse()
                            .map_err(|_| parse_err(ln, format!("invalid active index `{tok}`")))?;
                        if active.last().is_some_and(|&prev| idx <= prev) {
                            return Err(parse_err(
                                ln,
                                "active indices must be strictly increasing",
                            ));
                        }
                        if idx >= m {
                            return Err(parse_err(
                                ln,
                                format!("active index {idx} out of range (ineq {m})"),
                            ));
                        }
                        active.push(idx);
                    }
                    if active.is_empty() {
                        return Err(parse_err(ln, "`active` requires at least one index"));
                    }
                }
                Some("end") => {
                    if line.trim() != "end" {
                        return Err(parse_err(ln, "`end` takes no arguments"));
                    }
                    break;
                }
                _ => {
                    return Err(parse_err(
                        ln,
                        format!("expected `start`, `active`, or `end`, got `{line}`"),
                    ))
                }
            }
        }
        if let Some((ln, line)) = lines.next_optional() {
            return Err(parse_err(
                ln,
                format!("unexpected content after `end`: `{line}`"),
            ));
        }

        let mut instance = QpInstance::new(&name, h, c)
            .map_err(|e| parse_err(0, format!("invalid instance: {e}")))?;
        if let Some(text) = origin {
            instance = instance
                .with_origin(&text)
                .map_err(|e| parse_err(0, format!("invalid origin: {e}")))?;
        }
        if let Some((e_mat, e_rhs)) = eq {
            instance = instance
                .with_equalities(e_mat, e_rhs)
                .map_err(|e| parse_err(0, format!("invalid equalities: {e}")))?;
        }
        if let Some((a_mat, b_rhs)) = ineq {
            instance = instance
                .with_inequalities(a_mat, b_rhs)
                .map_err(|e| parse_err(0, format!("invalid inequalities: {e}")))?;
        }
        if let Some(x0) = start {
            instance = instance
                .with_start(x0)
                .map_err(|e| parse_err(0, format!("invalid start: {e}")))?;
        }
        instance = instance
            .with_active(active)
            .map_err(|e| parse_err(0, format!("invalid active set: {e}")))?;
        Ok(instance)
    }
}

/// Iterator over non-blank, non-comment lines with 1-based numbering.
struct ContentLines<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> ContentLines<'a> {
    fn new(text: &'a str) -> Self {
        ContentLines {
            lines: text.lines().enumerate(),
        }
    }

    fn next_optional(&mut self) -> Option<(usize, &'a str)> {
        for (idx, raw) in self.lines.by_ref() {
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            return Some((idx + 1, trimmed));
        }
        None
    }

    fn next_required(&mut self, what: &str) -> Result<(usize, &'a str)> {
        self.next_optional()
            .ok_or_else(|| parse_err(0, format!("unexpected end of input: expected {what}")))
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> OptError {
    OptError::Corpus {
        line,
        message: message.into(),
    }
}

fn parse_count(line: usize, what: &str, tok: &str) -> Result<usize> {
    tok.parse()
        .map_err(|_| parse_err(line, format!("invalid {what} count `{tok}`")))
}

fn parse_floats<'a>(
    line: usize,
    tag: &str,
    toks: impl Iterator<Item = &'a str>,
    expected: usize,
) -> Result<Vec<f64>> {
    let mut values = Vec::with_capacity(expected);
    for tok in toks {
        let v: f64 = tok
            .parse()
            .map_err(|_| parse_err(line, format!("invalid number `{tok}` in `{tag}` line")))?;
        if !v.is_finite() {
            return Err(parse_err(
                line,
                format!("non-finite value `{tok}` in `{tag}` line"),
            ));
        }
        values.push(v);
    }
    if values.len() != expected {
        return Err(parse_err(
            line,
            format!(
                "`{tag}` line has {} values, expected {expected}",
                values.len()
            ),
        ));
    }
    Ok(values)
}

fn parse_tagged_row<'a>(
    lines: &mut ContentLines<'a>,
    tag: &str,
    expected: usize,
) -> Result<Vec<f64>> {
    let (ln, line) = lines.next_required(&format!("`{tag}` line"))?;
    let mut toks = line.split_whitespace();
    if toks.next() != Some(tag) {
        return Err(parse_err(
            ln,
            format!("expected `{tag}` line, got `{line}`"),
        ));
    }
    parse_floats(ln, tag, toks, expected)
}

fn parse_matrix(
    lines: &mut ContentLines<'_>,
    tag: &str,
    rows: usize,
    cols: usize,
) -> Result<Matrix> {
    let mut data: Vec<Vec<f64>> = Vec::with_capacity(rows);
    for _ in 0..rows {
        data.push(parse_tagged_row(lines, tag, cols)?);
    }
    Ok(Matrix::from_fn(rows, cols, |i, j| data[i][j]))
}

fn parse_vector(lines: &mut ContentLines<'_>, tag: &str, len: usize) -> Result<Vector> {
    Ok(Vector::from_slice(&parse_tagged_row(lines, tag, len)?))
}

fn write_row(out: &mut String, tag: &str, values: &[f64]) {
    let _ = write!(out, "{tag}");
    for v in values {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

fn check_block(what: &'static str, mat: &Matrix, rhs: &Vector, n: usize) -> Result<()> {
    if mat.cols() != n {
        return Err(OptError::DimensionMismatch {
            what,
            expected: n,
            got: mat.cols(),
        });
    }
    if rhs.len() != mat.rows() {
        return Err(OptError::DimensionMismatch {
            what,
            expected: mat.rows(),
            got: rhs.len(),
        });
    }
    if !all_finite(mat.as_slice()) || !all_finite(rhs.as_slice()) {
        return Err(OptError::InvalidArgument(
            "constraint block has non-finite entries",
        ));
    }
    Ok(())
}

fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QpInstance {
        QpInstance::new(
            "test-mixed-3",
            Matrix::from_rows(&[&[2.0, 0.5, 0.0], &[0.5, 2.0, 0.0], &[0.0, 0.0, 1.5]]).unwrap(),
            Vector::from_slice(&[-1.0, 0.25, -0.125]),
        )
        .unwrap()
        .with_origin("unit test fixture, PR 6")
        .unwrap()
        .with_equalities(
            Matrix::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap(),
            Vector::from_slice(&[1.0]),
        )
        .unwrap()
        .with_inequalities(Matrix::identity(3), Vector::zeros(3))
        .unwrap()
        .with_start(Vector::from_slice(&[0.5, 0.25, 0.25]))
        .unwrap()
        .with_active(vec![1, 2])
        .unwrap()
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let text = sample().to_text();
        let parsed = QpInstance::parse(&text).unwrap();
        assert_eq!(parsed, sample());
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn round_trip_survives_awkward_floats() {
        // Shortest round-trip Display must reproduce these exactly.
        let vals = [
            2e-9,
            1.0 / 3.0,
            -0.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            0.1 + 0.2,
        ];
        let h = Matrix::identity(6);
        let c = Vector::from_slice(&vals);
        let inst = QpInstance::new("awkward", h, c).unwrap();
        let text = inst.to_text();
        let reparsed = QpInstance::parse(&text).unwrap();
        for (a, b) in inst.linear().iter().zip(reparsed.linear().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        assert_eq!(reparsed.to_text(), text);
    }

    #[test]
    fn comments_and_blank_lines_parse_but_are_not_canonical() {
        let canonical = sample().to_text();
        let mut padded = String::from("# corpus fixture\n\n");
        for line in canonical.lines() {
            padded.push_str(line);
            padded.push_str("\n\n# trailing comment\n");
        }
        let parsed = QpInstance::parse(&padded).unwrap();
        assert_eq!(parsed.to_text(), canonical);
    }

    #[test]
    fn malformed_documents_report_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("qp 2\n", 1, "header"),
            ("nonsense\n", 1, "header"),
            ("qp 1\nname a b\n", 2, "name"),
            ("qp 1\nname t\ndim 1 eq 0\n", 3, "dim"),
            ("qp 1\nname t\ndim x eq 0 ineq 0\n", 3, "dim count"),
            ("qp 1\nname t\ndim 0 eq 0 ineq 0\n", 3, "dimension"),
            (
                "qp 1\nname t\ndim 2 eq 0 ineq 0\nH 1 0\nH nan 1\n",
                5,
                "non-finite",
            ),
            (
                "qp 1\nname t\ndim 2 eq 0 ineq 0\nH 1 0\nH inf 1\n",
                5,
                "non-finite",
            ),
            (
                "qp 1\nname t\ndim 2 eq 0 ineq 0\nH 1 0\nH 1,5 1\n",
                5,
                "invalid number",
            ),
            ("qp 1\nname t\ndim 2 eq 0 ineq 0\nH 1 0 0\n", 4, "values"),
            (
                "qp 1\nname t\ndim 2 eq 0 ineq 0\nc 0 0\n",
                4,
                "expected `H`",
            ),
            (
                "qp 1\nname t\ndim 1 eq 0 ineq 1\nH 1\nc 0\nA 1\nb 0\nactive 0 0\nend\n",
                8,
                "strictly increasing",
            ),
            (
                "qp 1\nname t\ndim 1 eq 0 ineq 1\nH 1\nc 0\nA 1\nb 0\nactive 3\nend\n",
                8,
                "out of range",
            ),
            (
                "qp 1\nname t\ndim 1 eq 0 ineq 0\nH 1\nc 0\nend\nextra\n",
                7,
                "after `end`",
            ),
            (
                "qp 1\nname t\ndim 1 eq 0 ineq 0\nH 1\nc 0\nstart 0\nstart 0\nend\n",
                7,
                "duplicate",
            ),
        ];
        for (text, line, needle) in cases {
            let err = QpInstance::parse(text).expect_err(text);
            let OptError::Corpus { line: got, message } = &err else {
                panic!("expected Corpus error for {text:?}, got {err}");
            };
            assert_eq!(got, line, "{text:?}: {message}");
            assert!(
                message.contains(needle),
                "{text:?}: message `{message}` missing `{needle}`"
            );
        }
    }

    #[test]
    fn truncation_reports_end_of_input() {
        let full = sample().to_text();
        // Chop the document after each content line except the last and
        // check the parser reports line 0 (end of input).
        let lines: Vec<&str> = full.lines().collect();
        for cut in 1..lines.len() {
            let partial = lines[..cut].join("\n");
            let err = QpInstance::parse(&partial).expect_err(&partial);
            match err {
                OptError::Corpus { line: 0, message } => {
                    assert!(message.contains("end of input"), "{message}");
                }
                other => panic!("cut={cut}: expected truncation error, got {other}"),
            }
        }
    }

    #[test]
    fn constructor_rejects_bad_instances() {
        let h = Matrix::identity(2);
        let c = Vector::zeros(2);
        assert!(QpInstance::new("", h.clone(), c.clone()).is_err());
        assert!(QpInstance::new("has space", h.clone(), c.clone()).is_err());
        assert!(QpInstance::new("ok", h.clone(), Vector::zeros(3)).is_err());
        assert!(QpInstance::new("ok", h.clone(), Vector::from_slice(&[f64::NAN, 0.0])).is_err());
        let inst = QpInstance::new("ok", h, c).unwrap();
        assert!(inst.clone().with_origin("  ").is_err());
        assert!(inst
            .clone()
            .with_inequalities(Matrix::identity(3), Vector::zeros(3))
            .is_err());
        assert!(inst.clone().with_active(vec![0]).is_err());
        assert!(inst.with_start(Vector::zeros(5)).is_err());
    }

    #[test]
    fn problem_view_solves() {
        let inst = sample();
        let problem = inst.problem().unwrap();
        let sol = crate::IpmWorkspace::new().solve(&problem).unwrap();
        assert!((sol.x.iter().sum::<f64>() - 1.0).abs() < 1e-8);
    }
}
