//! Aggregation helpers for the experiment reports.

use dasp_trace::escape_csv;

/// Geometric mean of a sequence of positive values; `None` when the input
/// is empty or contains non-positive values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Speedup statistics of one method over another across a corpus — the
/// numbers the paper's abstract quotes ("on average 1.46x, up to 12.64x,
/// faster on 2403 matrices").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupSummary {
    /// Geometric-mean speedup.
    pub geomean: f64,
    /// Maximum speedup.
    pub max: f64,
    /// Minimum speedup.
    pub min: f64,
    /// Number of matrices where the speedup exceeds 1.
    pub wins: usize,
    /// Total matrices compared.
    pub total: usize,
}

/// Builds a [`SpeedupSummary`] from paired `(t_ours, t_theirs)` times;
/// speedup is `t_theirs / t_ours`.
pub fn speedup_summary(pairs: &[(f64, f64)]) -> Option<SpeedupSummary> {
    let speedups: Vec<f64> = pairs
        .iter()
        .filter(|(a, b)| *a > 0.0 && *b > 0.0)
        .map(|(ours, theirs)| theirs / ours)
        .collect();
    if speedups.is_empty() {
        return None;
    }
    Some(SpeedupSummary {
        geomean: geomean(&speedups)?,
        max: speedups.iter().cloned().fold(f64::MIN, f64::max),
        min: speedups.iter().cloned().fold(f64::MAX, f64::min),
        wins: speedups.iter().filter(|&&s| s > 1.0).count(),
        total: speedups.len(),
    })
}

/// Writes rows as a CSV string: a header line, then one line per row.
/// Fields are escaped per RFC 4180, so matrix names containing commas or
/// quotes (SuiteSparse group/name strings do) survive a round trip.
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(
        &header
            .iter()
            .map(|h| escape_csv(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(
            &row.iter()
                .map(|f| escape_csv(f))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[4.0, 1.0]), Some(2.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_summary_counts_wins() {
        // ours=1 vs theirs=2 -> 2x win; ours=4 vs theirs=2 -> 0.5 loss.
        let s = speedup_summary(&[(1.0, 2.0), (4.0, 2.0)]).unwrap();
        assert_eq!(s.wins, 1);
        assert_eq!(s.total, 2);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.min, 0.5);
        assert!((s.geomean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn csv_layout() {
        let csv = to_csv(
            &["name", "gflops"],
            &[vec!["a".into(), "1.5".into()], vec!["b".into(), "2".into()]],
        );
        assert_eq!(csv, "name,gflops\na,1.5\nb,2\n");
    }

    #[test]
    fn csv_fields_with_commas_quotes_and_newlines_are_quoted() {
        let csv = to_csv(
            &["matrix", "note"],
            &[
                vec!["HB,bcsstk01".into(), "plain".into()],
                vec!["say \"hi\"".into(), "two\nlines".into()],
            ],
        );
        let mut lines = csv.split('\n');
        assert_eq!(lines.next(), Some("matrix,note"));
        assert_eq!(lines.next(), Some("\"HB,bcsstk01\",plain"));
        // The quoted-newline row spans two physical lines.
        assert_eq!(lines.next(), Some("\"say \"\"hi\"\"\",\"two"));
        assert_eq!(lines.next(), Some("lines\""));
    }

    #[test]
    fn degenerate_pairs_are_skipped() {
        assert!(speedup_summary(&[(0.0, 1.0)]).is_none());
        let s = speedup_summary(&[(0.0, 1.0), (1.0, 3.0)]).unwrap();
        assert_eq!(s.total, 1);
    }
}
