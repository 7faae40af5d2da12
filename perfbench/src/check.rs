//! Output checks. Every result the program returns is compared here; a
//! mismatch is counted as a failed operation, never a panic, so the run
//! still reports how many operations went wrong.

use dasp_fp16::Scalar;

/// Relative tolerance for fp64 results against the exact reference, the
/// bound the baseline cross-method tests use.
pub const REL_F64: f64 = 1e-9;

/// Relative tolerance for `F16` results against the reference computed in
/// f64 from the same rounded inputs. Half precision keeps 11 significant
/// bits, and the long rows of the mix accumulate thousands of products;
/// the workspace's fp16 end-to-end test uses the same 5% bound.
pub const REL_F16: f64 = 0.05;

/// Whether `got` matches `want` under the rule of
/// `dasp_baselines::reference::assert_matches`: every element within
/// `rel` of the reference, against a magnitude floor of 1.
pub fn matches<S: Scalar>(got: &[S], want: &[f64], rel: f64) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, &w)| (g.to_f64() - w).abs() <= rel * w.abs().max(1.0))
}

/// Whether two results are bit-for-bit identical.
pub fn same_bits<S: Scalar>(a: &[S], b: &[S]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
}

/// Operations attempted and failed (wrong output, error, rejection or
/// dropped reply).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_rule_matches_the_reference_helper() {
        assert!(matches(&[1.0, 2.0], &[1.0, 2.0], 0.0));
        assert!(matches(&[1.0 + 1e-10], &[1.0], REL_F64));
        assert!(!matches(&[1.0 + 1e-8], &[1.0], REL_F64));
        assert!(!matches(&[1.0], &[1.0, 2.0], REL_F64));
        assert!(!same_bits(&[0.0f64], &[-0.0f64]));
    }
}
