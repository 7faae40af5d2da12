//! Property tests for the structural validator: every plan built from a
//! random CSR — across scalar widths, reorder on/off, and a
//! serialization round-trip — verifies clean, and single-field mutations
//! of each invariant are rejected, by the verifier and by the reader.

use dasp_core::consts::DaspParams;
use dasp_core::format::DaspMatrix;
use dasp_core::DaspPlan;
use dasp_fp16::{Scalar, F16};
use dasp_sparse::{Coo, Csr};
use dasp_verify::{verify_matrix, verify_plan, Invariant};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rows: usize, cols: usize, mix: (u32, u32, u32), seed: u64) -> Csr<f64> {
    let (short_w, medium_w, long_w) = mix;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, cols);
    let total = (short_w + medium_w + long_w).max(1);
    for r in 0..rows {
        let dice = rng.gen_range(0..total);
        let len = if dice < short_w {
            rng.gen_range(0..=4usize)
        } else if dice < short_w + medium_w {
            rng.gen_range(5..=40usize)
        } else {
            rng.gen_range(41..=120usize)
        }
        .min(cols);
        let mut cs: Vec<usize> = Vec::with_capacity(len);
        while cs.len() < len {
            let c = rng.gen_range(0..cols);
            if !cs.contains(&c) {
                cs.push(c);
            }
        }
        for c in cs {
            coo.push(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    coo.to_csr()
}

fn assert_accepts<S: Scalar>(csr: &Csr<S>, params: DaspParams) {
    let plan = DaspPlan::analyze(csr, params);
    let m = plan.fill(csr);
    let r = verify_matrix(&m);
    assert!(r.is_clean(), "built plan must verify clean: {r}");
    assert!(verify_plan(&plan).is_clean());

    // Serialization round-trip (matrix + DASPPLN1 trailer) stays clean.
    let mut buf = Vec::new();
    m.write_to(&mut buf).unwrap();
    let back = DaspMatrix::<S>::read_from(&mut buf.as_slice()).unwrap();
    let r = verify_matrix(&back);
    assert!(r.is_clean(), "round-tripped plan must verify clean: {r}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_plans_verify_clean_at_all_widths(
        rows in 1usize..120,
        cols in 121usize..300,
        short_w in 0u32..8,
        medium_w in 0u32..8,
        long_w in 0u32..4,
        reorder in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let csr = random_matrix(rows, cols, (short_w, medium_w, long_w), seed);
        let params = DaspParams { max_len: 40, reorder, ..DaspParams::default() };
        assert_accepts(&csr, params);
        let f32csr: Csr<f32> = csr.cast();
        assert_accepts(&f32csr, params);
        let f16csr: Csr<F16> = csr.cast();
        assert_accepts(&f16csr, params);
    }

    #[test]
    fn single_field_mutations_are_rejected(
        seed in any::<u64>(),
        which in 0usize..9,
    ) {
        let csr = random_matrix(90, 200, (4, 4, 2), seed);
        let params = DaspParams { max_len: 40, ..DaspParams::default() };
        let plan = DaspPlan::analyze(&csr, params);
        let mut m = plan.fill(&csr);

        // One planted violation per invariant class; structure-dependent
        // cases fall through to an always-available mutation when the
        // random matrix lacks the needed category.
        let expected = match which {
            0 if m.long.group_ptr.len() > 1 => {
                // Zeroing the step breaks strict monotonicity regardless
                // of the surrounding values (a `+= 1` could legally shift
                // a group boundary instead).
                m.long.group_ptr[1] = 0;
                Invariant::PtrMonotone
            }
            1 if !m.long.vals.is_empty() => {
                m.long.vals.pop();
                Invariant::LenConsistency
            }
            2 => {
                m.short.cids.push(0);
                Invariant::PayloadSize
            }
            3 if !m.medium.reg_cid.is_empty() => {
                m.medium.reg_cid[0] = m.cols as u32;
                Invariant::CidRange
            }
            4 if !m.medium.rows.is_empty() => {
                m.medium.rows[0] = m.rows as u32;
                Invariant::RowRange
            }
            5 if m.medium.rows.len() > 1 => {
                m.medium.rows[0] = m.medium.rows[1];
                Invariant::RowPartition
            }
            6 => {
                m.nnz += 1;
                Invariant::NnzPartition
            }
            7 if !m.long.cids.is_empty() => {
                m.long.cids[0] ^= 1;
                Invariant::PlanMatch
            }
            8 => {
                m.params.reorder = !m.params.reorder;
                Invariant::ReorderFlag
            }
            _ => {
                m.nnz += 1;
                Invariant::NnzPartition
            }
        };
        let r = verify_matrix(&m);
        prop_assert!(!r.is_clean(), "mutation {which} must dirty the report");
        prop_assert!(
            r.count(expected) > 0,
            "mutation {which} must flag {expected}, got: {r}"
        );
        // The read path runs the same checker: the mutated matrix must not
        // survive a serialization round-trip.
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        prop_assert!(
            DaspMatrix::<f64>::read_from(&mut buf.as_slice()).is_err(),
            "mutation {which} ({expected}) read back Ok"
        );
    }
}
