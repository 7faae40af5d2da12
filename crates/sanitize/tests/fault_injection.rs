//! Fault injection: each checker must *fire* on a planted bug.
//!
//! The clean-suite tests (in the workspace root) prove the real kernels
//! produce zero diagnostics; these tests prove the sanitizer would have
//! caught the bugs had they been there, by running deliberately broken
//! warp programs through the same executor + probe machinery the kernels
//! use.

use dasp_sanitize::{Invariant, SanitizeProbe};
use dasp_simt::{
    shfl_down_sync, shfl_sync_var, space, Executor, NoProbe, ParExecutor, Probe, SharedSlice,
    ShflOp,
};

/// Planted bug: every warp targets y[0] — the classic missing-ownership
/// scatter race. Racecheck must flag it under the sequential executor.
///
/// The raw `SharedSlice` write stays disjoint here because its own
/// debug-only assertion would abort the test before racecheck reports;
/// the bug is planted through the `san_write` shadow model, which is
/// exactly the check that still exists in release builds.
#[test]
fn racecheck_catches_cross_warp_scatter_seq() {
    let mut y = vec![0.0f64; 4];
    let mut probe = SanitizeProbe::new(NoProbe);
    probe.kernel_launch(1, 4);
    {
        let y_s = SharedSlice::new(&mut y);
        Executor::seq().run(4, &mut probe, |w, p| {
            p.warp_begin(w);
            p.san_region("inject.race");
            y_s.write(w, w as f64);
            p.san_write(space::Y, &[0]);
            p.warp_end(w);
        });
    }
    let r = probe.report();
    assert!(!r.is_clean());
    assert_eq!(
        r.count(Invariant::Race),
        3,
        "warps 1..4 each collide with warp 0"
    );
    assert!(r
        .sites
        .iter()
        .any(|v| v.invariant == Invariant::Race && v.index == Some(0)));
}

/// The same planted race under the parallel executor: the overlap is only
/// visible when sibling shards merge, which is exactly where racecheck
/// looks.
#[test]
fn racecheck_catches_cross_warp_scatter_par() {
    let mut y = vec![0.0f64; 4];
    let mut probe = SanitizeProbe::new(NoProbe);
    probe.kernel_launch(1, 4);
    let exec = Executor::Par(ParExecutor::new().with_seq_threshold(0));
    {
        let y_s = SharedSlice::new(&mut y);
        exec.run(4, &mut probe, |w, p| {
            p.warp_begin(w);
            p.san_region("inject.race.par");
            y_s.write(w, w as f64);
            p.san_write(space::Y, &[0]);
            p.warp_end(w);
        });
    }
    let r = probe.report();
    assert!(!r.is_clean());
    assert!(
        r.count(Invariant::Race) >= 1,
        "cross-shard merge must flag the overlap"
    );
    assert_eq!(
        r.count(Invariant::Race),
        3,
        "every warp after the first collides"
    );
}

/// Planted bug: one warp stores the same output element twice (e.g. a
/// write-back loop that forgot its predicate).
#[test]
fn racecheck_catches_same_warp_double_write() {
    let mut probe = SanitizeProbe::new(NoProbe);
    probe.kernel_launch(1, 1);
    probe.warp_begin(0);
    probe.san_region("inject.double");
    probe.san_write(space::Y, &[7]);
    probe.san_write(space::Y, &[7]);
    probe.warp_end(0);
    assert_eq!(probe.report().count(Invariant::DoubleWrite), 1);
    let v = &probe.report().sites[0];
    assert_eq!((v.invariant, v.index), (Invariant::DoubleWrite, Some(7)));
}

/// Disjoint scatter (the correct pattern) stays clean under both
/// executors — the race tests above are not tripping on overhead.
#[test]
fn racecheck_disjoint_scatter_is_clean() {
    for exec in [
        Executor::seq(),
        Executor::Par(ParExecutor::new().with_seq_threshold(0)),
    ] {
        let mut y = vec![0.0f64; 8];
        let mut probe = SanitizeProbe::new(NoProbe);
        probe.kernel_launch(1, 8);
        {
            let y_s = SharedSlice::new(&mut y);
            exec.run(8, &mut probe, |w, p| {
                p.warp_begin(w);
                p.san_region("inject.disjoint");
                y_s.write(w, w as f64);
                p.san_write(space::Y, &[w]);
                p.warp_end(w);
            });
        }
        assert!(probe.report().is_clean());
    }
}

/// Planted bug: a warp reduction launched with a half-warp mask but a
/// full-warp shuffle width — lanes 0..16 read lanes 16..32, which are
/// outside the mask, and the values feed the sum. Maskcheck must class
/// this as used (an error), not merely discarded.
#[test]
fn maskcheck_catches_out_of_mask_read_whose_value_is_used() {
    let mut probe = SanitizeProbe::new(NoProbe);
    probe.warp_begin(0);
    probe.san_region("inject.mask");
    let vals: [f64; 32] = std::array::from_fn(|l| l as f64);
    // Correct code would pass delta < 16 or mask = full; delta 16 under a
    // 16-lane mask makes every active lane's source inactive.
    let _ = shfl_down_sync(&mut probe, 0xffff, vals, 16);
    let r = probe.report();
    assert_eq!(r.count(Invariant::ShflMask), 1);
    assert!(!r.is_clean());
    let v = &r.sites[0];
    assert_eq!(v.invariant, Invariant::ShflMask);
    assert!(v.detail.starts_with(ShflOp::Down.name()), "{v}");
    assert!(v.detail.contains("(mask 0x0000ffff)"), "{v}");
}

/// The paper's own extraction pattern — out-of-mask variable-source reads
/// whose results are predicated away — is informational, not an error.
#[test]
fn maskcheck_classifies_discarded_reads_as_benign() {
    let mut probe = SanitizeProbe::new(NoProbe);
    probe.warp_begin(0);
    probe.san_region("inject.mask.discard");
    let vals: [f64; 32] = std::array::from_fn(|l| l as f64);
    // Lanes 8..16 read sources 16..24 (outside the 16-lane mask), but
    // `used` says only lanes 0..8 are consumed afterwards.
    let src: [i32; 32] = std::array::from_fn(|l| l as i32 + 8);
    let _ = shfl_sync_var(&mut probe, 0xffff, vals, &src, 0x00ff);
    let r = probe.report();
    assert_eq!(r.count(Invariant::ShflMask), 0);
    assert_eq!(r.count(Invariant::ShflDiscarded), 1);
    assert!(r.is_clean(), "discarded reads must not dirty the report");
}

/// Planted bug: reading an accumulator fragment slot no MMA (or clear)
/// ever defined — e.g. extracting the diagonal of a fragment whose
/// `acc_zero` was dropped in a refactor.
#[test]
fn initcheck_catches_uninitialized_fragment_read() {
    let mut probe = SanitizeProbe::new(NoProbe);
    probe.warp_begin(0);
    probe.san_region("inject.frag");
    // No san_frag_clear: a masked MMA touches only row-segment 2's slots.
    probe.san_frag_mma(dasp_simt::mma::row_slots(2));
    probe.san_frag_read(8, 0); // lane 8 = row 2: defined
    probe.san_frag_read(0, 0); // lane 0 = row 0: poison
    let r = probe.report();
    assert_eq!(r.count(Invariant::FragInit), 1);
    let v = &r.sites[0];
    assert_eq!(v.invariant, Invariant::FragInit);
    assert!(v.detail.contains("(lane 0, reg 0)"), "{v}");
}

/// Planted bug: phase 2 reads an auxiliary staging element phase 1 never
/// wrote (an off-by-one in the group pointer walk).
#[test]
fn initcheck_catches_never_written_aux_read() {
    let mut probe = SanitizeProbe::new(NoProbe);
    probe.kernel_launch(1, 1);
    probe.warp_begin(0);
    probe.san_region("inject.aux.write");
    probe.san_write(space::AUX, &[0]);
    probe.san_write(space::AUX, &[1]);
    probe.warp_end(0);
    probe.warp_begin(1);
    probe.san_region("inject.aux.read");
    probe.san_read(space::AUX, &[1]); // written: fine
    probe.san_read(space::AUX, &[2]); // off-by-one: never written
    probe.warp_end(1);
    let r = probe.report();
    assert_eq!(r.count(Invariant::UninitRead), 1);
    let v = r.sites.last().unwrap();
    assert_eq!((v.invariant, v.index), (Invariant::UninitRead, Some(2)));
}

/// The planted diagnostics attribute to the region that was active when
/// they fired, and the per-region table splits them correctly.
#[test]
fn diagnostics_attribute_to_regions() {
    let mut probe = SanitizeProbe::new(NoProbe);
    probe.warp_begin(0);
    probe.san_region("inject.kernel-a");
    probe.san_write(space::Y, &[1]);
    probe.san_write(space::Y, &[1]);
    probe.san_region("inject.kernel-b");
    probe.san_read(space::AUX, &[0]);
    let r = probe.report();
    assert_eq!(r.per_region["inject.kernel-a"][Invariant::DoubleWrite], 1);
    assert_eq!(r.per_region["inject.kernel-b"][Invariant::UninitRead], 1);
    assert_eq!(r.per_region["inject.kernel-a"][Invariant::UninitRead], 0);
}

/// A wrapped run with planted bugs still merges its counters back into
/// the parent probe exactly — sanitizing perturbs reports, never stats.
#[test]
fn fault_injection_does_not_perturb_counters() {
    use dasp_simt::CountingProbe;
    let mut parent = CountingProbe::a100();
    let mut sp = SanitizeProbe::forked(&parent);
    sp.warp_begin(0);
    sp.fma(17);
    sp.load_x(&[3], 8);
    sp.san_write(space::Y, &[0]);
    sp.san_write(space::Y, &[0]); // planted double write
    sp.warp_end(0);
    let (inner, report) = sp.into_parts();
    assert_eq!(report.count(Invariant::DoubleWrite), 1);
    dasp_simt::ShardableProbe::merge_shard(&mut parent, inner);
    let s = parent.stats();
    assert_eq!(s.fma_ops, 17);
    assert_eq!(s.x_requests, 1);
}
