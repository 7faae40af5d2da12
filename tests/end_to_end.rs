//! Workspace-level integration tests: the full pipeline — generator ->
//! format conversion -> simulated kernels -> cost model — across crates.

use dasp_repro::baselines::Baseline;
use dasp_repro::dasp::format::Piecing;
use dasp_repro::dasp::DaspMatrix;
use dasp_repro::fp16::F16;
use dasp_repro::matgen;
use dasp_repro::perf::{a100, h800, measure, MethodKind};
use dasp_repro::simt::NoProbe;
use dasp_repro::sparse::Csr;

const METHODS: [MethodKind; 10] = [
    MethodKind::Dasp,
    MethodKind::CsrScalar,
    MethodKind::Csr5,
    MethodKind::TileSpmv,
    MethodKind::LsrbCsr,
    MethodKind::VendorBsr,
    MethodKind::VendorCsr,
    MethodKind::MergeCsr,
    MethodKind::Sell,
    MethodKind::Hyb,
];

fn check_all_methods(name: &str, csr: &Csr<f64>) {
    let x = matgen::dense_vector(csr.cols, 9);
    let want = csr.spmv_reference(&x);
    let dev = a100();
    for method in METHODS {
        let m = measure(method, csr, &x, &dev);
        assert!(m.estimate.seconds > 0.0, "{name}/{}", method.name());
        for (i, (&a, &b)) in m.y.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{name}/{} row {i}: got {a} want {b}",
                method.name()
            );
        }
    }
}

#[test]
fn every_method_agrees_on_every_generator_class() {
    check_all_methods("banded", &matgen::banded(3000, 30, 20, 21));
    check_all_methods("stencil4", &matgen::stencil2d(50, 50, 4, 22));
    check_all_methods("stencil9", &matgen::stencil2d(40, 40, 9, 23));
    check_all_methods("rmat", &matgen::rmat(11, 8, 24));
    check_all_methods("uniform", &matgen::uniform_random(2000, 2000, 12, 25));
    check_all_methods(
        "uniform_var",
        &matgen::uniform_random_var(2000, 2000, 1, 30, 26),
    );
    check_all_methods("diag", &matgen::diagonal_bands(5000, &[0, 3, -3], 27));
    check_all_methods("circuit", &matgen::circuit_like(4000, 4, 1200, 28));
    check_all_methods("rect", &matgen::rectangular_long(20, 6000, 1500, 29));
    check_all_methods("blocks", &matgen::block_dense(512, 8, 3, 30));
}

#[test]
fn representative_analogs_run_all_methods() {
    // A slice of the Table-2 analogs through the full FP64 pipeline.
    for r in matgen::representative() {
        if !["mc2depi", "dc2", "cant", "mip1"].contains(&r.name) {
            continue;
        }
        check_all_methods(r.name, &r.matrix);
    }
}

#[test]
fn fp16_pipeline_matches_rounded_reference_on_both_devices() {
    let csr = matgen::banded(2500, 25, 18, 31);
    let h: Csr<F16> = csr.cast();
    let h64: Csr<f64> = h.cast();
    let x64 = matgen::dense_vector(h.cols, 10);
    let x: Vec<F16> = x64.iter().map(|&v| F16::from_f64(v)).collect();
    let xr: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
    let want = h64.spmv_reference(&xr);
    for dev in [a100(), h800()] {
        for method in [MethodKind::Dasp, MethodKind::VendorCsr] {
            let m = measure(method, &h, &x, &dev);
            for (i, (&a, &b)) in m.y.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() <= 0.05 * b.abs().max(1.0),
                    "{}/{} row {i}: got {a} want {b}",
                    dev.name,
                    method.name()
                );
            }
        }
    }
}

#[test]
fn dasp_formats_are_consistent_between_precisions() {
    // The format layout must not depend on the value type, only on the
    // sparsity pattern.
    let csr = matgen::circuit_like(3000, 3, 800, 32);
    let h: Csr<F16> = csr.cast();
    let d64 = DaspMatrix::from_csr(&csr);
    let d16 = DaspMatrix::from_csr(&h);
    assert_eq!(d64.long.group_ptr, d16.long.group_ptr);
    assert_eq!(d64.long.rows, d16.long.rows);
    assert_eq!(d64.medium.rowblock_ptr, d16.medium.rowblock_ptr);
    assert_eq!(d64.medium.rows, d16.medium.rows);
    assert_eq!(d64.medium.irreg_ptr, d16.medium.irreg_ptr);
    for p in Piecing::ALL {
        assert_eq!(p.perm(&d64.short), p.perm(&d16.short));
    }
    assert_eq!(d64.short.perm1, d16.short.perm1);
}

#[test]
fn baseline_enum_and_method_kind_agree() {
    // The two dispatch surfaces (perf::MethodKind and baselines::Baseline)
    // must produce identical y for the same algorithm.
    let csr = matgen::banded(1500, 15, 10, 33);
    let x = matgen::dense_vector(csr.cols, 11);
    let dev = a100();
    for (enum_name, kind) in [
        ("csr5", MethodKind::Csr5),
        ("tilespmv", MethodKind::TileSpmv),
        ("lsrb-csr", MethodKind::LsrbCsr),
        ("cusparse-csr", MethodKind::VendorCsr),
    ] {
        let via_enum = Baseline::build(enum_name, &csr)
            .unwrap()
            .spmv(&x, &mut NoProbe);
        let via_kind = measure(kind, &csr, &x, &dev).y;
        assert_eq!(via_enum, via_kind, "{enum_name}");
    }
}

#[test]
fn matrix_market_round_trip_through_full_pipeline() {
    use dasp_repro::sparse::mm::{read_matrix_market, write_matrix_market};
    use dasp_repro::sparse::Coo;

    let csr = matgen::rmat(9, 5, 34);
    let coo = {
        let mut c = Coo::new(csr.rows, csr.cols);
        for r in 0..csr.rows {
            for (col, v) in csr.row(r) {
                c.push(r, col as usize, v);
            }
        }
        c
    };
    let mut buf = Vec::new();
    write_matrix_market(&coo, &mut buf).unwrap();
    let back: Coo<f64> = read_matrix_market(std::io::BufReader::new(buf.as_slice())).unwrap();
    let csr2 = back.to_csr();
    assert_eq!(csr, csr2);
    check_all_methods("mm-roundtrip", &csr2);
}

#[test]
fn empty_and_degenerate_matrices_run_everywhere() {
    let dev = a100();
    for (rows, cols) in [(1usize, 1usize), (1, 100), (100, 1), (64, 64)] {
        let csr = Csr::<f64>::empty(rows, cols);
        let x = vec![1.0; cols];
        for method in METHODS {
            let m = measure(method, &csr, &x, &dev);
            assert!(m.y.iter().all(|&v| v == 0.0), "{}", method.name());
        }
    }
    // Single-element matrix.
    let mut coo = dasp_repro::sparse::Coo::<f64>::new(1, 1);
    coo.push(0, 0, 2.5);
    let csr = coo.to_csr();
    for method in METHODS {
        let m = measure(method, &csr, &[2.0], &dev);
        assert_eq!(m.y, vec![5.0], "{}", method.name());
    }
}
