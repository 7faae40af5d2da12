//! Microbenchmarks of the substrates: the software MMA unit, the warp
//! shuffles, the cache model and the binary16 conversions. These bound the
//! simulator's own throughput (how fast experiments run), independent of
//! the modeled GPU.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dasp_fp16::{f16_bits_to_f32, f32_to_f16_bits, F16};
use dasp_simt::mma::{acc_zero, mma_m8n8k4};
use dasp_simt::warp::per_lane;
use dasp_simt::{full_mask, shfl_down_sync, warp_reduce, CacheModel, NoProbe};

fn configure<M: criterion::measurement::Measurement>(g: &mut criterion::BenchmarkGroup<M>) {
    g.sample_size(20);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_millis(800));
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("simt");
    configure(&mut g);
    let a: [f64; 32] = per_lane(|l| l as f64 * 0.5);
    let b: [f64; 32] = per_lane(|l| 1.0 / (l + 1) as f64);
    g.bench_function("mma_m8n8k4_fp64", |bch| {
        bch.iter(|| {
            let mut acc = acc_zero::<f64>();
            mma_m8n8k4::<f64>(&mut acc, black_box(&a), black_box(&b));
            acc
        })
    });
    let ha: [F16; 32] = per_lane(|l| F16::from_f32(l as f32 * 0.5));
    let hb: [F16; 32] = per_lane(|l| F16::from_f32(1.0 / (l + 1) as f32));
    g.bench_function("mma_m8n8k4_fp16", |bch| {
        bch.iter(|| {
            let mut acc = acc_zero::<F16>();
            mma_m8n8k4::<F16>(&mut acc, black_box(&ha), black_box(&hb));
            acc
        })
    });
    g.bench_function("shfl_down", |bch| {
        bch.iter(|| shfl_down_sync(&mut NoProbe, full_mask(), black_box(a), 9))
    });
    g.bench_function("warp_reduce", |bch| {
        bch.iter(|| warp_reduce(&mut NoProbe, full_mask(), black_box(a), |x, y| x + y))
    });
    g.finish();

    let mut g = c.benchmark_group("cache_model");
    configure(&mut g);
    g.bench_function("hit_stream", |bch| {
        let mut cache = CacheModel::a100_l2();
        for i in 0..1024u64 {
            cache.access_run(i * 8, 1);
        }
        let mut i = 0u64;
        bch.iter(|| {
            i = (i + 1) % 1024;
            cache.access_run(i * 8, 1)
        })
    });
    g.bench_function("miss_stream", |bch| {
        let mut cache = CacheModel::new(64 * 1024, 128, 16);
        let mut i = 0u64;
        bch.iter(|| {
            i += 128;
            cache.access_run(i * 997, 1) // strided to defeat the tiny cache
        })
    });
    g.finish();

    let mut g = c.benchmark_group("fp16");
    configure(&mut g);
    g.bench_function("f32_to_f16", |bch| {
        let mut v = 0.1f32;
        bch.iter(|| {
            v += 0.001;
            f32_to_f16_bits(black_box(v))
        })
    });
    g.bench_function("f16_to_f32", |bch| {
        let mut bits = 0u16;
        bch.iter(|| {
            bits = bits.wrapping_add(1);
            f16_bits_to_f32(black_box(bits))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
