//! Host calibration and standalone kernel probes.
//!
//! `host.*` are the rooflines the `*_frac` metrics divide by, measured in
//! the same run so that host drift shows. The `tensor.*` probes call the
//! library's kernels directly at a workload's own shapes. Byte counts are
//! computed from operand sizes, not measured.

use std::hint::black_box;
use std::time::Instant;

use xform_tensor::into_ops::{layernorm_into, softmax_scaled_into, LaneGeom};
use xform_tensor::matmul::sgemm;

use crate::stats::median;

/// Median seconds per call of `f`, over `samples` samples of enough calls
/// to last at least `min_ms` each.
pub fn secs_per_call(samples: usize, min_ms: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut per_call = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || start.elapsed().as_secs_f64() * 1e3 < min_ms {
            f();
            calls += 1;
        }
        per_call.push(start.elapsed().as_secs_f64() / f64::from(calls));
    }
    median(&per_call)
}

/// Triad `a = b + s·c` over 192 MiB, about the bytes one decode token
/// streams, in GB/s of computed traffic (two reads and one write per
/// element).
pub fn stream_gbps() -> f64 {
    const N: usize = 1 << 24;
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let s = black_box(0.5f32);
    let secs = secs_per_call(7, 20.0, || {
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
    });
    (3 * N * 4) as f64 / secs / 1e9
}

/// Independent accumulators per loop: enough to cover FMA latency on two
/// ports, so the loops are bound by throughput.
const ACCS: usize = 8;
const FMA_ITERS: usize = 1 << 16;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_loop_avx512(x: f32) -> f32 {
    use std::arch::x86_64::{_mm512_fmadd_ps, _mm512_reduce_add_ps, _mm512_set1_ps};
    let (xv, yv) = (_mm512_set1_ps(x), _mm512_set1_ps(0.999_9));
    let mut acc = [_mm512_set1_ps(0.0); ACCS];
    for _ in 0..FMA_ITERS {
        for a in acc.iter_mut() {
            *a = _mm512_fmadd_ps(*a, yv, xv);
        }
    }
    let mut sum = 0.0;
    for a in acc {
        sum += _mm512_reduce_add_ps(a);
    }
    sum
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_loop_avx2(x: f32) -> f32 {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_cvtss_f32, _mm256_fmadd_ps, _mm256_set1_ps};
    let (xv, yv) = (_mm256_set1_ps(x), _mm256_set1_ps(0.999_9));
    let mut acc = [_mm256_set1_ps(0.0); ACCS];
    for _ in 0..FMA_ITERS {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_ps(*a, yv, xv);
        }
    }
    let mut sum = _mm256_set1_ps(0.0);
    for a in acc {
        sum = _mm256_add_ps(sum, a);
    }
    _mm256_cvtss_f32(sum)
}

/// The same loop for CPUs without an FMA unit: a multiply and an add,
/// four lanes wide.
fn fma_loop_portable(x: f32) -> f32 {
    let mut acc = [[0.0f32; 4]; ACCS];
    for _ in 0..FMA_ITERS {
        for a in acc.iter_mut() {
            for v in a.iter_mut() {
                *v = *v * 0.999_9 + x;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// Peak single-thread multiply-add rate in GFLOP/s (2 flop per lane per
/// FMA), using the widest FMA the CPU reports.
pub fn flops_gflops() -> f64 {
    let x = black_box(1e-3f32);
    let mut lanes = 4;
    let mut run: fn(f32) -> f32 = fma_loop_portable;
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU reports the feature the function enables.
            run = |x| unsafe { fma_loop_avx512(x) };
            lanes = 16;
        } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the CPU reports both features the function enables.
            run = |x| unsafe { fma_loop_avx2(x) };
            lanes = 8;
        }
    }
    let secs = secs_per_call(7, 10.0, || {
        black_box(run(x));
    });
    (FMA_ITERS * ACCS * lanes * 2) as f64 / secs / 1e9
}

fn ramp(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i % 97) as f32 - 48.0) / 48.0).collect()
}

/// Seconds per `sgemm(m×n×k)` call.
pub fn sgemm_secs(m: usize, n: usize, k: usize) -> f64 {
    let (a, b) = (ramp(m * k), ramp(k * n));
    let mut c = vec![0.0f32; m * n];
    secs_per_call(5, 30.0, || {
        c.fill(0.0);
        sgemm(m, n, k, black_box(&a), black_box(&b), &mut c);
        black_box(&mut c);
    })
}

/// Scaled softmax over `lanes` unit-stride rows of `len`, in GB/s of
/// computed traffic (one read, one write).
pub fn softmax_gbps(lanes: usize, len: usize) -> f64 {
    let x = ramp(lanes * len);
    let mut out = vec![0.0f32; lanes * len];
    let lane = LaneGeom {
        pre: lanes,
        len,
        post: 1,
    };
    let secs = secs_per_call(5, 20.0, || {
        softmax_scaled_into(black_box(&x), 0.125, lane, &mut out);
        black_box(&mut out);
    });
    (2 * lanes * len * 4) as f64 / secs / 1e9
}

/// Layer norm over `lanes` unit-stride rows of `len`, in GB/s of computed
/// traffic (input read, output written; parameters and stats counted).
pub fn layernorm_gbps(lanes: usize, len: usize) -> f64 {
    let x = ramp(lanes * len);
    let (gamma, beta) = (vec![1.0f32; len], vec![0.0f32; len]);
    let mut out = vec![0.0f32; lanes * len];
    let (mut mean, mut inv_std) = (vec![0.0f32; lanes], vec![0.0f32; lanes]);
    let lane = LaneGeom {
        pre: lanes,
        len,
        post: 1,
    };
    let secs = secs_per_call(5, 20.0, || {
        layernorm_into(
            black_box(&x),
            &gamma,
            &beta,
            lane,
            &mut out,
            &mut mean,
            &mut inv_std,
        );
        black_box(&mut out);
    });
    ((2 * lanes * len + 2 * len + 2 * lanes) * 4) as f64 / secs / 1e9
}
