//! Per-layer metrics of a traced run, assembled from its spans, its
//! counters and standalone probes at the workload's own shapes.
//!
//! Every traced run reports the whole set. Encoder-layer metrics always
//! come from the BERT-shaped model and decode metrics from the GPT-shaped
//! one; a workload that does not run a layer probes it standalone on that
//! model. The closure compares the medians of the layer calls that make up
//! one request with the median traced request.

use std::time::Instant;

use xform_core::analyze::{audit, ArenaGranularity};
use xform_dataflow::EncoderDims;
use xform_gpusim::DeviceSpec;
use xform_tensor::{Result, TensorError};
use xform_transformer::interp::{self, PlanKind};

use crate::probe;
use crate::stats::median;
use crate::trace::Trace;
use crate::workloads::{ms_since, Outcome, Workload, BERT, GPT, GROWN_CAPACITY, PROMPT_LENS};

pub type Metric = (&'static str, f64, &'static str);

/// Per-layer metrics of a traced run.
pub fn layer_metrics(w: Workload, trace: &Trace, out: &Outcome) -> Result<Vec<Metric>> {
    let med = |name: &str| median(&trace.durations_ms(name));
    let host_stream = probe::stream_gbps();
    let host_flops = probe::flops_gflops();

    // kernels at the workload's own shapes
    let d = if w == Workload::GptDecode {
        GPT.dims
    } else {
        BERT.dims
    };
    let (qkv, n) = (
        3 * d.i,
        if w == Workload::GptDecode {
            PROMPT_LENS[1]
        } else {
            d.b * d.j
        },
    );
    let gemm_s = probe::sgemm_secs(qkv, n, d.i);
    let gemv_s = probe::sgemm_secs(qkv, d.b, d.i);
    let sgemm_gflops = (2 * qkv * n * d.i) as f64 / gemm_s / 1e9;
    let gemv_gbps = ((qkv * d.i + d.i * d.b + qkv * d.b) * 4) as f64 / gemv_s / 1e9;
    let (sm_lanes, sm_len, ln_lanes) = if w == Workload::GptDecode {
        (d.h * d.b, GROWN_CAPACITY, d.b)
    } else {
        (d.h * d.b * d.j, d.k, d.b * d.j)
    };

    // encoder layers (always measured on the BERT-shaped model)
    let layers = BERT.layers as f64;
    let forward_ms = med("model.forward");
    let embed_ms = med("model.embed");
    let enc_fwd = med("encoder.forward");
    let enc_into_s = med("encoder.forward_into") / 1e3;
    let pf = interp::cached_plan(&BERT.dims, PlanKind::EncoderFused)?;
    let moved = audit(&pf.graph, &pf.plan, &DeviceSpec::v100());
    let enc_flop: u64 = moved.per_step.iter().map(|s| s.flop).sum();
    let other_ms = forward_ms - layers * enc_fwd - embed_ms;
    let backward_ms = med("model.backward");
    let sgd_ms = med("model.sgd_step");

    // decode layers (always measured on the GPT-shaped model)
    let advance_ms = med("decode.advance");
    let sample_ms = med("decode.sample");

    let (build_ms, compile_ms, slab_bytes) = if w == Workload::GptDecode {
        let prefill = EncoderDims {
            j: PROMPT_LENS[1],
            k: PROMPT_LENS[1],
            ..GPT.dims
        };
        let step = EncoderDims {
            j: 1,
            k: GROWN_CAPACITY,
            ..GPT.dims
        };
        cold_builds(
            (prefill, PlanKind::DecoderPrefill),
            (step, PlanKind::DecoderStep),
        )?
    } else {
        let k = (BERT.dims, PlanKind::EncoderFused);
        cold_builds(k, k)?
    };

    let explained = match w {
        Workload::BertInfer => embed_ms + layers * enc_fwd + other_ms,
        Workload::GptDecode => advance_ms + sample_ms,
    };
    let traced_e2e = median(&out.traced_ms);
    const MIB: f64 = (1 << 20) as f64;
    Ok(vec![
        ("tensor.sgemm.gflops", sgemm_gflops, "GFLOP/s"),
        (
            "tensor.sgemm.flops_frac",
            sgemm_gflops / host_flops,
            "ratio",
        ),
        ("tensor.gemv.gbps", gemv_gbps, "GB/s"),
        ("tensor.gemv.stream_frac", gemv_gbps / host_stream, "ratio"),
        (
            "tensor.softmax.gbps",
            probe::softmax_gbps(sm_lanes, sm_len),
            "GB/s",
        ),
        (
            "tensor.layernorm.gbps",
            probe::layernorm_gbps(ln_lanes, d.i),
            "GB/s",
        ),
        ("transformer.model.init_ms", median(&out.init_ms), "ms"),
        ("transformer.model.forward_ms", forward_ms, "ms"),
        ("transformer.model.embed_ms", embed_ms, "ms"),
        ("transformer.encoder.forward_ms", enc_fwd, "ms"),
        (
            "transformer.encoder.forward_into_ms",
            enc_into_s * 1e3,
            "ms",
        ),
        (
            "transformer.encoder.gflops",
            enc_flop as f64 / enc_into_s / 1e9,
            "GFLOP/s",
        ),
        (
            "transformer.encoder.gbps",
            moved.total_bytes() as f64 / enc_into_s / 1e9,
            "GB/s",
        ),
        ("transformer.model.other_ms", other_ms, "ms"),
        ("transformer.model.backward_ms", backward_ms, "ms"),
        (
            "transformer.encoder.backward_ms",
            med("encoder.backward"),
            "ms",
        ),
        ("transformer.model.sgd_ms", sgd_ms, "ms"),
        ("transformer.decode.prefill_ms", med("decode.prefill"), "ms"),
        ("transformer.decode.advance_ms", advance_ms, "ms"),
        ("transformer.decode.sample_ms", sample_ms, "ms"),
        (
            "transformer.decode.bucket_growths",
            out.bucket_growths as f64,
            "count",
        ),
        (
            "transformer.decode.resident_mib",
            out.resident_bytes as f64 / MIB,
            "MiB",
        ),
        (
            "transformer.decode.stream_frac",
            out.token_bytes as f64 / (advance_ms / 1e3) / 1e9 / host_stream,
            "ratio",
        ),
        (
            "transformer.interp.plan_cache_misses",
            out.plan_cache_misses as f64,
            "count",
        ),
        (
            "transformer.interp.arena_cache_misses",
            out.arena_cache_misses as f64,
            "count",
        ),
        ("core.plan.build_ms", build_ms, "ms"),
        ("core.arena.compile_ms", compile_ms, "ms"),
        ("core.arena.slab_mib", slab_bytes as f64 / MIB, "MiB"),
        (
            "core.arena.allocs_per_call",
            median(&out.allocs_per_call),
            "count",
        ),
        ("host.stream_gbps", host_stream, "GB/s"),
        ("host.flops_gflops", host_flops, "GFLOP/s"),
        (
            "trace.overhead_ms",
            traced_e2e - median(&out.latencies_ms),
            "ms",
        ),
        ("trace.explained_ms", explained, "ms"),
        (
            "trace.unexplained_frac",
            1.0 - explained / traced_e2e,
            "ratio",
        ),
    ])
}

/// Median cold `cached_plan` and cold `cached_arena` times over three
/// builds each, and the compiled arena's slab bytes.
fn cold_builds(
    plan: (EncoderDims, PlanKind),
    arena: (EncoderDims, PlanKind),
) -> Result<(f64, f64, usize)> {
    let (mut build, mut compile, mut slab) = (Vec::new(), Vec::new(), 0);
    for _ in 0..3 {
        interp::clear_plan_cache();
        let start = Instant::now();
        interp::cached_plan(&plan.0, plan.1)?;
        build.push(ms_since(start));
        interp::cached_plan(&arena.0, arena.1)?;
        interp::clear_arena_cache();
        let start = Instant::now();
        let compiled = interp::cached_arena(&arena.0, arena.1, ArenaGranularity::Serial)?
            .ok_or_else(|| TensorError::Unsupported("plan is not arena-compilable".into()))?;
        compile.push(ms_since(start));
        slab = compiled.slab_bytes();
    }
    Ok((median(&build), median(&compile), slab))
}
