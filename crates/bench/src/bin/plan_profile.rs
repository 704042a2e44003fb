//! Runtime plan profiling and profile-guided re-selection, end to end.
//!
//! Runs the fused encoder schedule through `xform_core::profile`'s
//! [`PlanProfiler`] and prints the measured mirror of the static
//! data-movement audit, Table-III style: per step, the measured
//! wall-clock time, the bytes the step moves (identical to
//! `xform_core::analyze::audit`'s accounting), achieved bandwidth, and
//! measured vs. static MUE — then per-operator-class totals, the
//! wave-parallel occupancy/imbalance of the certified plan, and finally
//! the profile-guided re-selection loop: profile the natural plan,
//! re-run SSSP selection from the measured timings
//! (`xform_core::profile::ProfiledSource`), and report the adopted
//! plan's measured improvement.
//!
//! The binary also runs under a counting global allocator and reports the
//! arena interpreter's steady-state heap discipline: slab/scratch/stats
//! bytes per granularity and heap allocations per `forward_into` call
//! after warmup, which must be **zero**.
//!
//! The binary also duels each element-wise-fused plan against its
//! GEMM-epilogue mega-kernel counterpart on several traffic shapes and
//! reports measured bytes, wall-clock, and which plan a measured
//! re-selection would adopt per shape.
//!
//! Re-selection runs under the cache-aware cost model
//! (`xform_core::selection::CostModel::CacheAware`): SSSP edge weights
//! carry each candidate layout's predicted DRAM overfetch, and the
//! adoption duel keeps the result honest against the natural plan.
//!
//! The binary also cross-validates the static cache model
//! (`xform_core::cachemodel`) empirically: on fused-encoder shapes sized
//! so the softmax interim and the layernorm lanes each occupy ~3× the
//! validation hierarchy's LLC, the model's predicted DRAM bytes must
//! bracket the profiler's footprint-checked measured bytes within 30%.
//!
//! With `--check` it runs a compact smoke pass and exits non-zero unless
//! every interpretable step records nonzero measured bytes, every
//! measured MUE lies in (0, 100], the re-selected winner's measured
//! total is no worse than the natural plan's, the epilogue plans move
//! strictly fewer measured bytes than their unfused counterparts without
//! being slower, the DRAM cross-validation holds on both the softmax and
//! layernorm classes, at least one memory-bound kernel class runs
//! faster on its unit-stride fast path than on its strided general path,
//! and the arena's steady-state allocation count is zero — CI runs this
//! to keep the profiler (and the arena's zero-allocation claim) honest. With `--json` it writes
//! `BENCH_plan_profile.json`, the machine-readable mirror tracked across
//! PRs.

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xform_bench::cli::{Cli, CHECK, JSON};
use xform_core::analyze::audit;
use xform_core::cachemodel::{trace_plan, CacheGeometry, CACHE_GEOM_ENV};
use xform_core::cpusource::CpuSource;
use xform_core::plan::{random_externals, ExecOptions};
use xform_core::profile::{
    profile_plan, profile_plan_parallel, reselect_cost, CountingAlloc, PlanProfiler, Reselection,
};
use xform_core::sanitize::{env_setting, ParallelOptions};
use xform_core::selection::CostModel;
use xform_core::sweep::SweepOptions;
use xform_dataflow::{EncoderDims, Graph, OpClass};
use xform_gpusim::DeviceSpec;
use xform_tensor::{Shape, Tensor};
use xform_transformer::decode::{DecodeOptions, DecodeSession, Sampling};
use xform_transformer::encoder::{EncoderLayer, Executor};
use xform_transformer::interp;
use xform_transformer::model::{BlockKind, ModelConfig, TransformerModel};
use xform_transformer::params::EncoderWeights;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const REPS: usize = 5;
const STEADY_CALLS: usize = 20;

struct ArenaRow {
    tag: &'static str,
    threads: usize,
    slab_bytes: usize,
    scratch_bytes: usize,
    stats_bytes: usize,
    /// Heap events (alloc + dealloc + realloc) across `STEADY_CALLS`
    /// post-warmup `forward_into` calls. Must be zero.
    events: u64,
}

/// Runs an encoder executor through the zero-allocation arena entry
/// point at both granularities and measures steady-state heap traffic.
fn arena_rows(
    executor: Executor,
    kind: interp::PlanKind,
) -> Result<Vec<ArenaRow>, Box<dyn std::error::Error>> {
    let dims = dims();
    let layer = EncoderLayer::new(dims, executor, 0.0);
    let mut rng = StdRng::seed_from_u64(3);
    let w = EncoderWeights::init(&dims, &mut rng);
    let shape = Shape::from_spec("ibj", &dims.size_table())?;
    let x = Tensor::random(shape.clone(), &Uniform::new(-1.0, 1.0), &mut rng);
    let mut y = Tensor::from_vec(shape, vec![0.0; dims.i * dims.b * dims.j])?;
    let mut rows = Vec::new();
    for (tag, threads) in [("serial", 1usize), ("waves", 4)] {
        let opts = ExecOptions::builder().threads(threads).seed(7).build();
        let arena = interp::cached_arena(&dims, kind, interp::granularity_for(threads))?
            .ok_or("arena did not compile for the encoder plan")?;
        // warmup: plan + arena caches, worker pool, env-var resolution
        layer.forward_into(&x, &w, &opts, &mut y)?;
        layer.forward_into(&x, &w, &opts, &mut y)?;
        let before = ALLOC.events();
        for _ in 0..STEADY_CALLS {
            layer.forward_into(&x, &w, &opts, &mut y)?;
        }
        rows.push(ArenaRow {
            tag,
            threads,
            slab_bytes: arena.slab_bytes(),
            scratch_bytes: arena.scratch_words() * 4,
            stats_bytes: arena.stats_words() * 4,
            events: ALLOC.events() - before,
        });
    }
    Ok(rows)
}

/// One row of the strided-vs-fast-path bandwidth scoreboard.
struct BandwidthRow {
    kernel: &'static str,
    /// Bytes one kernel call moves (reads + writes, audit accounting).
    bytes: usize,
    strided_us: f64,
    fast_us: f64,
}

impl BandwidthRow {
    fn strided_gbps(&self) -> f64 {
        self.bytes as f64 / 1e3 / self.strided_us
    }
    fn fast_gbps(&self) -> f64 {
        self.bytes as f64 / 1e3 / self.fast_us
    }
    fn speedup(&self) -> f64 {
        self.strided_us / self.fast_us
    }
}

/// Times `f` and returns the minimum wall-clock microseconds over `reps`
/// runs (one warmup call first).
fn min_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// The achieved-bandwidth scoreboard: the memory-bound normalization
/// kernels (softmax, layernorm) over the same element count in two lane
/// geometries. `post > 1` is the embedding-major layout of the encoder's
/// norm containers (one lane per column, 2048 columns) and runs the
/// kernel's strided general loop; `post == 1` lays each lane out as a
/// contiguous row and runs its unit-stride fast path.
fn bandwidth_rows() -> Vec<BandwidthRow> {
    use rand::distributions::Distribution;
    use xform_tensor::into_ops::{layernorm_into, softmax_scaled_into, LaneGeom};
    const BW_REPS: usize = 9;
    let fast = LaneGeom {
        pre: 2048,
        len: 512,
        post: 1,
    };
    let strided = LaneGeom {
        pre: 1,
        len: 512,
        post: 2048,
    };
    let n = fast.elements();
    let mut rng = StdRng::seed_from_u64(5);
    let dist = Uniform::new(-2.0f32, 2.0);
    let x: Vec<f32> = (0..n).map(|_| dist.sample(&mut rng)).collect();
    let gamma: Vec<f32> = (0..fast.len).map(|_| dist.sample(&mut rng)).collect();
    let beta: Vec<f32> = (0..fast.len).map(|_| dist.sample(&mut rng)).collect();
    let mut out = vec![0.0f32; n];
    let mut mean = vec![0.0f32; fast.lanes()];
    let mut inv_std = vec![0.0f32; fast.lanes()];

    let mut softmax_us = |lane: LaneGeom| {
        min_us(BW_REPS, || {
            softmax_scaled_into(&x, 0.125, lane, &mut out);
            std::hint::black_box(&out);
        })
    };
    let (sm_strided, sm_fast) = (softmax_us(strided), softmax_us(fast));
    let mut layernorm_us = |lane: LaneGeom| {
        min_us(BW_REPS, || {
            layernorm_into(&x, &gamma, &beta, lane, &mut out, &mut mean, &mut inv_std);
            std::hint::black_box(&out);
        })
    };
    let (ln_strided, ln_fast) = (layernorm_us(strided), layernorm_us(fast));
    vec![
        BandwidthRow {
            kernel: "softmax (SM class)",
            bytes: 2 * n * 4,
            strided_us: sm_strided,
            fast_us: sm_fast,
        },
        BandwidthRow {
            kernel: "layernorm (LN class)",
            bytes: (2 * n + 2 * fast.len + 2 * fast.lanes()) * 4,
            strided_us: ln_strided,
            fast_us: ln_fast,
        },
    ]
}

fn dims() -> EncoderDims {
    EncoderDims {
        b: 2,
        j: 24,
        k: 24,
        h: 2,
        p: 8,
        i: 16,
        u: 32,
    }
}

/// Relative tolerance for the predicted-vs-measured DRAM-byte gate: on
/// shapes whose per-step working sets dwarf the hierarchy, the cache
/// model's predicted DRAM traffic must land within 30% of the profiler's
/// measured byte account.
const DRAM_VALIDATION_TOL: f64 = 0.30;

/// Reference hierarchy the DRAM cross-validation sizes its shapes
/// against (overridable via `XFORM_CACHE_GEOM`). Deliberately compact —
/// the validation shapes are sized to ~3× its LLC so every lane misses
/// by footprint alone, and a small LLC keeps those shapes cheap on CI.
const VALIDATION_GEOM: &str = "16k:64:4,128k:64:8,512k:64:16";

fn validation_geometry() -> CacheGeometry {
    env_setting(CACHE_GEOM_ENV)
        .and_then(|v| CacheGeometry::parse(&v))
        .or_else(|| CacheGeometry::parse(VALIDATION_GEOM))
        .expect("the built-in validation geometry spec parses")
}

/// One predicted-vs-measured DRAM row of the cache-model
/// cross-validation.
struct DramRow {
    shape: String,
    step: String,
    predicted_bytes: u64,
    measured_bytes: u64,
    time_us: f64,
}

impl DramRow {
    fn ratio(&self) -> f64 {
        self.predicted_bytes as f64 / self.measured_bytes.max(1) as f64
    }
}

/// Cross-validates the static cache model against the runtime profiler
/// on the memory-bound normalization steps (softmax, layernorm): two
/// fused-encoder shapes are sized so the softmax interim (resp. the
/// layernorm lanes) occupy ~3× the validation LLC — every reference then
/// misses by footprint alone, predicted DRAM converges to the flat byte
/// account, and the profiler's footprint-checked measured bytes must
/// bracket it within [`DRAM_VALIDATION_TOL`]. Steps whose traffic does
/// not dwarf the hierarchy (at least 4× the LLC) are reported but not
/// gated: residency makes their DRAM traffic legitimately smaller than
/// their byte account.
fn dram_rows(reps: usize) -> Result<(Vec<DramRow>, u64), Box<dyn std::error::Error>> {
    let geom = validation_geometry();
    let llc = geom.largest_bytes().max(64 * 1024);
    // target words per lane footprint: 3× LLC at 4-byte words
    let target = (3 * llc / 4) as f64;
    // softmax interim is b·h·j·k words (b = h = 2, k = j): 4j² ≥ target
    let j = (target / 4.0).sqrt().ceil() as usize;
    // layernorm lanes are b·j·i words (i = h·p): grow the batch
    let (lj, li) = (64usize, 128usize);
    let lb = (target / (lj * li) as f64).ceil() as usize;
    let shapes = [
        (
            format!("softmax-bound j={j}"),
            EncoderDims {
                b: 2,
                j,
                k: j,
                h: 2,
                p: 8,
                i: 16,
                u: 32,
            },
        ),
        (
            format!("layernorm-bound b={lb}"),
            EncoderDims {
                b: lb,
                j: lj,
                k: lj,
                h: 2,
                p: 64,
                i: li,
                u: 32,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (tag, d) in shapes {
        let pf = interp::cached_plan(&d, interp::PlanKind::EncoderFused)?;
        let base = random_externals(&pf.graph, &pf.plan, 11)?;
        let prof = profile_plan(&pf.graph, &pf.plan, &base, &ExecOptions::default(), reps)?;
        let traffic = trace_plan(&pf.graph, &pf.plan, &geom, 4);
        for s in prof
            .steps()
            .filter(|s| s.class == OpClass::StatisticalNormalization)
        {
            rows.push(DramRow {
                shape: tag.clone(),
                step: s.name.clone(),
                predicted_bytes: traffic.per_step[s.step].dram_words() * 4,
                measured_bytes: s.moved_bytes(),
                time_us: s.time_us,
            });
        }
    }
    Ok((rows, llc))
}

fn print_dram_rows(rows: &[DramRow], llc: u64) {
    println!(
        "\ncache-model DRAM cross-validation (LLC {:.0} KiB, gate ±{:.0}% where measured ≥ 4× LLC):",
        llc as f64 / 1024.0,
        DRAM_VALIDATION_TOL * 100.0
    );
    println!(
        "  {:<22} {:<8} {:>14} {:>13} {:>9} {:>7}",
        "shape", "step", "predicted KiB", "measured KiB", "time µs", "ratio"
    );
    for r in rows {
        println!(
            "  {:<22} {:<8} {:>14.1} {:>13.1} {:>9.1} {:>6.2}{}",
            r.shape,
            r.step,
            r.predicted_bytes as f64 / 1024.0,
            r.measured_bytes as f64 / 1024.0,
            r.time_us,
            r.ratio(),
            if r.measured_bytes >= 4 * llc {
                ""
            } else {
                "  (resident, ungated)"
            },
        );
    }
}

fn class_tag(c: OpClass) -> &'static str {
    match c {
        OpClass::TensorContraction => "tc",
        OpClass::StatisticalNormalization => "norm",
        OpClass::Elementwise => "elem",
    }
}

/// Profile-guided re-selection under the cache-aware cost model: SSSP
/// edge weights carry the predicted DRAM overfetch of each candidate
/// layout under the modelled device's hierarchy, so the selection
/// prefers cache-resident layouts. The adoption duel downstream still
/// measures both plans and keeps the natural one unless the re-selected
/// plan is measurably no worse.
fn reselection(
    graph: &Graph,
    plan: &xform_core::plan::ExecutionPlan,
    opts: &ExecOptions,
) -> xform_tensor::Result<Reselection> {
    let fwd: Vec<_> = plan.steps.iter().map(|s| s.op).collect();
    let fallback = CpuSource::new(2);
    let device = DeviceSpec::v100();
    let cost = CostModel::CacheAware(CacheGeometry::for_device(&device));
    reselect_cost(
        graph,
        plan,
        &fwd,
        &device,
        &fallback,
        SweepOptions {
            max_configs: Some(48),
            ..SweepOptions::default()
        },
        opts,
        REPS,
        11,
        &cost,
    )
}

/// One side's measured totals in a fused-vs-epilogue duel.
struct PlanSide {
    us: f64,
    bytes: u64,
    mue: f64,
}

/// Head-to-head of an element-wise-fused plan and its GEMM-epilogue
/// counterpart, measured through the serial profiler on one traffic
/// shape.
struct Duel {
    shape: String,
    unfused: PlanSide,
    epilogue: PlanSide,
}

impl Duel {
    /// Plan-level re-selection: adopt whichever plan measured faster on
    /// this traffic shape.
    fn adopted(&self) -> &'static str {
        if self.epilogue.us <= self.unfused.us {
            "epilogue"
        } else {
            "unfused"
        }
    }
}

/// Wall-clock slack the epilogue plan is allowed in `--check` before the
/// "not slower" gate trips — absorbs scheduler noise on CI runners; the
/// bytes gate has no slack because the byte account is deterministic.
const DUEL_TIME_SLACK: f64 = 1.15;

fn profile_side(
    dims: &EncoderDims,
    kind: interp::PlanKind,
    reps: usize,
) -> Result<PlanSide, Box<dyn std::error::Error>> {
    let pf = interp::cached_plan(dims, kind)?;
    let base = random_externals(&pf.graph, &pf.plan, 11)?;
    let prof = profile_plan(&pf.graph, &pf.plan, &base, &ExecOptions::default(), reps)?;
    Ok(PlanSide {
        us: prof.total_time_us(),
        bytes: prof.total_bytes(),
        mue: prof.plan_mue().value,
    })
}

/// Profiles both canned fused/epilogue pairs on two traffic shapes: the
/// small profile dims and a sequence-length-dominant shape where the
/// eliminated attention interim dominates the byte account.
fn duels(reps: usize) -> Result<Vec<Duel>, Box<dyn std::error::Error>> {
    let small = dims();
    let seq = EncoderDims {
        b: 2,
        j: 96,
        k: 96,
        h: 2,
        p: 8,
        i: 16,
        u: 32,
    };
    let mut out = Vec::new();
    for (tag, d) in [("j=24", &small), ("j=96", &seq)] {
        for (side, unfused, epilogue) in [
            (
                "encoder",
                interp::PlanKind::EncoderFused,
                interp::PlanKind::EncoderEpilogue,
            ),
            (
                "decoder",
                interp::PlanKind::DecoderFused,
                interp::PlanKind::DecoderEpilogue,
            ),
        ] {
            out.push(Duel {
                shape: format!("{side} {tag}"),
                unfused: profile_side(d, unfused, reps)?,
                epilogue: profile_side(d, epilogue, reps)?,
            });
        }
    }
    Ok(out)
}

fn print_duels(rows: &[Duel]) {
    println!(
        "\nGEMM-epilogue mega-kernels vs element-wise fusion (measured, serial, min of reps):"
    );
    println!(
        "  {:<14} {:>12} {:>12} {:>11} {:>11} {:>9} {:>9}",
        "shape", "unfused KiB", "epilogue KiB", "unfused µs", "epilog µs", "MUE", "adopted"
    );
    for r in rows {
        println!(
            "  {:<14} {:>12.1} {:>12.1} {:>11.1} {:>11.1} {:>4.1}→{:<4.1} {:>9}",
            r.shape,
            r.unfused.bytes as f64 / 1024.0,
            r.epilogue.bytes as f64 / 1024.0,
            r.unfused.us,
            r.epilogue.us,
            r.unfused.mue,
            r.epilogue.mue,
            r.adopted(),
        );
    }
}

/// Measured throughput and heap discipline of the streaming KV-cache
/// decode path.
struct DecodeBench {
    /// Prompt tokens across the batch.
    prompt_tokens: usize,
    /// Measured decode steps (each yields `b` tokens).
    steps: usize,
    batch: usize,
    /// Prefill wall-clock, min over reps — includes the bucket's arena
    /// compilation, which a fresh session pays once.
    prefill_us: f64,
    /// Wall-clock of `steps` steady-state sample+advance pairs.
    decode_us: f64,
    /// Heap events per decoded step across the measured window — the
    /// zero-allocation gate.
    allocs_per_step: f64,
    /// Resident arena bytes (cache slabs + projection arena).
    resident_bytes: usize,
    /// Measured MUE of the attend-step plan at the session's bucket
    /// capacity.
    step_mue: f64,
}

impl DecodeBench {
    fn prefill_tokens_per_s(&self) -> f64 {
        self.prompt_tokens as f64 / (self.prefill_us / 1e6)
    }
    fn decode_tokens_per_s(&self) -> f64 {
        (self.steps * self.batch) as f64 / (self.decode_us / 1e6)
    }
}

/// Profiles streaming decode on a small decoder stack at the profile
/// dims: prefill wall-clock (fresh session per rep), steady-state decode
/// wall-clock and heap events over a window that stays inside one cache
/// bucket, and the measured MUE of the `DecoderStep` plan.
fn decode_bench(reps: usize) -> Result<DecodeBench, Box<dyn std::error::Error>> {
    const PROMPT: usize = 4;
    const STEPS: usize = 16;
    let d = dims();
    let cfg = ModelConfig {
        dims: d,
        layers: 2,
        vocab: 32,
        block: BlockKind::Decoder,
        dropout_p: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(17);
    let model = TransformerModel::init(cfg, &mut rng)?;
    let prompt: Vec<Vec<usize>> = (0..d.b)
        .map(|b| (0..PROMPT).map(|j| (b * 7 + j * 3) % cfg.vocab).collect())
        .collect();

    // prefill: a session prefills exactly once, so time a fresh one per rep
    let mut prefill_us = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let mut sess = DecodeSession::new(&model, DecodeOptions::default())?;
        let t = std::time::Instant::now();
        sess.prefill(&prompt)?;
        prefill_us = prefill_us.min(t.elapsed().as_secs_f64() * 1e6);
    }

    // steady-state decode: warm two steps, then measure inside the bucket
    let mut sess = DecodeSession::new(&model, DecodeOptions::default())?;
    sess.prefill(&prompt)?;
    let sampling = Sampling::Temperature {
        temperature: 0.9,
        top_k: Some(8),
    };
    let mut tokens = vec![0usize; d.b];
    for _ in 0..2 {
        sess.sample(sampling, &mut tokens)?;
        sess.advance(&tokens)?;
    }
    assert!(
        sess.len() + STEPS <= sess.capacity() && sess.len() + STEPS <= d.j,
        "measured decode window must stay inside one bucket"
    );
    let before = ALLOC.events();
    let t = std::time::Instant::now();
    for _ in 0..STEPS {
        sess.sample(sampling, &mut tokens)?;
        sess.advance(&tokens)?;
    }
    let decode_us = t.elapsed().as_secs_f64() * 1e6;
    let allocs_per_step = (ALLOC.events() - before) as f64 / STEPS as f64;

    // measured MUE of the attend-step plan at the session's bucket shape
    let step_dims = EncoderDims {
        b: d.b,
        j: 1,
        k: sess.capacity(),
        h: d.h,
        p: d.p,
        i: d.i,
        u: d.u,
    };
    let pf = interp::cached_plan(&step_dims, interp::PlanKind::DecoderStep)?;
    let base = random_externals(&pf.graph, &pf.plan, 11)?;
    let prof = profile_plan(&pf.graph, &pf.plan, &base, &ExecOptions::default(), reps)?;

    Ok(DecodeBench {
        prompt_tokens: PROMPT * d.b,
        steps: STEPS,
        batch: d.b,
        prefill_us,
        decode_us,
        allocs_per_step,
        resident_bytes: sess.resident_bytes(),
        step_mue: prof.plan_mue().value,
    })
}

fn print_decode(b: &DecodeBench) {
    println!(
        "\nstreaming decode (prompt {} tokens, {} steady-state steps × batch {}):",
        b.prompt_tokens, b.steps, b.batch
    );
    println!(
        "  prefill  {:>9.1} µs ({:>9.0} tokens/s, incl. bucket compile)",
        b.prefill_us,
        b.prefill_tokens_per_s()
    );
    println!(
        "  decode   {:>9.1} µs ({:>9.0} tokens/s, {:.1} µs/step)",
        b.decode_us,
        b.decode_tokens_per_s(),
        b.decode_us / b.steps as f64
    );
    println!(
        "  resident {:>9.1} KiB arena slabs, {:.2} allocs/step, \
         attend-step measured MUE {:.1}",
        b.resident_bytes as f64 / 1024.0,
        b.allocs_per_step,
        b.step_mue
    );
}

fn full() -> Result<(), Box<dyn std::error::Error>> {
    let dims = dims();
    let pf = interp::cached_plan(&dims, interp::PlanKind::EncoderFused)?;
    println!(
        "runtime profile of the fused encoder plan, dims i={} j={} b={} h={} p={} u={} \
         ({REPS} reps, min per step)",
        dims.i, dims.j, dims.b, dims.h, dims.p, dims.u
    );

    let opts = ExecOptions::default();
    let base = random_externals(&pf.graph, &pf.plan, 11)?;
    let prof = profile_plan(&pf.graph, &pf.plan, &base, &opts, REPS)?;
    let static_audit = audit(&pf.graph, &pf.plan, &DeviceSpec::v100());

    println!(
        "\nhost peak bandwidth {:.2} GB/s (calibrated); measured vs static MUE per step:",
        prof.peak_bytes_per_us * 1e6 / 1e9
    );
    println!(
        "  {:>4}  {:<26} {:>5} {:>9} {:>9} {:>8} {:>5} {:>8} {:>8}",
        "step", "kernel", "class", "time µs", "KiB", "GB/s", "bw%", "MUE", "static"
    );
    for s in prof.steps() {
        let m = prof.measured_mue(s);
        let st = static_audit
            .per_step
            .get(s.step)
            .and_then(|a| a.mue.as_ref())
            .map_or_else(|| "—".into(), |m| format!("{:8.1}", m.value));
        println!(
            "  {:>4}  {:<26} {:>5} {:>9.1} {:>9.1} {:>8.2} {:>5.1} {:>8.1} {:>8}",
            s.step,
            s.name,
            class_tag(s.class),
            s.time_us,
            s.moved_bytes() as f64 / 1024.0,
            s.achieved_bytes_per_us() * 1e6 / 1e9,
            m.bandwidth_frac * 100.0,
            m.value,
            st,
        );
    }
    let pm = prof.plan_mue();
    println!(
        "\nplan totals: {:.1} µs summed, {:.1} KiB moved, measured MUE {:.1} \
         (static MUE {:.1} over {} modelled steps)",
        prof.total_time_us(),
        prof.total_bytes() as f64 / 1024.0,
        pm.value,
        static_audit.plan_mue.value,
        static_audit.modelled_steps,
    );

    println!("\nper-class totals (measured):");
    for c in prof.per_class() {
        println!(
            "  {:<5} {:>2} steps  {:>9.1} µs  {:>9.1} KiB  MUE {:>5.1}",
            class_tag(c.class),
            c.steps,
            c.time_us,
            c.moved_bytes as f64 / 1024.0,
            c.mue.value,
        );
    }

    // --- wave-parallel occupancy of the certified plan ---
    let popts = ParallelOptions {
        threads: 4,
        ..ParallelOptions::default()
    };
    let par = profile_plan_parallel(&pf.graph, &pf.plan, &pf.cert, &base, &opts, &popts, REPS)?;
    println!(
        "\nwave-parallel occupancy at {} threads (wall {:.1} µs across {} waves):",
        popts.threads,
        par.parallel_wall_us().unwrap_or(0.0),
        par.waves().count(),
    );
    for w in par.waves() {
        println!(
            "  wave {:>2}: {:>2} step(s) on {} worker(s)  wall {:>8.1} µs  \
             occupancy {:>5.1}%  imbalance {:.2}x",
            w.wave,
            w.steps.len(),
            w.workers,
            w.wall_us,
            par.wave_occupancy(w) * 100.0,
            par.wave_imbalance(w),
        );
    }

    // --- fused vs epilogue, measured ---
    print_duels(&duels(REPS)?);

    // --- streaming decode throughput ---
    print_decode(&decode_bench(REPS)?);

    // --- cache-model DRAM cross-validation ---
    let (rows, llc) = dram_rows(REPS)?;
    print_dram_rows(&rows, llc);

    // --- arena steady-state heap discipline ---
    println!("\narena execution (fused encoder, zero-allocation steady state):");
    println!(
        "  {:<7} {:>7} {:>9} {:>11} {:>9} {:>12}",
        "granul.", "threads", "slab KiB", "scratch KiB", "stats KiB", "allocs/call"
    );
    for r in arena_rows(Executor::Fused, interp::PlanKind::EncoderFused)? {
        println!(
            "  {:<7} {:>7} {:>9.1} {:>11.1} {:>9.1} {:>12.2}",
            r.tag,
            r.threads,
            r.slab_bytes as f64 / 1024.0,
            r.scratch_bytes as f64 / 1024.0,
            r.stats_bytes as f64 / 1024.0,
            r.events as f64 / STEADY_CALLS as f64,
        );
    }

    // --- strided-vs-fast-path bandwidth scoreboard ---
    println!(
        "\nachieved bandwidth, strided general path (post > 1) vs unit-stride \
         fast path (post == 1), same kernel and element count, min of reps:"
    );
    println!(
        "  {:<22} {:>9} {:>13} {:>10} {:>8}",
        "kernel", "MiB", "strided GB/s", "fast GB/s", "speedup"
    );
    for r in bandwidth_rows() {
        println!(
            "  {:<22} {:>9.1} {:>13.2} {:>10.2} {:>7.2}x",
            r.kernel,
            r.bytes as f64 / (1024.0 * 1024.0),
            r.strided_gbps(),
            r.fast_gbps(),
            r.speedup(),
        );
    }

    // --- profile-guided re-selection ---
    println!("\nprofile-guided re-selection (CPU-measured fallback, sweep ≤48 configs/op):");
    let r = reselection(&pf.graph, &pf.plan, &opts)?;
    println!("  natural plan     {:>9.1} µs measured", r.natural_us());
    println!(
        "  re-selected plan {:>9.1} µs measured ({} transposes, {:.1} µs modeled)",
        r.reselected_us(),
        r.selection.transposes,
        r.selection.total_us,
    );
    println!(
        "  adopted: {} — measured improvement {:.1}% (total {:.1} µs, never worse than natural)",
        if r.adopted { "re-selected" } else { "natural" },
        r.improvement_pct(),
        r.best_us(),
    );
    assert!(
        r.best_us() <= r.natural_us(),
        "adopted plan measured worse than natural"
    );
    Ok(())
}

/// Returns the failures found while smoke-checking a profiled plan.
fn check_profile(tag: &str, prof: &PlanProfiler, expect_steps: usize) -> Vec<String> {
    let mut bad = Vec::new();
    if prof.steps().count() != expect_steps {
        bad.push(format!(
            "{tag}: profiled {} of {expect_steps} steps",
            prof.steps().count()
        ));
    }
    for s in prof.steps() {
        if s.interpretable && s.moved_bytes() == 0 {
            bad.push(format!("{tag}: step {} ({}) moved 0 bytes", s.step, s.name));
        }
        if s.time_us <= 0.0 {
            bad.push(format!("{tag}: step {} ({}) has no time", s.step, s.name));
        }
        let m = prof.measured_mue(s);
        if !(m.value > 0.0 && m.value <= 100.0) {
            bad.push(format!(
                "{tag}: step {} ({}) measured MUE {} outside (0, 100]",
                s.step, s.name, m.value
            ));
        }
        if !s.footprint_matches() {
            bad.push(format!(
                "{tag}: step {} ({}) footprint {} words vs audited {}",
                s.step,
                s.name,
                s.footprint_words,
                s.moved_words()
            ));
        }
    }
    bad
}

fn check() -> Result<(), Box<dyn std::error::Error>> {
    let dims = dims();
    let pf = interp::cached_plan(&dims, interp::PlanKind::EncoderFused)?;
    let opts = ExecOptions::default();
    let base = random_externals(&pf.graph, &pf.plan, 11)?;
    let prof = profile_plan(&pf.graph, &pf.plan, &base, &opts, 2)?;
    let mut bad = check_profile("serial", &prof, pf.plan.steps.len());

    let popts = ParallelOptions {
        threads: 4,
        ..ParallelOptions::default()
    };
    let par = profile_plan_parallel(&pf.graph, &pf.plan, &pf.cert, &base, &opts, &popts, 2)?;
    bad.extend(check_profile("parallel", &par, pf.plan.steps.len()));
    if par.waves().count() != pf.cert.waves.len() {
        bad.push(format!(
            "parallel: profiled {} of {} waves",
            par.waves().count(),
            pf.cert.waves.len()
        ));
    }

    let r = reselection(&pf.graph, &pf.plan, &opts)?;
    if r.best_us() > r.natural_us() {
        bad.push(format!(
            "re-selection: adopted {:.1} µs is worse than natural {:.1} µs",
            r.best_us(),
            r.natural_us()
        ));
    }

    // the unit-stride fast paths must earn their code: at least one
    // memory-bound kernel class must achieve strictly higher bandwidth on
    // contiguous rows than its strided general loop on the same elements
    let rows = bandwidth_rows();
    if !rows.iter().any(|r| r.fast_gbps() > r.strided_gbps()) {
        bad.push(format!(
            "fast paths: no kernel class beat its strided general path ({})",
            rows.iter()
                .map(|r| format!("{} {:.2}x", r.kernel, r.speedup()))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }

    // the arena's zero-allocation steady state is a hard gate — for the
    // element-wise-fused plan AND the epilogue mega-kernel plan
    for (exec, kind) in [
        (Executor::Fused, interp::PlanKind::EncoderFused),
        (Executor::Epilogue, interp::PlanKind::EncoderEpilogue),
    ] {
        for row in arena_rows(exec, kind)? {
            if row.events != 0 {
                bad.push(format!(
                    "arena ({exec:?}, {}, {} threads): {} heap event(s) across {STEADY_CALLS} \
                     steady-state forward_into calls (must be 0)",
                    row.tag, row.threads, row.events
                ));
            }
        }
    }

    // the GEMM-epilogue acceptance gate: on every profiled traffic shape
    // the epilogue plan must move strictly fewer measured bytes and must
    // not be slower than its unfused counterpart (modulo runner noise;
    // full REPS here — per-step times are min-merged, so more reps only
    // de-noise the wall-clock gate)
    for d in duels(REPS)? {
        if d.epilogue.bytes >= d.unfused.bytes {
            bad.push(format!(
                "epilogue duel ({}): measured {} bytes, not below the unfused plan's {}",
                d.shape, d.epilogue.bytes, d.unfused.bytes
            ));
        }
        if d.epilogue.us > d.unfused.us * DUEL_TIME_SLACK {
            bad.push(format!(
                "epilogue duel ({}): measured {:.1} µs, slower than the unfused \
                 plan's {:.1} µs (slack {DUEL_TIME_SLACK}x)",
                d.shape, d.epilogue.us, d.unfused.us
            ));
        }
    }

    // the streaming decode gates: zero heap events per steady-state step,
    // nonzero throughput, and a sane measured MUE for the attend-step plan
    let db = decode_bench(2)?;
    if db.allocs_per_step != 0.0 {
        bad.push(format!(
            "decode: {:.2} heap event(s) per steady-state step (must be 0)",
            db.allocs_per_step
        ));
    }
    if !(db.decode_us > 0.0 && db.decode_tokens_per_s() > 0.0) {
        bad.push(format!(
            "decode: non-positive throughput ({:.1} µs over {} steps)",
            db.decode_us, db.steps
        ));
    }
    if !(db.step_mue > 0.0 && db.step_mue <= 100.0) {
        bad.push(format!(
            "decode: attend-step measured MUE {} outside (0, 100]",
            db.step_mue
        ));
    }

    // the cache model's empirical gate: on the LLC-busting validation
    // shapes, predicted DRAM bytes must bracket the profiler's measured
    // byte account within tolerance on both memory-bound normalization
    // classes (softmax and layernorm)
    let (rows, llc) = dram_rows(2)?;
    let gated: Vec<&DramRow> = rows
        .iter()
        .filter(|r| r.measured_bytes >= 4 * llc)
        .collect();
    for r in &gated {
        if (r.ratio() - 1.0).abs() > DRAM_VALIDATION_TOL {
            bad.push(format!(
                "dram validation ({}, {}): predicted {} bytes vs measured {} \
                 (ratio {:.2}, tolerance ±{DRAM_VALIDATION_TOL})",
                r.shape,
                r.step,
                r.predicted_bytes,
                r.measured_bytes,
                r.ratio()
            ));
        }
    }
    for (class, hit) in [
        ("softmax", gated.iter().any(|r| r.step == "SM")),
        ("layernorm", gated.iter().any(|r| r.step.contains("LN"))),
    ] {
        if !hit {
            bad.push(format!(
                "dram validation: no LLC-busting {class}-class step was gated \
                 ({} gated rows of {})",
                gated.len(),
                rows.len()
            ));
        }
    }

    if bad.is_empty() {
        println!(
            "plan_profile --check: OK — {} steps profiled serial+parallel, \
             re-selected total {:.1} µs ≤ natural {:.1} µs, \
             {} DRAM predictions within ±{:.0}%, \
             0 steady-state arena allocations, \
             decode {:.0} tokens/s at 0 allocs/step",
            pf.plan.steps.len(),
            r.best_us(),
            r.natural_us(),
            gated.len(),
            DRAM_VALIDATION_TOL * 100.0,
            db.decode_tokens_per_s(),
        );
        Ok(())
    } else {
        for b in &bad {
            eprintln!("FAIL: {b}");
        }
        Err(format!("{} profiler check(s) failed", bad.len()).into())
    }
}

/// Minimal JSON string escaping for the hand-rolled emitter (keys and
/// values here are ASCII identifiers, but stay safe anyway).
fn jstr(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Writes `BENCH_plan_profile.json`: the machine-readable mirror of the
/// profile — per-plan per-class measured MUE and achieved bandwidth,
/// arena slab bytes and allocs/call per granularity, the strided vs
/// fast-path kernel bandwidth scoreboard, and the fused-vs-epilogue
/// duels — so the perf trajectory is tracked across PRs.
fn json() -> Result<(), Box<dyn std::error::Error>> {
    let dims = dims();
    // decode attend-step shape: one query column against a cache bucket
    // of 32 positions, matching `decode_bench`'s session capacity
    let step_dims = EncoderDims {
        b: dims.b,
        j: 1,
        k: 32,
        h: dims.h,
        p: dims.p,
        i: dims.i,
        u: dims.u,
    };
    let mut plans = Vec::new();
    for (key, kind, d) in [
        ("encoder-fused", interp::PlanKind::EncoderFused, &dims),
        ("encoder-epilogue", interp::PlanKind::EncoderEpilogue, &dims),
        ("decoder-fused", interp::PlanKind::DecoderFused, &dims),
        ("decoder-epilogue", interp::PlanKind::DecoderEpilogue, &dims),
        ("decoder-prefill", interp::PlanKind::DecoderPrefill, &dims),
        (
            "decoder-step-project",
            interp::PlanKind::DecoderStepProject,
            &EncoderDims { j: 1, k: 1, ..dims },
        ),
        ("decoder-step", interp::PlanKind::DecoderStep, &step_dims),
    ] {
        let pf = interp::cached_plan(d, kind)?;
        let base = random_externals(&pf.graph, &pf.plan, 11)?;
        let prof = profile_plan(&pf.graph, &pf.plan, &base, &ExecOptions::default(), REPS)?;
        let classes: Vec<String> = prof
            .per_class()
            .iter()
            .map(|c| {
                format!(
                    "{{\"class\":{},\"steps\":{},\"time_us\":{:.3},\"moved_bytes\":{},\
                     \"achieved_gbps\":{:.4},\"measured_mue\":{:.4}}}",
                    jstr(class_tag(c.class)),
                    c.steps,
                    c.time_us,
                    c.moved_bytes,
                    c.moved_bytes as f64 / 1e3 / c.time_us.max(1e-9),
                    c.mue.value,
                )
            })
            .collect();
        plans.push(format!(
            "{}:{{\"steps\":{},\"total_us\":{:.3},\"total_bytes\":{},\"measured_mue\":{:.4},\
             \"per_class\":[{}]}}",
            jstr(key),
            pf.plan.steps.len(),
            prof.total_time_us(),
            prof.total_bytes(),
            prof.plan_mue().value,
            classes.join(","),
        ));
    }

    let mut arena = Vec::new();
    for (exec, kind, key) in [
        (Executor::Fused, interp::PlanKind::EncoderFused, "fused"),
        (
            Executor::Epilogue,
            interp::PlanKind::EncoderEpilogue,
            "epilogue",
        ),
    ] {
        for r in arena_rows(exec, kind)? {
            arena.push(format!(
                "{{\"plan\":{},\"granularity\":{},\"threads\":{},\"slab_bytes\":{},\
                 \"scratch_bytes\":{},\"stats_bytes\":{},\"allocs_per_call\":{:.2}}}",
                jstr(key),
                jstr(r.tag),
                r.threads,
                r.slab_bytes,
                r.scratch_bytes,
                r.stats_bytes,
                r.events as f64 / STEADY_CALLS as f64,
            ));
        }
    }

    let bandwidth: Vec<String> = bandwidth_rows()
        .iter()
        .map(|r| {
            format!(
                "{{\"kernel\":{},\"bytes\":{},\"strided_gbps\":{:.4},\"fast_gbps\":{:.4}}}",
                jstr(r.kernel),
                r.bytes,
                r.strided_gbps(),
                r.fast_gbps(),
            )
        })
        .collect();

    let duel_rows: Vec<String> = duels(REPS)?
        .iter()
        .map(|d| {
            format!(
                "{{\"shape\":{},\"unfused_us\":{:.3},\"unfused_bytes\":{},\"epilogue_us\":{:.3},\
                 \"epilogue_bytes\":{},\"adopted\":{}}}",
                jstr(&d.shape),
                d.unfused.us,
                d.unfused.bytes,
                d.epilogue.us,
                d.epilogue.bytes,
                jstr(d.adopted()),
            )
        })
        .collect();

    let db = decode_bench(REPS)?;
    let decode = format!(
        "{{\"prompt_tokens\":{},\"steps\":{},\"batch\":{},\"prefill_us\":{:.3},\
         \"decode_us\":{:.3},\"prefill_tokens_per_s\":{:.1},\"decode_tokens_per_s\":{:.1},\
         \"allocs_per_step\":{:.2},\"resident_bytes\":{},\"step_measured_mue\":{:.4}}}",
        db.prompt_tokens,
        db.steps,
        db.batch,
        db.prefill_us,
        db.decode_us,
        db.prefill_tokens_per_s(),
        db.decode_tokens_per_s(),
        db.allocs_per_step,
        db.resident_bytes,
        db.step_mue,
    );

    let (vrows, llc) = dram_rows(REPS)?;
    let dram: Vec<String> = vrows
        .iter()
        .map(|r| {
            format!(
                "{{\"shape\":{},\"step\":{},\"predicted_bytes\":{},\"measured_bytes\":{},\
                 \"time_us\":{:.3},\"gated\":{}}}",
                jstr(&r.shape),
                jstr(&r.step),
                r.predicted_bytes,
                r.measured_bytes,
                r.time_us,
                r.measured_bytes >= 4 * llc,
            )
        })
        .collect();

    let body = format!(
        "{{\"dims\":{{\"b\":{},\"j\":{},\"k\":{},\"h\":{},\"p\":{},\"i\":{},\"u\":{}}},\
         \"plans\":{{{}}},\"arena\":[{}],\"bandwidth\":[{}],\"duels\":[{}],\
         \"decode\":{},\
         \"dram_validation\":{{\"llc_bytes\":{},\"rows\":[{}]}}}}\n",
        dims.b,
        dims.j,
        dims.k,
        dims.h,
        dims.p,
        dims.i,
        dims.u,
        plans.join(","),
        arena.join(","),
        bandwidth.join(","),
        duel_rows.join(","),
        decode,
        llc,
        dram.join(","),
    );
    let path = "BENCH_plan_profile.json";
    std::fs::write(path, &body)?;
    println!("wrote {path} ({} bytes)", body.len());
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cli = Cli::parse(
        "plan_profile",
        "runtime plan profiling: measured MUE, epilogue duels, decode throughput, \
         profile-guided re-selection",
        &[CHECK, JSON],
    );
    if cli.has(CHECK.name) {
        check()
    } else if cli.has(JSON.name) {
        json()
    } else {
        full()
    }
}
