//! Plan-driven execution of the transformer layers: canned
//! [`ExecutionPlan`]s for the reference and fused executors, plus the glue
//! that binds a layer's weights into the schedule interpreter's
//! environment and reads the saved activations back out.
//!
//! This is where the recipe's output becomes runnable: the same
//! interpreter that executes the two canned plans also executes an
//! arbitrary recipe-selected plan (supply it via
//! [`xform_core::plan::ExecOptions::plan`] to the unified
//! [`crate::encoder::EncoderLayer::forward`]), so the SSSP-selected
//! layouts of `xform-core` run against the real CPU kernels with no
//! per-configuration code.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use xform_core::access::{certify_access, AccessCertificate};
use xform_core::analyze::{analyze, ArenaGranularity};
use xform_core::arena::{ArenaArtifact, ArenaOutcome, ArenaRun, CompiledArena};
use xform_core::fusion::{
    apply_epilogues, apply_plan, decoder_attend_fusion_plan, decoder_forward_fusion_plan,
    decoder_fusion_plan, decoder_project_fusion_plan, encoder_fusion_plan,
};
use xform_core::plan::{execute_plan, ExecOptions, ExecState, ExecutionPlan, SanitizeMode};
use xform_core::recipe::forward_ops;
use xform_core::sanitize::{certify, execute_plan_parallel, ParallelOptions, RaceCertificate};
use xform_dataflow::{build, EncoderDims, Graph};
use xform_tensor::{into_ops, Axis, Result, Tensor};

use crate::params::EncoderWeights;

/// The result of a unified layer forward: the layer output plus the saved
/// activations, which are assembled only when
/// [`xform_core::plan::ExecOptions::collect_activations`] was set (the
/// default). Inference-only callers read `y` directly; training callers
/// destructure with [`ForwardOutput::into_pair`].
#[derive(Debug, Clone)]
pub struct ForwardOutput<A> {
    /// The layer output `y` (`[i,b,j]`).
    pub y: Tensor,
    /// Saved activations, when collection was requested.
    pub activations: Option<A>,
}

impl<A> ForwardOutput<A> {
    /// Splits into `(y, activations)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the forward ran with
    /// `collect_activations = false`.
    pub fn into_pair(self) -> Result<(Tensor, A)> {
        let a = self.activations.ok_or_else(|| {
            xform_tensor::TensorError::Unsupported(
                "forward ran with collect_activations disabled — no saved activations".into(),
            )
        })?;
        Ok((self.y, a))
    }
}

/// A dataflow graph paired with an executable forward schedule over it,
/// carrying the race certificate that admits the schedule to the
/// wave-parallel interpreter.
#[derive(Debug, Clone)]
pub struct PlannedForward {
    /// The (possibly fused) dataflow graph the plan is lowered against.
    pub graph: Graph,
    /// The forward schedule.
    pub plan: ExecutionPlan,
    /// Freedom-from-races certificate over the plan's hazard-DAG waves.
    pub cert: RaceCertificate,
    /// Access-path certificate: every operand path proven in-bounds and
    /// alias-free, with a per-step unit-stride verdict.
    pub access: AccessCertificate,
}

fn certified(graph: Graph, plan: ExecutionPlan) -> Result<PlannedForward> {
    let cert = certify(&graph, &plan).map_err(|lints| {
        xform_tensor::TensorError::Unsupported(format!(
            "canned plan failed race certification: {:?}",
            lints.iter().map(|l| l.to_string()).collect::<Vec<_>>()
        ))
    })?;
    let access = certify_access(&graph, &plan).map_err(|lints| {
        xform_tensor::TensorError::Unsupported(format!(
            "canned plan failed access certification: {:?}",
            lints.iter().map(|l| l.to_string()).collect::<Vec<_>>()
        ))
    })?;
    Ok(PlannedForward {
        graph,
        plan,
        cert,
        access,
    })
}

fn planned(graph: Graph, dy: xform_dataflow::NodeId) -> Result<PlannedForward> {
    let plan = ExecutionPlan::natural(&graph, &forward_ops(&graph, dy))?;
    certified(graph, plan)
}

/// Schedules a forward-only graph (no `dy` seed to split on): every
/// operator, in topological order.
fn planned_forward(graph: Graph) -> Result<PlannedForward> {
    let plan = ExecutionPlan::natural(&graph, &graph.topo_ops())?;
    certified(graph, plan)
}

/// Which canned schedule a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Unfused encoder, natural layouts.
    EncoderReference,
    /// Fused encoder, natural layouts.
    EncoderFused,
    /// Fused encoder with GEMM-epilogue mega-kernels (QKT+SM, Linear 1+
    /// BRD collapsed; their intermediates never materialize).
    EncoderEpilogue,
    /// Fused decoder block, natural layouts.
    DecoderFused,
    /// Fused decoder with GEMM-epilogue mega-kernels (QKT+SM, Out+BDR,
    /// Linear 1+BRD, Linear 2+BDR2 collapsed).
    DecoderEpilogue,
    /// Forward-only fused decoder block for the decode *prefill* pass:
    /// same kernels as [`PlanKind::DecoderFused`]'s forward half, no
    /// backward operators. `dims.j == dims.k` is the prompt length.
    DecoderPrefill,
    /// Decode-step projection plan: LN1 + stacked Q/K/V + bias carve over
    /// a single token column (`dims.j == 1`), producing the `qq_new`/
    /// `kk_new`/`vv_new` columns the session appends to its caches.
    DecoderStepProject,
    /// Decode-step attention plan: reads the resident `k_cache`/`v_cache`
    /// ([`xform_dataflow::DataRole::Cache`] inputs, `dims.k` = bucket
    /// capacity) plus the projected `qq` column and produces the step's
    /// `y` (`dims.j == 1`).
    DecoderStep,
}

type PlanCache = Mutex<HashMap<(EncoderDims, PlanKind), Arc<PlannedForward>>>;

fn plan_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the canned plan for `(dims, kind)`, building and memoizing it
/// on first use. Keying on the full dimension set means a layer whose
/// dims change simply misses the cache and lowers a fresh plan — stale
/// schedules can never be returned. Lowering happens outside the lock;
/// a racing duplicate build is benign (last writer wins).
///
/// # Errors
///
/// Returns an error if graph construction, fusion, or scheduling fails.
pub fn cached_plan(dims: &EncoderDims, kind: PlanKind) -> Result<Arc<PlannedForward>> {
    let key = (*dims, kind);
    if let Some(hit) = plan_cache().lock().unwrap().get(&key) {
        return Ok(Arc::clone(hit));
    }
    let built = Arc::new(match kind {
        PlanKind::EncoderReference => encoder_reference(dims)?,
        PlanKind::EncoderFused => encoder_fused(dims)?,
        PlanKind::EncoderEpilogue => encoder_epilogue(dims)?,
        PlanKind::DecoderFused => decoder_fused(dims)?,
        PlanKind::DecoderEpilogue => decoder_epilogue(dims)?,
        PlanKind::DecoderPrefill => decoder_prefill(dims)?,
        PlanKind::DecoderStepProject => decoder_step_project(dims)?,
        PlanKind::DecoderStep => decoder_step_attend(dims)?,
    });
    plan_cache().lock().unwrap().insert(key, Arc::clone(&built));
    Ok(built)
}

/// Number of memoized canned plans (for tests and diagnostics).
pub fn plan_cache_len() -> usize {
    plan_cache().lock().unwrap().len()
}

/// Drops every memoized plan.
pub fn clear_plan_cache() {
    plan_cache().lock().unwrap().clear();
}

/// Compiled arenas keyed alongside the plan cache. The value is an
/// `Option` so a plan the arena compiler declines (`Ok(None)`) is cached
/// negatively — the layer probes once, then falls back to the allocating
/// interpreter without recompiling on every forward.
type ArenaCache =
    Mutex<HashMap<(EncoderDims, PlanKind, ArenaGranularity), Option<Arc<CompiledArena>>>>;

fn arena_cache() -> &'static ArenaCache {
    static CACHE: OnceLock<ArenaCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The arena execution order a forward at this thread count needs:
/// wave-granularity colorings for the parallel interpreter, serial
/// colorings (tighter slabs) otherwise.
pub fn granularity_for(threads: usize) -> ArenaGranularity {
    if threads > 1 {
        ArenaGranularity::Waves
    } else {
        ArenaGranularity::Serial
    }
}

/// Returns the compiled static arena for `(dims, kind, granularity)`,
/// building and memoizing it on first use (`None` — also memoized — when
/// the canned plan has a shape the arena compiler does not support).
/// Steady-state hits are a lock plus a `HashMap` probe: no allocation.
///
/// # Errors
///
/// Returns an error if the canned plan cannot be built, or if the arena
/// coloring fails aliasing certification (an internal invariant
/// violation).
pub fn cached_arena(
    dims: &EncoderDims,
    kind: PlanKind,
    granularity: ArenaGranularity,
) -> Result<Option<Arc<CompiledArena>>> {
    let key = (*dims, kind, granularity);
    if let Some(hit) = arena_cache().lock().unwrap().get(&key) {
        return Ok(hit.clone());
    }
    let pf = cached_plan(dims, kind)?;
    let analysis = analyze(&pf.graph, &pf.plan);
    let built = CompiledArena::compile(&pf.graph, &pf.plan, &analysis, granularity)?.map(Arc::new);
    arena_cache().lock().unwrap().insert(key, built.clone());
    Ok(built)
}

/// Number of memoized arena probes, counting negative entries (for tests
/// and diagnostics).
pub fn arena_cache_len() -> usize {
    arena_cache().lock().unwrap().len()
}

/// Drops every memoized arena.
pub fn clear_arena_cache() {
    arena_cache().lock().unwrap().clear();
}

/// The arena-side mirror of a merged [`ExecOptions`]: layer knobs plus
/// the cached `XFORM_SANITIZE` resolution (reading the environment
/// allocates, so [`SanitizeMode::Env`] goes through the process-wide
/// cached flag on this path).
pub(crate) fn arena_run(opts: &ExecOptions) -> ArenaRun {
    ArenaRun {
        dropout_p: opts.dropout_p,
        activation: opts.activation,
        scaler: opts.scaler,
        seed: opts.seed,
        threads: opts.threads,
        sanitize: match opts.sanitize {
            SanitizeMode::Off => false,
            SanitizeMode::On => true,
            SanitizeMode::Env => xform_core::arena::env_sanitize_cached(),
        },
        pos: opts.pos,
    }
}

/// `true` when `t`'s logical shape is exactly the axes of `spec`, in that
/// order, at `dims`' sizes. Allocates nothing.
fn has_shape(t: &Tensor, spec: &str, dims: &EncoderDims) -> bool {
    let s = t.shape();
    s.rank() == spec.len()
        && spec
            .chars()
            .zip(s.axes().iter().zip(s.sizes()))
            .all(|(c, (a, &n))| a.0 == c && n == dims.size(c))
}

/// Rejects a layer input or weight whose shape differs from the one the
/// layer graph declares for it: `x` is `[i,b,j]`, each weight as
/// [`EncoderWeights`] documents. Binding copies a tensor by its logical
/// element order and checks only the word count, so a transposed,
/// relabeled or reshaped tensor of the right size would otherwise run and
/// return a wrong answer. Allocates nothing.
///
/// # Errors
///
/// Returns [`xform_tensor::TensorError::ShapeMismatch`] on any mismatch.
pub(crate) fn check_inputs(dims: &EncoderDims, x: &Tensor, w: &EncoderWeights) -> Result<()> {
    let bound = [
        (x, "ibj"),
        (&w.wq, "phi"),
        (&w.wk, "phi"),
        (&w.wv, "whi"),
        (&w.wo, "whi"),
        (&w.bq, "ph"),
        (&w.bk, "ph"),
        (&w.bv, "wh"),
        (&w.bo, "i"),
        (&w.ln1_gamma, "i"),
        (&w.ln1_beta, "i"),
        (&w.w1, "ui"),
        (&w.b1, "u"),
        (&w.w2, "iu"),
        (&w.b2, "i"),
        (&w.ln2_gamma, "i"),
        (&w.ln2_beta, "i"),
    ];
    if bound.iter().all(|&(t, spec)| has_shape(t, spec, dims)) {
        Ok(())
    } else {
        Err(xform_tensor::TensorError::ShapeMismatch {
            context: "layer forward: an input or weight differs from the layer graph's shape",
        })
    }
}

/// Rejects a `forward_into` destination that is not a dense row-major
/// `[i,b,j]` tensor at `dims`: the output is copied in as raw words.
///
/// # Errors
///
/// Returns [`xform_tensor::TensorError::ShapeMismatch`] otherwise.
pub(crate) fn check_output(dims: &EncoderDims, y: &Tensor) -> Result<()> {
    if has_shape(y, "ibj", dims) && y.layout().is_row_major_for(y.shape()) {
        Ok(())
    } else {
        Err(xform_tensor::TensorError::ShapeMismatch {
            context: "layer forward_into: the output is not a row-major [i,b,j] tensor",
        })
    }
}

/// Drives one zero-allocation forward out of the cached arena: binds `x`
/// and the weight set straight into the slab (stacking Q/K/V into the
/// `w_qkv` region without materializing the concatenation) and copies the
/// produced `y` into the caller's buffer. `opts` must already be merged
/// with the layer knobs, and `x`, `w` and `y` checked by [`check_inputs`]
/// and [`check_output`]. Returns `Ok(false)` when the caller should fall
/// back to the allocating interpreter (no arena for this plan shape, or
/// one that cannot run this call).
///
/// # Errors
///
/// Returns an error if the arena fails to compile or the shadow sanitizer
/// trips.
pub(crate) fn arena_forward_into(
    dims: &EncoderDims,
    kind: PlanKind,
    x: &Tensor,
    w: &EncoderWeights,
    opts: &ExecOptions,
    y: &mut Tensor,
) -> Result<bool> {
    let Some(arena) = cached_arena(dims, kind, granularity_for(opts.threads))? else {
        return Ok(false);
    };
    let run = arena_run(opts);
    let mut bind = |name: &str, dst: &mut [f32]| -> bool {
        let src = match name {
            "x" => x,
            "w_qkv" => {
                let (nq, nk) = (w.wq.len(), w.wk.len());
                if dst.len() != nq + nk + w.wv.len() {
                    return false;
                }
                into_ops::copy_tensor_into(&w.wq, &mut dst[..nq]);
                into_ops::copy_tensor_into(&w.wk, &mut dst[nq..nq + nk]);
                into_ops::copy_tensor_into(&w.wv, &mut dst[nq + nk..]);
                return true;
            }
            "bq" => &w.bq,
            "bk" => &w.bk,
            "bv" => &w.bv,
            "wo" => &w.wo,
            "bo" => &w.bo,
            "ln1_gamma" => &w.ln1_gamma,
            "ln1_beta" => &w.ln1_beta,
            "w1" => &w.w1,
            "b1" => &w.b1,
            "w2" => &w.w2,
            "b2" => &w.b2,
            "ln2_gamma" => &w.ln2_gamma,
            "ln2_beta" => &w.ln2_beta,
            _ => return false,
        };
        if src.len() != dst.len() {
            return false;
        }
        into_ops::copy_tensor_into(src, dst);
        true
    };
    let mut wrote = false;
    let ydata = y.data_mut();
    let mut sink = |a: ArenaArtifact<'_>| {
        if let ArenaArtifact::Tensor {
            name: "y", data, ..
        } = a
        {
            if data.len() == ydata.len() {
                ydata.copy_from_slice(data);
                wrote = true;
            }
        }
    };
    match arena.execute_bound(&run, &mut bind, &mut sink)? {
        ArenaOutcome::Ran if wrote => Ok(true),
        ArenaOutcome::Ran => Err(xform_tensor::TensorError::Unsupported(
            "arena run produced no `y` output matching the destination tensor".into(),
        )),
        ArenaOutcome::Busy => Ok(false),
    }
}

/// The reference executor as a plan: the unfused encoder graph, natural
/// layouts, one step per dataflow operator.
///
/// # Errors
///
/// Returns an error if the graph cannot be scheduled.
pub fn encoder_reference(dims: &EncoderDims) -> Result<PlannedForward> {
    let eg = build::encoder(dims);
    planned(eg.graph, eg.dy)
}

/// The fused executor as a plan: the paper's encoder fusion plan applied,
/// natural layouts, one step per fused kernel.
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn encoder_fused(dims: &EncoderDims) -> Result<PlannedForward> {
    let eg = build::encoder(dims);
    let mut g = eg.graph;
    apply_plan(&mut g, &encoder_fusion_plan())?;
    planned(g, eg.dy)
}

/// The fused encoder with GEMM-epilogue mega-kernels: element-wise fusion
/// first, then every detected contraction→epilogue chain collapsed into a
/// [`xform_dataflow::OpKind::ContractionEpilogue`] step whose
/// intermediate is never materialized.
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn encoder_epilogue(dims: &EncoderDims) -> Result<PlannedForward> {
    let eg = build::encoder(dims);
    let mut g = eg.graph;
    apply_plan(&mut g, &encoder_fusion_plan())?;
    apply_epilogues(&mut g)?;
    planned(g, eg.dy)
}

/// The decoder block as a plan: the pre-LN decoder graph with its fusion
/// plan applied (causal SM, BDR residual joins, GELU BRD).
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn decoder_fused(dims: &EncoderDims) -> Result<PlannedForward> {
    let eg = build::decoder(dims);
    let mut g = eg.graph;
    apply_plan(&mut g, &decoder_fusion_plan())?;
    planned(g, eg.dy)
}

/// The fused decoder with GEMM-epilogue mega-kernels (see
/// [`encoder_epilogue`]).
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn decoder_epilogue(dims: &EncoderDims) -> Result<PlannedForward> {
    let eg = build::decoder(dims);
    let mut g = eg.graph;
    apply_plan(&mut g, &decoder_fusion_plan())?;
    apply_epilogues(&mut g)?;
    planned(g, eg.dy)
}

/// The decode prefill pass as a plan: the forward-only decoder graph with
/// the forward half of the decoder fusion plan applied. Same kernel names
/// and container roles as the fused decoder's forward, so the prompt's
/// `kk`/`vv` projections (and every logit) are bitwise those of a
/// full-sequence forward.
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn decoder_prefill(dims: &EncoderDims) -> Result<PlannedForward> {
    let fg = build::decoder_prefill(dims);
    let mut g = fg.graph;
    apply_plan(&mut g, &decoder_forward_fusion_plan())?;
    planned_forward(g)
}

/// The decode-step projection plan (LN1 + QKV + bias carve over one token
/// column). See [`PlanKind::DecoderStepProject`].
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn decoder_step_project(dims: &EncoderDims) -> Result<PlannedForward> {
    let fg = build::decoder_step_project(dims);
    let mut g = fg.graph;
    apply_plan(&mut g, &decoder_project_fusion_plan())?;
    planned_forward(g)
}

/// The decode-step attention plan reading the resident KV cache. On top
/// of the race and access certificates every canned plan carries, this
/// plan also passes [`xform_core::access::certify_decode`] (checked by
/// [`crate::decode::DecodeSession`] at compile time): no step writes a
/// single word of either cache container.
///
/// # Errors
///
/// Returns an error if fusion or scheduling fails.
pub fn decoder_step_attend(dims: &EncoderDims) -> Result<PlannedForward> {
    let fg = build::decoder_step_attend(dims);
    let mut g = fg.graph;
    apply_plan(&mut g, &decoder_attend_fusion_plan())?;
    planned_forward(g)
}

/// Dispatches one plan execution according to the run configuration: the
/// serial interpreter (one RNG stream seeded by [`ExecOptions::seed`])
/// for `threads <= 1`, the certificate-gated wave-parallel interpreter
/// (per-step RNG streams) otherwise. Shared by the unified encoder and
/// decoder forwards.
pub(crate) fn run_plan(
    graph: &Graph,
    plan: &ExecutionPlan,
    cert: Option<&RaceCertificate>,
    state: &mut ExecState,
    opts: &ExecOptions,
) -> Result<()> {
    if opts.threads > 1 {
        let cert = cert.ok_or_else(|| {
            xform_tensor::TensorError::Unsupported(
                "parallel execution requires a race certificate — supply one in the plan \
                 override or run with threads = 1"
                    .into(),
            )
        })?;
        let popts = ParallelOptions {
            threads: opts.threads,
            seed: opts.seed,
        };
        execute_plan_parallel(graph, plan, cert, state, opts, &popts)
    } else {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        execute_plan(graph, plan, state, opts, &mut rng)
    }
}

/// Wraps a finished interpreter environment into a [`ForwardOutput`]:
/// either running the layer's activation collector or just lifting `y`
/// out when collection was disabled.
pub(crate) fn finish<A>(
    mut state: ExecState,
    collect: bool,
    collector: impl FnOnce(ExecState) -> Result<(Tensor, A)>,
) -> Result<ForwardOutput<A>> {
    if collect {
        let (y, a) = collector(state)?;
        Ok(ForwardOutput {
            y,
            activations: Some(a),
        })
    } else {
        Ok(ForwardOutput {
            y: state.take("y")?,
            activations: None,
        })
    }
}

/// Binds a layer input and the shared weight set into an interpreter
/// environment under the graphs' container names. The separate Q/K/V
/// projection weights are stacked into the graphs' `w_qkv` container
/// (`[s=3p, h, i]`, Q then K then V).
///
/// # Errors
///
/// Returns an error if the weight shapes cannot be stacked.
pub fn bind_inputs(x: &Tensor, w: &EncoderWeights) -> Result<ExecState> {
    let mut state = ExecState::default();
    let w_qkv = Tensor::concat(
        Axis('s'),
        &[
            &w.wq.relabel("shi")?,
            &w.wk.relabel("shi")?,
            &w.wv.relabel("shi")?,
        ],
    )?;
    state.env.insert("x".into(), x.clone());
    state.env.insert("w_qkv".into(), w_qkv);
    for (name, t) in [
        ("bq", &w.bq),
        ("bk", &w.bk),
        ("bv", &w.bv),
        ("wo", &w.wo),
        ("bo", &w.bo),
        ("ln1_gamma", &w.ln1_gamma),
        ("ln1_beta", &w.ln1_beta),
        ("w1", &w.w1),
        ("b1", &w.b1),
        ("w2", &w.w2),
        ("b2", &w.b2),
        ("ln2_gamma", &w.ln2_gamma),
        ("ln2_beta", &w.ln2_beta),
    ] {
        state.env.insert(name.into(), t.clone());
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xform_core::plan::{execute_plan, ExecOptions};
    use xform_tensor::Shape;

    #[test]
    fn canned_plans_schedule_every_forward_operator() {
        let dims = EncoderDims::tiny();
        let reference = encoder_reference(&dims).unwrap();
        assert_eq!(reference.plan.steps.len(), 22);
        let fused = encoder_fused(&dims).unwrap();
        assert!(fused.plan.steps.len() < reference.plan.steps.len());
        assert!(xform_core::analyze::analyze(&fused.graph, &fused.plan).is_clean());
        let decoder = decoder_fused(&dims).unwrap();
        assert!(xform_core::analyze::analyze(&decoder.graph, &decoder.plan).is_clean());
        // every canned plan carries a certificate covering all its steps
        for pf in [&reference, &fused, &decoder] {
            let scheduled: usize = pf.cert.waves.iter().map(Vec::len).sum();
            assert_eq!(scheduled, pf.plan.steps.len());
            assert_eq!(
                pf.cert.plan_hash,
                xform_core::sanitize::plan_fingerprint(&pf.plan)
            );
        }
    }

    #[test]
    fn plan_cache_memoizes_per_dims_and_kind() {
        let dims = EncoderDims::tiny();
        let a = cached_plan(&dims, PlanKind::EncoderFused).unwrap();
        let b = cached_plan(&dims, PlanKind::EncoderFused).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same dims+kind must share one plan");
        let c = cached_plan(&dims, PlanKind::EncoderReference).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        // a dim change misses the cache and lowers a fresh plan
        let mut bigger = dims;
        bigger.b += 1;
        let d = cached_plan(&bigger, PlanKind::EncoderFused).unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(d.plan.steps.len(), a.plan.steps.len());
        assert!(plan_cache_len() >= 3);
    }

    #[test]
    fn bound_weights_cover_every_external_input() {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = Tensor::random(
            Shape::from_spec("ibj", &dims.size_table()).unwrap(),
            &Uniform::new(-1.0, 1.0),
            &mut rng,
        );
        for pf in [
            encoder_reference(&dims).unwrap(),
            encoder_fused(&dims).unwrap(),
            decoder_fused(&dims).unwrap(),
        ] {
            let mut state = bind_inputs(&x, &w).unwrap();
            let opts = ExecOptions::builder()
                .scaler(1.0 / (dims.p as f32).sqrt())
                .build();
            execute_plan(&pf.graph, &pf.plan, &mut state, &opts, &mut rng).unwrap();
            assert_eq!(state.get("y").unwrap().shape().spec(), "ibj");
        }
    }
}
