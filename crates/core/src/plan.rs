//! First-class execution plans: the bridge from the recipe's *selected*
//! configuration to code that actually runs.
//!
//! The selection step ([`crate::selection`]) answers "which layout should
//! each operator use"; this module lowers that answer into an
//! [`ExecutionPlan`] — an ordered schedule of [`PlanStep`]s, each naming
//! the kernel (fused or unfused), the memory layout of every operand, and
//! the explicit relayout (transpose) insertions required wherever adjacent
//! steps disagree. [`execute_plan`] then interprets the schedule against
//! the real CPU kernels in `xform-tensor`, materializing every tensor in
//! the plan's selected strides — closing the paper's loop from Fig. 6's
//! shortest-path selection to a running implementation.
//!
//! Two canned constructors cover the pre-existing executors:
//! [`ExecutionPlan::natural`] over the unfused graph reproduces the
//! reference (PyTorch-style) executor, and the same constructor over the
//! fused graph reproduces the fused-kernel executor. [`ExecutionPlan::lower`]
//! builds the recipe-selected plan from a [`Selection`].

use std::collections::{HashMap, HashSet};

use rand::Rng;

use xform_dataflow::{Graph, NodeId, OpKind};
use xform_gpusim::opmodel::OpConfig;
use xform_tensor::einsum::EinsumSpec;
use xform_tensor::fused;
use xform_tensor::into_ops::{
    contract_epilogue_tiled, epilogue_contract_plan, BiasMap, CausalMap, ContractPlan, TileEpilogue,
};
use xform_tensor::ops::dropout::{dropout, dropout_disabled};
use xform_tensor::ops::elementwise::{add, bias_add, scale, ActivationKind};
use xform_tensor::ops::layernorm::{layernorm, LayerNormStats};
use xform_tensor::ops::softmax::softmax;
use xform_tensor::{Axis, Layout, Result, Shape, Tensor, TensorError};

use crate::selection::{translate_layout, Selection};
use crate::sweep::flowing_input_index;

/// One tensor slot of a [`PlanStep`]: which container it is and the
/// physical axis order (layout spec) the step wants it materialized in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operand {
    /// The data container in the graph.
    pub data: NodeId,
    /// The container's name (the interpreter's environment key).
    pub name: String,
    /// Physical axis-order spec over the container's logical axes,
    /// outermost first (e.g. `"bjhk"` for a logically-`hbjk` tensor).
    pub layout: String,
}

/// An explicit relayout (transpose) the schedule inserts before a step
/// because the producer materialized the container in a different layout
/// than this step selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relayout {
    /// The container to re-materialize.
    pub data: NodeId,
    /// Its name.
    pub name: String,
    /// Layout it currently sits in.
    pub from: String,
    /// Layout this step requires.
    pub to: String,
}

/// One scheduled kernel launch: the operator, its operand layouts, and any
/// relayout insertions that must run first.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Operator id in the graph the plan was lowered from.
    pub op: NodeId,
    /// Kernel name (fused name where fusion applied).
    pub name: String,
    /// The operator kind, cloned out of the graph so the step is
    /// self-describing.
    pub kind: OpKind,
    /// Input operands in the graph's edge order.
    pub inputs: Vec<Operand>,
    /// Output operands in the graph's edge order.
    pub outputs: Vec<Operand>,
    /// Transposes to run before the kernel.
    pub relayouts: Vec<Relayout>,
}

/// An ordered, layout-annotated schedule for (part of) a dataflow graph.
#[derive(Debug, Clone, Default)]
pub struct ExecutionPlan {
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
}

/// `true` when `layout` is a permutation of the logical axis string
/// `logical` (same letters, each exactly once).
fn is_permutation_of(layout: &str, logical: &str) -> bool {
    if layout.len() != logical.len() {
        return false;
    }
    let mut a: Vec<char> = layout.chars().collect();
    let mut b: Vec<char> = logical.chars().collect();
    a.sort_unstable();
    b.sort_unstable();
    a == b && a.windows(2).all(|w| w[0] != w[1])
}

fn data_of(graph: &Graph, id: NodeId) -> Result<&xform_dataflow::DataNode> {
    graph
        .data(id)
        .ok_or_else(|| TensorError::Unsupported(format!("{id} is not a data container")))
}

impl ExecutionPlan {
    /// Builds a single layout-annotated step for `op` from a sweep/selection
    /// configuration. Operands whose shape the configuration's specs cannot
    /// describe (rank or axis mismatch) fall back to their natural layout;
    /// sibling outputs are translated positionally from the primary output's
    /// spec, mirroring the selection's own bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns an error if `op` is not a live operator.
    pub fn single_step(graph: &Graph, op: NodeId, cfg: &OpConfig) -> Result<PlanStep> {
        let node = graph
            .op(op)
            .ok_or_else(|| TensorError::Unsupported(format!("{op} is not an operator")))?;
        let input_ids = graph.inputs_of(op);
        let output_ids = graph.outputs_of(op);
        let flowing = flowing_input_index(graph, op);
        let is_einsum = matches!(node.kind, OpKind::Einsum(_));

        let mut inputs = Vec::with_capacity(input_ids.len());
        for (i, &id) in input_ids.iter().enumerate() {
            let d = data_of(graph, id)?;
            let logical = d.shape.spec();
            let wanted: Option<&str> = if is_einsum {
                match i {
                    0 => Some(cfg.in_spec.as_str()),
                    1 => cfg.in2_spec.as_deref(),
                    _ => None,
                }
            } else if i == flowing {
                Some(cfg.in_spec.as_str())
            } else {
                None
            };
            let layout = match wanted {
                Some(spec) if is_permutation_of(spec, &logical) => spec.to_string(),
                _ => logical,
            };
            inputs.push(Operand {
                data: id,
                name: d.name.clone(),
                layout,
            });
        }

        let mut outputs = Vec::with_capacity(output_ids.len());
        let primary_logical = output_ids
            .first()
            .and_then(|&id| graph.data(id))
            .map(|d| d.shape.spec());
        for (o, &id) in output_ids.iter().enumerate() {
            let d = data_of(graph, id)?;
            let logical = d.shape.spec();
            let layout = if o == 0 && is_permutation_of(&cfg.out_spec, &logical) {
                cfg.out_spec.clone()
            } else if o > 0 {
                // translate the primary output's layout positionally onto
                // same-rank siblings (e.g. a dropout mask shares its
                // output's layout)
                match &primary_logical {
                    Some(pl) if pl.len() == logical.len() => {
                        let t = translate_layout(&cfg.out_spec, pl, &logical);
                        if is_permutation_of(&t, &logical) {
                            t
                        } else {
                            logical
                        }
                    }
                    _ => logical,
                }
            } else {
                logical
            };
            outputs.push(Operand {
                data: id,
                name: d.name.clone(),
                layout,
            });
        }

        Ok(PlanStep {
            op,
            name: node.name.clone(),
            kind: node.kind.clone(),
            inputs,
            outputs,
            relayouts: Vec::new(),
        })
    }

    /// The canned plan: every listed operator in execution order with every
    /// operand in its natural (logical row-major) layout. Over the unfused
    /// graph this reproduces the reference executor; over the fused graph,
    /// the fused-kernel executor.
    ///
    /// # Errors
    ///
    /// Returns an error if any id is not a live operator.
    pub fn natural(graph: &Graph, ops: &[NodeId]) -> Result<ExecutionPlan> {
        let mut steps = Vec::with_capacity(ops.len());
        for &op in ops {
            let node = graph
                .op(op)
                .ok_or_else(|| TensorError::Unsupported(format!("{op} is not an operator")))?;
            let mk = |ids: Vec<NodeId>| -> Result<Vec<Operand>> {
                ids.into_iter()
                    .map(|id| {
                        let d = data_of(graph, id)?;
                        Ok(Operand {
                            data: id,
                            name: d.name.clone(),
                            layout: d.shape.spec(),
                        })
                    })
                    .collect()
            };
            steps.push(PlanStep {
                op,
                name: node.name.clone(),
                kind: node.kind.clone(),
                inputs: mk(graph.inputs_of(op))?,
                outputs: mk(graph.outputs_of(op))?,
                relayouts: Vec::new(),
            });
        }
        let mut plan = ExecutionPlan { steps };
        plan.reflow(graph);
        Ok(plan)
    }

    /// Lowers an SSSP selection into an executable schedule: one step per
    /// selected operator (in the selection's execution order) carrying the
    /// chosen configuration's layouts, with relayout insertions computed by
    /// [`ExecutionPlan::reflow`] wherever adjacent steps disagree.
    ///
    /// # Errors
    ///
    /// Returns an error if the selection references dead operators.
    pub fn lower(graph: &Graph, selection: &Selection) -> Result<ExecutionPlan> {
        let mut steps = Vec::with_capacity(selection.per_op.len());
        for (op, timing) in &selection.per_op {
            steps.push(ExecutionPlan::single_step(graph, *op, &timing.cfg)?);
        }
        let mut plan = ExecutionPlan { steps };
        plan.reflow(graph);
        Ok(plan)
    }

    /// Recomputes every step's relayout insertions by walking the schedule
    /// and tracking the layout each container is currently materialized in
    /// (containers start in their natural layout). Call after editing any
    /// operand layout.
    pub fn reflow(&mut self, graph: &Graph) {
        let mut current: HashMap<NodeId, String> = HashMap::new();
        for step in &mut self.steps {
            step.relayouts.clear();
            for inp in &step.inputs {
                let have = current.entry(inp.data).or_insert_with(|| {
                    graph
                        .data(inp.data)
                        .map(|d| d.shape.spec())
                        .unwrap_or_else(|| inp.layout.clone())
                });
                if *have != inp.layout {
                    step.relayouts.push(Relayout {
                        data: inp.data,
                        name: inp.name.clone(),
                        from: have.clone(),
                        to: inp.layout.clone(),
                    });
                    *have = inp.layout.clone();
                }
            }
            for out in &step.outputs {
                current.insert(out.data, out.layout.clone());
            }
        }
    }

    /// Statically checks the schedule against the graph it was lowered
    /// from, returning typed [`PlanLint`](crate::analyze::PlanLint)
    /// diagnostics: structural coherence (operand lists, layout
    /// permutations, use-before-def, relayout and layout coherence) as
    /// error-severity lints, plus warning-severity findings (dead steps,
    /// redundant/cancelling relayouts, missed fusion chains). A plan is
    /// executable iff no lint has
    /// [`Severity::Error`](crate::analyze::Severity::Error).
    ///
    /// This is a thin wrapper over [`crate::analyze::analyze`]; use that
    /// directly when the dependency DAG or liveness data is also needed.
    pub fn check(&self, graph: &Graph) -> Vec<crate::analyze::PlanLint> {
        crate::analyze::analyze(graph, self).lints
    }

    /// Total number of relayout (transpose) insertions in the schedule.
    pub fn relayout_count(&self) -> usize {
        self.steps.iter().map(|s| s.relayouts.len()).sum()
    }
}

/// Mutable interpreter state: tensors by container name, plus the
/// layer-norm statistics side channel (keyed by the norm's *output*
/// container name) that backward passes consume.
#[derive(Debug, Clone, Default)]
pub struct ExecState {
    /// Materialized containers.
    pub env: HashMap<String, Tensor>,
    /// Forward layer-norm statistics by output container name.
    pub stats: HashMap<String, LayerNormStats>,
}

impl ExecState {
    /// Removes and returns a container, erroring when the plan never
    /// produced it.
    ///
    /// # Errors
    ///
    /// Returns an error if the container is absent.
    pub fn take(&mut self, name: &str) -> Result<Tensor> {
        self.env
            .remove(name)
            .ok_or_else(|| TensorError::Unsupported(format!("container `{name}` was not produced")))
    }

    /// Returns a container by reference.
    ///
    /// # Errors
    ///
    /// Returns an error if the container is absent.
    pub fn get(&self, name: &str) -> Result<&Tensor> {
        self.env
            .get(name)
            .ok_or_else(|| TensorError::Unsupported(format!("container `{name}` was not produced")))
    }
}

/// How an execution routes through the shadow-access sanitizer of
/// [`crate::sanitize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizeMode {
    /// Defer to the `XFORM_SANITIZE` environment variable (the default):
    /// unset, empty, `0`, `false`, `off`, or `no` disable; anything else
    /// enables.
    #[default]
    Env,
    /// Never sanitize, regardless of the environment.
    Off,
    /// Always sanitize, regardless of the environment.
    On,
}

impl SanitizeMode {
    /// Resolves the mode against the process environment.
    #[must_use]
    pub fn enabled(self) -> bool {
        match self {
            SanitizeMode::Env => crate::sanitize::sanitize_enabled(),
            SanitizeMode::Off => false,
            SanitizeMode::On => true,
        }
    }
}

/// A caller-supplied schedule for the layer forwards to run instead of the
/// cached canned plan. The interpreter entry points
/// ([`execute_plan`] / [`crate::sanitize::execute_plan_parallel`]) take
/// graph and plan positionally and ignore this field; it exists so the
/// unified `forward(&x, &w, &ExecOptions)` surface can still execute
/// recipe-selected or deliberately perturbed plans.
#[derive(Debug, Clone, Copy)]
pub struct PlanOverride<'p> {
    /// The dataflow graph the plan was lowered against.
    pub graph: &'p Graph,
    /// The schedule to interpret.
    pub plan: &'p ExecutionPlan,
    /// Race certificate for the plan, required when `threads > 1`.
    pub cert: Option<&'p crate::sanitize::RaceCertificate>,
}

/// Everything the graph does not encode about one execution: scalar kernel
/// knobs (dropout probability, the activation behind generic activation
/// nodes, the attention scale), and the run configuration of the unified
/// `forward(&x, &w, &ExecOptions)` surface — worker threads, RNG seed,
/// sanitizer routing, an optional [`crate::profile::PlanProfiler`] sink,
/// and an optional plan override.
/// Construct it with [`ExecOptions::builder`] (or `ExecOptions::default()`
/// and field assignment): the struct is `#[non_exhaustive]`, so literal
/// construction is a compile error outside this crate and new fields
/// (decode position, future knobs) never break downstream callers.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ExecOptions<'p> {
    /// Dropout probability (`0` disables dropout deterministically, drawing
    /// nothing from the RNG).
    pub dropout_p: f32,
    /// Activation applied by `Relu`-kind nodes (real models use GELU).
    pub activation: ActivationKind,
    /// Scale folded into the softmax kernels (`1/√P` for attention).
    pub scaler: f32,
    /// Worker threads for the layer forwards: `1` (or `0`) runs the serial
    /// interpreter; more runs the certificate-gated wave-parallel
    /// interpreter. The interpreter entry points themselves ignore this —
    /// callers pick the entry point.
    pub threads: usize,
    /// Seed for the dropout RNG of the layer forwards (serial runs derive
    /// one stream from it; parallel runs derive one stream per step).
    pub seed: u64,
    /// Whether the layer forwards assemble the saved-activation bundle
    /// after the run (`true` by default; inference-only callers can skip
    /// the clones).
    pub collect_activations: bool,
    /// Shadow-access sanitizer routing (defaults to the environment).
    pub sanitize: SanitizeMode,
    /// Optional profiler sink: when set, every interpreter entry point
    /// records per-step wall-clock time (and, for the parallel
    /// interpreter, per-wave occupancy) into it.
    pub profiler: Option<&'p crate::profile::ProfilerSink>,
    /// Optional plan override for the layer forwards (see
    /// [`PlanOverride`]).
    pub plan: Option<PlanOverride<'p>>,
    /// Optional compiled arena for this plan: when set (and the profiler
    /// is off), the interpreters execute out of the arena's slab instead
    /// of the allocating environment, falling back transparently when the
    /// arena does not match the plan or the thread count.
    pub arena: Option<&'p crate::arena::CompiledArena>,
    /// Absolute sequence position of this run's first query column. Zero
    /// for full-sequence forwards; a decode step sets it to the current
    /// token position, shifting every causal softmax's visibility window
    /// (`visible = pos + local_query + 1`) over the cache-capacity key
    /// axis.
    pub pos: usize,
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions {
            dropout_p: 0.0,
            activation: ActivationKind::Relu,
            scaler: 1.0,
            threads: 1,
            seed: 0x5eed,
            collect_activations: true,
            sanitize: SanitizeMode::Env,
            profiler: None,
            plan: None,
            arena: None,
            pos: 0,
        }
    }
}

impl<'p> ExecOptions<'p> {
    /// Starts a builder at the defaults. The builder is the supported
    /// construction surface: `ExecOptions` is `#[non_exhaustive]`, so
    /// downstream crates cannot use struct literals (and the repo
    /// convention is to avoid them in-tree too), which lets new execution
    /// knobs land without touching call sites.
    pub fn builder() -> ExecOptionsBuilder<'p> {
        ExecOptionsBuilder {
            opts: ExecOptions::default(),
        }
    }

    /// A builder seeded from this value, for deriving a variant of an
    /// existing configuration (`opts.to_builder().threads(1).build()`).
    pub fn to_builder(&self) -> ExecOptionsBuilder<'p> {
        ExecOptionsBuilder { opts: *self }
    }
}

/// Builder for [`ExecOptions`]; see [`ExecOptions::builder`]. Every setter
/// maps to the field of the same name.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptionsBuilder<'p> {
    opts: ExecOptions<'p>,
}

impl<'p> ExecOptionsBuilder<'p> {
    /// Sets the dropout probability.
    pub fn dropout_p(mut self, p: f32) -> Self {
        self.opts.dropout_p = p;
        self
    }

    /// Sets the activation behind `Relu`-kind nodes.
    pub fn activation(mut self, a: ActivationKind) -> Self {
        self.opts.activation = a;
        self
    }

    /// Sets the softmax scale (attention `1/√P`).
    pub fn scaler(mut self, s: f32) -> Self {
        self.opts.scaler = s;
        self
    }

    /// Sets the worker thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.opts.threads = n;
        self
    }

    /// Sets the dropout RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.opts.seed = s;
        self
    }

    /// Sets whether layer forwards assemble the saved-activation bundle.
    pub fn collect_activations(mut self, yes: bool) -> Self {
        self.opts.collect_activations = yes;
        self
    }

    /// Sets the sanitizer routing.
    pub fn sanitize(mut self, mode: SanitizeMode) -> Self {
        self.opts.sanitize = mode;
        self
    }

    /// Sets the profiler sink.
    pub fn profiler(mut self, sink: Option<&'p crate::profile::ProfilerSink>) -> Self {
        self.opts.profiler = sink;
        self
    }

    /// Sets a plan override.
    pub fn plan(mut self, plan: Option<PlanOverride<'p>>) -> Self {
        self.opts.plan = plan;
        self
    }

    /// Sets the compiled arena.
    pub fn arena(mut self, arena: Option<&'p crate::arena::CompiledArena>) -> Self {
        self.opts.arena = arena;
        self
    }

    /// Sets the absolute decode position of the first query column.
    pub fn pos(mut self, pos: usize) -> Self {
        self.opts.pos = pos;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> ExecOptions<'p> {
        self.opts
    }
}

/// The classes of fused forward kernels the interpreter can dispatch,
/// recovered from a fused node's member names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FusedClass {
    /// Q/K/V input biases over the stacked projection (AIB).
    InputBias,
    /// Scaling + softmax + dropout (SM), causal when a member is masked.
    Softmax { causal: bool },
    /// Bias + dropout + residual + layernorm (DRLN/BDRLN).
    BiasDropResidualNorm,
    /// Bias + activation + dropout (BRD).
    BiasActDrop,
    /// Bias + dropout + residual without a norm (the decoder's BDR).
    BiasDropResidual,
    /// A singleton layer-norm group.
    Norm,
}

pub(crate) fn classify_fused(parts: &[String]) -> Option<FusedClass> {
    let any = |f: &dyn Fn(&str) -> bool| parts.iter().any(|p| f(p));
    // gradient members mark a backward fused kernel — not interpretable
    if any(&|p| p.contains(" dX") || p.contains(" dW")) {
        return None;
    }
    if any(&|p| p.contains("softmax")) {
        return Some(FusedClass::Softmax {
            causal: any(&|p| p.contains("Masked")),
        });
    }
    if any(&|p| p.starts_with("LayerNorm")) {
        return Some(if parts.len() == 1 {
            FusedClass::Norm
        } else {
            FusedClass::BiasDropResidualNorm
        });
    }
    if any(&|p| p.contains("ReLU") || p.contains("GELU")) {
        return Some(FusedClass::BiasActDrop);
    }
    if any(&|p| p.starts_with("Residual")) {
        return Some(FusedClass::BiasDropResidual);
    }
    if !parts.is_empty() && parts.iter().all(|p| p.starts_with("Input bias")) {
        return Some(FusedClass::InputBias);
    }
    None
}

/// Whether the interpreter can execute this operator kind standalone (the
/// forward half of the graph). Backward kernels need gradient plumbing the
/// schedule interpreter does not model.
pub fn step_is_interpretable(kind: &OpKind, _name: &str) -> bool {
    match kind {
        OpKind::Einsum(_)
        | OpKind::Bias { .. }
        | OpKind::Scale
        | OpKind::Softmax { .. }
        | OpKind::LayerNorm { .. }
        | OpKind::Dropout
        | OpKind::Relu
        | OpKind::Residual => true,
        OpKind::Fused { parts, .. } | OpKind::ContractionEpilogue { parts, .. } => {
            classify_fused(parts).is_some()
        }
        _ => false,
    }
}

/// Causal-query recovery for a masked softmax along `axis` of `shape`: the
/// query axis immediately precedes the softmax axis, so a lane index maps
/// to its query as `(lane / div) % len`.
pub(crate) fn causal_map_of(shape: &Shape, axis: Axis) -> Option<CausalMap> {
    let ai = shape.index_of(axis).ok()?;
    let q = causal_query_axis(shape, axis).ok()?;
    let qi = shape.index_of(q).ok()?;
    if qi >= ai {
        return None;
    }
    let div: usize = shape.sizes()[qi + 1..ai].iter().product();
    Some(CausalMap {
        div,
        len: shape.sizes()[qi],
        base: 0,
    })
}

/// The compiled tiling geometry of a GEMM-epilogue mega-kernel: the
/// identity-scatter contraction plan (operands possibly swapped so the
/// GEMM's M axis is the epilogue's row axis), the output-tile height, and
/// the epilogue's class and causal map.
#[derive(Debug, Clone)]
pub(crate) struct EpilogueGeom {
    /// Gather/GEMM plan whose scatter is the identity over the output
    /// container (row-major).
    pub plan: ContractPlan,
    /// When set, the step's second input feeds the GEMM's A pack.
    pub swapped: bool,
    /// Output rows per tile. Softmax epilogues take the whole batch slice
    /// (`m`) so every lane is complete inside one tile.
    pub tile_rows: usize,
    /// Causal mask recovery for masked-softmax epilogues.
    pub causal: Option<CausalMap>,
    /// The downstream chain's kernel class.
    pub class: FusedClass,
}

/// Target tile footprint in words for row-blocked (bias-class) epilogues:
/// small enough to stay cache-hot, large enough to amortize the loop.
const EPILOGUE_TILE_WORDS: usize = 4096;

/// Derives the tiling geometry of a [`OpKind::ContractionEpilogue`] step
/// from container shapes, or `None` when the chain is not tileable:
///
/// * the contraction must scatter identically (possibly after swapping
///   GEMM operand roles) into the row-major output container;
/// * a softmax epilogue's reduce axis must be the container's innermost
///   axis and span exactly the GEMM's N extent, with the causal query (if
///   masked) immediately preceding it;
/// * a bias-carrying epilogue must be batch-free with the bias covering
///   exactly the leading M axes, so each output row sees one bias word.
///
/// Shared by the fusion detector, the allocating interpreter, and the
/// arena precompiler, so all three agree on what lowers.
#[allow(clippy::too_many_arguments)] // mirrors the chain's operand inventory
pub(crate) fn epilogue_geometry(
    spec: &EinsumSpec,
    parts: &[String],
    reduce_axis: Option<Axis>,
    a_c: &Shape,
    b_c: &Shape,
    out_c: &Shape,
    bias: Option<&Shape>,
    residual: Option<&Shape>,
) -> Option<EpilogueGeom> {
    let class = classify_fused(parts)?;
    let ops = spec.operands();
    if ops.len() != 2 {
        return None;
    }
    // relabel the operands' container shapes positionally to the spec's
    // letters, as the interpreters do before contracting
    let relabel = |axes: &[Axis], c: &Shape| -> Option<Shape> {
        if axes.len() != c.rank() {
            return None;
        }
        let dims: Vec<(char, usize)> = axes.iter().zip(c.sizes()).map(|(a, &s)| (a.0, s)).collect();
        Shape::new(dims).ok()
    };
    let a_s = relabel(&ops[0], a_c)?;
    let b_s = relabel(&ops[1], b_c)?;
    let size_of = |ax: Axis| -> Option<usize> { a_s.size(ax).or_else(|_| b_s.size(ax)).ok() };
    let lbl_dims: Vec<(char, usize)> = spec
        .output()
        .iter()
        .map(|&ax| size_of(ax).map(|s| (ax.0, s)))
        .collect::<Option<Vec<_>>>()?;
    let lbl = Shape::new(lbl_dims).ok()?;
    if lbl.sizes() != out_c.sizes() {
        return None;
    }
    let rm = |s: &Shape| Layout::row_major(s.rank()).strides(s);
    let ep = epilogue_contract_plan(spec, &a_s, &rm(&a_s), &b_s, &rm(&b_s), &lbl)?;
    let (m, n) = (ep.plan.m, ep.plan.n);
    match class {
        FusedClass::Softmax { causal } => {
            let axis = reduce_axis?;
            if *out_c.axes().last()? != axis || *out_c.sizes().last()? != n {
                return None;
            }
            let cm = if causal {
                let c = causal_map_of(out_c, axis)?;
                // the tile driver indexes lanes tile-locally; anything
                // between the query and softmax axes would break that
                if c.div != 1 {
                    return None;
                }
                Some(c)
            } else {
                None
            };
            Some(EpilogueGeom {
                plan: ep.plan,
                swapped: ep.swapped,
                tile_rows: m,
                causal: cm,
                class,
            })
        }
        FusedClass::BiasActDrop | FusedClass::BiasDropResidual => {
            if ep.plan.batch != 1 {
                return None;
            }
            let bias = bias?;
            let r = bias.rank();
            if r == 0
                || r > out_c.rank()
                || out_c.axes()[..r] != *bias.axes()
                || out_c.sizes()[..r] != *bias.sizes()
                || bias.num_elements() != m
            {
                return None;
            }
            if matches!(class, FusedClass::BiasDropResidual) {
                let res = residual?;
                if res.sizes() != out_c.sizes() {
                    return None;
                }
            }
            let tile_rows = (EPILOGUE_TILE_WORDS / n.max(1)).clamp(1, m.max(1));
            Some(EpilogueGeom {
                plan: ep.plan,
                swapped: ep.swapped,
                tile_rows,
                causal: None,
                class,
            })
        }
        _ => None,
    }
}

fn axes_string(axes: &[Axis]) -> String {
    axes.iter().map(|a| a.name()).collect()
}

/// Relabels `t` to `spec` when the axis letters differ (positional rename,
/// sizes unchanged).
fn relabeled(t: &Tensor, spec: &str) -> Result<Tensor> {
    if t.shape().spec() == spec {
        Ok(t.clone())
    } else {
        t.relabel(spec)
    }
}

/// The causal query axis for a masked softmax: the logical axis immediately
/// preceding the softmax axis (attention scores are `[..., j, k]`).
pub(crate) fn causal_query_axis(shape: &Shape, softmax_axis: Axis) -> Result<Axis> {
    let ai = shape.index_of(softmax_axis)?;
    if ai == 0 {
        return Err(TensorError::Unsupported(
            "masked softmax axis has no preceding query axis".into(),
        ));
    }
    Ok(shape.axes()[ai - 1])
}

/// The slice start row of a stacked-Q/K/V carve for the step named
/// `name` (`"Input bias Q/K/V"`), given the stacked container's outermost
/// extent `total` and the projection's extent `len`: Q sits at the front,
/// K right after the (equal-sized) Q block, V at the tail. `None` when
/// the name ends in none of the three projection letters. Shared between
/// the interpreter's dispatch and the footprint oracle of
/// [`crate::sanitize`], so the certifier checks exactly the interval the
/// kernel slices.
pub(crate) fn stacked_carve_start(name: &str, total: usize, len: usize) -> Option<usize> {
    match name.chars().last() {
        Some('Q') => Some(0),
        Some('K') => Some(len),
        Some('V') => Some(total - len),
        _ => None,
    }
}

/// Carves the `index`-th projection out of a stacked Q/K/V tensor: slice
/// `len` rows starting at `start` along the stacking axis (always the
/// first), then relabel to the destination container's axes.
fn carve_stacked(stacked: &Tensor, start: usize, out_shape: &Shape) -> Result<Tensor> {
    let axis0 = stacked.shape().axes()[0];
    let len = out_shape.sizes()[0];
    stacked
        .slice_range(axis0, start, len)?
        .relabel(&out_shape.spec())
}

/// Runs one scheduled step against the interpreter state: applies the
/// step's relayout insertions, dispatches the kernel, and materializes each
/// output in its declared layout.
///
/// # Errors
///
/// Returns an error if a consumed container is missing, the operator kind
/// is not interpretable (backward kernels), or a kernel rejects its
/// operands.
pub fn execute_step<R: Rng + ?Sized>(
    graph: &Graph,
    step: &PlanStep,
    state: &mut ExecState,
    opts: &ExecOptions,
    rng: &mut R,
) -> Result<()> {
    // explicit transposes first
    for r in &step.relayouts {
        let t = state.get(&r.name)?;
        let lay = Layout::from_axis_order(t.shape(), &r.to)?;
        let moved = t.relayout(&lay);
        state.env.insert(r.name.clone(), moved);
    }

    let ins: Vec<Tensor> = step
        .inputs
        .iter()
        .map(|o| state.get(&o.name).cloned())
        .collect::<Result<Vec<_>>>()?;

    let out_shape =
        |k: usize| -> Result<Shape> { Ok(data_of(graph, step.outputs[k].data)?.shape.clone()) };

    let p = opts.dropout_p;
    let drop = |x: &Tensor, rng: &mut R| -> (Tensor, Tensor) {
        if p > 0.0 {
            dropout(x, p, rng)
        } else {
            dropout_disabled(x)
        }
    };

    // (value, index into step.outputs) pairs, plus any layer-norm stats
    let mut results: Vec<Tensor> = Vec::with_capacity(step.outputs.len());
    let mut ln_stats: Option<(usize, LayerNormStats)> = None;

    match &step.kind {
        OpKind::Einsum(spec) => {
            let operand_axes = spec.operands();
            match ins.len() {
                2 => {
                    let a = relabeled(&ins[0], &axes_string(&operand_axes[0]))?;
                    let b = relabeled(&ins[1], &axes_string(&operand_axes[1]))?;
                    // build the contraction's output shape in einsum labels
                    // and translate the declared (container-letter) layout
                    // onto it positionally
                    let dims: Vec<(Axis, usize)> = spec
                        .output()
                        .iter()
                        .map(|&ax| {
                            let n = a
                                .shape()
                                .index_of(ax)
                                .map(|i| a.shape().sizes()[i])
                                .or_else(|_| b.shape().index_of(ax).map(|i| b.shape().sizes()[i]))?;
                            Ok((ax, n))
                        })
                        .collect::<Result<Vec<_>>>()?;
                    let lbl_shape = Shape::new(dims)?;
                    let container_spec = out_shape(0)?.spec();
                    let declared = translate_layout(
                        &step.outputs[0].layout,
                        &container_spec,
                        &lbl_shape.spec(),
                    );
                    let lay = Layout::from_axis_order(&lbl_shape, &declared)
                        .unwrap_or_else(|_| Layout::row_major(lbl_shape.rank()));
                    let out = xform_tensor::contract::contract(spec, &a, &b, &lay)?;
                    results.push(relabeled(&out, &container_spec)?);
                }
                1 => {
                    let a = relabeled(&ins[0], &axes_string(&operand_axes[0]))?;
                    let out = xform_tensor::einsum(&spec.to_string(), &[&a])?;
                    results.push(relabeled(&out, &out_shape(0)?.spec())?);
                }
                n => {
                    return Err(TensorError::Unsupported(format!(
                        "einsum `{}` with {n} operands",
                        step.name
                    )))
                }
            }
        }
        OpKind::Bias { .. } => {
            let x = &ins[0];
            let shape = out_shape(0)?;
            if x.shape().sizes() != shape.sizes() || x.shape().spec() != shape.spec() {
                // stacked-projection slice (`Input bias Q/K/V`): carve the
                // per-projection rows out of the stacked activation. Q sits
                // at the front, K right after the (equal-sized) Q block, V
                // at the tail.
                let total = x.shape().sizes()[0];
                let len = shape.sizes()[0];
                let start = stacked_carve_start(&step.name, total, len).ok_or_else(|| {
                    TensorError::Unsupported(format!(
                        "bias `{}` has mismatched operand shapes",
                        step.name
                    ))
                })?;
                results.push(bias_add(&carve_stacked(x, start, &shape)?, &ins[1])?);
            } else {
                results.push(bias_add(x, &ins[1])?);
            }
        }
        OpKind::Scale => results.push(scale(&ins[0], opts.scaler)),
        OpKind::Softmax { axis } => {
            if step.name.contains("Masked") {
                let q = causal_query_axis(ins[0].shape(), *axis)?;
                let sm = fused::sm_causal_at(&ins[0], opts.scaler, q, *axis, 0.0, rng, opts.pos)?;
                results.push(sm.softmax);
            } else {
                results.push(softmax(&scale(&ins[0], opts.scaler), *axis)?);
            }
        }
        OpKind::LayerNorm { axis } => {
            let (out, stats) = layernorm(&ins[0], *axis, &ins[1], &ins[2])?;
            ln_stats = Some((0, stats));
            results.push(out);
        }
        OpKind::Dropout => {
            let (out, mask) = drop(&ins[0], rng);
            results.push(out);
            results.push(mask);
        }
        OpKind::Relu => results.push(xform_tensor::ops::elementwise::activate(
            &ins[0],
            opts.activation,
        )),
        OpKind::Residual => results.push(add(&ins[0], &ins[1])?),
        OpKind::Fused {
            parts, reduce_axis, ..
        } => {
            let class = classify_fused(parts).ok_or_else(|| {
                TensorError::Unsupported(format!(
                    "fused kernel `{}` is not a forward kernel the interpreter knows",
                    step.name
                ))
            })?;
            match class {
                FusedClass::InputBias => {
                    // inputs [stacked, bq, bk, bv] → outputs [qq, kk, vv]
                    let mut start = 0usize;
                    for k in 0..step.outputs.len() {
                        let shape = out_shape(k)?;
                        results.push(bias_add(&carve_stacked(&ins[0], start, &shape)?, &ins[k + 1])?);
                        start += shape.sizes()[0];
                    }
                }
                FusedClass::Softmax { causal } => {
                    let axis = reduce_axis.ok_or_else(|| {
                        TensorError::Unsupported("fused softmax lost its reduce axis".into())
                    })?;
                    let sm = if causal {
                        let q = causal_query_axis(ins[0].shape(), axis)?;
                        fused::sm_causal_at(&ins[0], opts.scaler, q, axis, p, rng, opts.pos)?
                    } else {
                        fused::sm(&ins[0], opts.scaler, axis, p, rng)?
                    };
                    // outputs [att (saved softmax), alpha, att_mask]
                    results.push(sm.softmax);
                    results.push(sm.alpha);
                    results.push(sm.mask);
                }
                FusedClass::BiasDropResidualNorm => {
                    let axis = reduce_axis.ok_or_else(|| {
                        TensorError::Unsupported("fused layernorm lost its reduce axis".into())
                    })?;
                    // inputs [x, bias, residual, gamma, beta] →
                    // outputs [mask, ln_input, out]
                    let r = fused::bdrln(&ins[0], &ins[1], &ins[2], &ins[3], &ins[4], axis, p, rng)?;
                    ln_stats = Some((2, r.stats));
                    results.push(r.mask);
                    results.push(r.ln_input);
                    results.push(r.out);
                }
                FusedClass::BiasActDrop => {
                    // inputs [x, bias] → outputs [pre_activation, out, mask]
                    let r = fused::brd_act(&ins[0], &ins[1], opts.activation, p, rng)?;
                    results.push(r.pre_activation);
                    results.push(r.out);
                    results.push(r.mask);
                }
                FusedClass::BiasDropResidual => {
                    // inputs [x, bias, residual] → outputs [mask, out]
                    let biased = bias_add(&ins[0], &ins[1])?;
                    let (dropped, mask) = drop(&biased, rng);
                    results.push(mask);
                    results.push(add(&dropped, &ins[2])?);
                }
                FusedClass::Norm => {
                    let axis = reduce_axis.ok_or_else(|| {
                        TensorError::Unsupported("fused layernorm lost its reduce axis".into())
                    })?;
                    let (out, stats) = layernorm(&ins[0], axis, &ins[1], &ins[2])?;
                    ln_stats = Some((0, stats));
                    results.push(out);
                }
            }
        }
        OpKind::ContractionEpilogue {
            spec,
            parts,
            reduce_axis,
            ..
        } => {
            if ins.len() < 2 {
                return Err(TensorError::Unsupported(format!(
                    "epilogue `{}` needs a two-operand contraction",
                    step.name
                )));
            }
            let a_c = data_of(graph, step.inputs[0].data)?.shape.clone();
            let b_c = data_of(graph, step.inputs[1].data)?.shape.clone();
            let out_c = out_shape(0)?;
            let shape_at = |k: usize| -> Result<Option<Shape>> {
                step.inputs
                    .get(k)
                    .map(|o| Ok(data_of(graph, o.data)?.shape.clone()))
                    .transpose()
            };
            let bias_s = shape_at(2)?;
            let res_s = shape_at(3)?;
            let geom = epilogue_geometry(
                spec,
                parts,
                *reduce_axis,
                &a_c,
                &b_c,
                &out_c,
                bias_s.as_ref(),
                res_s.as_ref(),
            )
            .ok_or_else(|| {
                TensorError::Unsupported(format!(
                    "epilogue `{}` has no tileable lowering",
                    step.name
                ))
            })?;
            // the tile driver walks raw row-major words, so materialize
            // every operand densely first
            let dense = |t: &Tensor| -> Tensor {
                if t.layout().spec(t.shape()) == t.shape().spec() {
                    t.clone()
                } else {
                    t.relayout(&Layout::row_major(t.shape().rank()))
                }
            };
            let ins_d: Vec<Tensor> = ins.iter().map(&dense).collect();
            let (ga, gb) = if geom.swapped {
                (&ins_d[1], &ins_d[0])
            } else {
                (&ins_d[0], &ins_d[1])
            };
            let total = out_c.num_elements();
            let mut a_pack = vec![0.0f32; geom.plan.a_words()];
            let mut b_pack = vec![0.0f32; geom.plan.b_words()];
            let mut c_tile = vec![0.0f32; geom.tile_rows * geom.plan.n];
            let mut run = |epi: &mut TileEpilogue<'_>, rng: &mut R| {
                contract_epilogue_tiled(
                    &geom.plan,
                    geom.tile_rows,
                    ga.data(),
                    gb.data(),
                    &mut a_pack,
                    &mut b_pack,
                    &mut c_tile,
                    p,
                    rng,
                    epi,
                );
            };
            match geom.class {
                FusedClass::Softmax { .. } if step.outputs.len() == 3 => {
                    // outputs [softmax, alpha, mask]
                    let (mut sm_o, mut al_o, mut mk_o) =
                        (vec![0.0f32; total], vec![0.0f32; total], vec![0.0f32; total]);
                    run(
                        &mut TileEpilogue::Softmax {
                            scaler: opts.scaler,
                            causal: geom.causal.map(|c| c.at(c.base + opts.pos)),
                            softmax: &mut sm_o,
                            alpha: &mut al_o,
                            mask: &mut mk_o,
                        },
                        rng,
                    );
                    results.push(Tensor::from_vec(out_shape(0)?, sm_o)?);
                    results.push(Tensor::from_vec(out_shape(1)?, al_o)?);
                    results.push(Tensor::from_vec(out_shape(2)?, mk_o)?);
                }
                FusedClass::BiasActDrop if ins.len() == 3 && step.outputs.len() == 3 => {
                    // inputs [a, b, bias] → outputs [pre_activation, out, mask]
                    let bmap = BiasMap {
                        dims: vec![(geom.plan.n, geom.plan.m, 1)],
                    };
                    let (mut pre_o, mut out_o, mut mk_o) =
                        (vec![0.0f32; total], vec![0.0f32; total], vec![0.0f32; total]);
                    run(
                        &mut TileEpilogue::BiasActDrop {
                            bias: ins_d[2].data(),
                            bmap: &bmap,
                            kind: opts.activation,
                            pre_activation: &mut pre_o,
                            out: &mut out_o,
                            mask: &mut mk_o,
                        },
                        rng,
                    );
                    results.push(Tensor::from_vec(out_shape(0)?, pre_o)?);
                    results.push(Tensor::from_vec(out_shape(1)?, out_o)?);
                    results.push(Tensor::from_vec(out_shape(2)?, mk_o)?);
                }
                FusedClass::BiasDropResidual if ins.len() == 4 && step.outputs.len() == 2 => {
                    // inputs [a, b, bias, residual] → outputs [mask, out]
                    let bmap = BiasMap {
                        dims: vec![(geom.plan.n, geom.plan.m, 1)],
                    };
                    let (mut mk_o, mut out_o) = (vec![0.0f32; total], vec![0.0f32; total]);
                    run(
                        &mut TileEpilogue::BiasDropResidual {
                            bias: ins_d[2].data(),
                            bmap: &bmap,
                            residual: ins_d[3].data(),
                            mask: &mut mk_o,
                            out: &mut out_o,
                        },
                        rng,
                    );
                    results.push(Tensor::from_vec(out_shape(0)?, mk_o)?);
                    results.push(Tensor::from_vec(out_shape(1)?, out_o)?);
                }
                _ => {
                    return Err(TensorError::Unsupported(format!(
                        "epilogue `{}` has mismatched operand counts",
                        step.name
                    )))
                }
            }
        }
        other => {
            return Err(TensorError::Unsupported(format!(
                "operator `{}` ({other:?}) is a backward kernel; the schedule interpreter is forward-only",
                step.name
            )))
        }
    }

    if results.len() != step.outputs.len() {
        return Err(TensorError::Unsupported(format!(
            "`{}` produced {} tensors for {} outputs",
            step.name,
            results.len(),
            step.outputs.len()
        )));
    }
    if let Some((k, stats)) = ln_stats {
        state.stats.insert(step.outputs[k].name.clone(), stats);
    }
    for (operand, mut t) in step.outputs.iter().zip(results) {
        // materialize in the declared layout
        let have = t.layout().spec(t.shape());
        if have != operand.layout {
            let lay = Layout::from_axis_order(t.shape(), &operand.layout)?;
            t = t.relayout(&lay);
        }
        state.env.insert(operand.name.clone(), t);
    }
    Ok(())
}

/// Interprets a whole schedule: checks it statically, then executes every
/// step in order against `state`. On success the state's environment holds
/// every container the plan produced, materialized in the plan's layouts.
///
/// Depending on [`ExecOptions::sanitize`] (by default: `XFORM_SANITIZE`
/// set to anything but empty/`0`/`false`/`off`/`no` in the environment),
/// execution routes through the shadow-access sanitizer
/// ([`crate::sanitize::execute_plan_sanitized`]): same kernels, same RNG
/// draws, bitwise-identical results, but every step's actual footprint is
/// checked against its declaration and every wave is checked for
/// conflicting access.
///
/// With [`ExecOptions::profiler`] set, every step's wall-clock time is
/// recorded into the sink (under the sanitizer, timings include tracing
/// overhead and are flagged as such).
///
/// # Errors
///
/// Returns an error if [`ExecutionPlan::check`] reports any
/// error-severity lint or any step fails.
pub fn execute_plan<R: Rng + ?Sized>(
    graph: &Graph,
    plan: &ExecutionPlan,
    state: &mut ExecState,
    opts: &ExecOptions,
    rng: &mut R,
) -> Result<()> {
    let problems: Vec<String> = plan
        .check(graph)
        .into_iter()
        .filter(|l| l.severity() == crate::analyze::Severity::Error)
        .map(|l| l.to_string())
        .collect();
    if !problems.is_empty() {
        return Err(TensorError::Unsupported(format!(
            "invalid execution plan: {}",
            problems.join("; ")
        )));
    }
    if let Some(arena) = opts.arena {
        // resolve the sanitize mode without touching the environment (an
        // env read allocates; Env is cached once per process here)
        let sanitize = match opts.sanitize {
            SanitizeMode::Off => false,
            SanitizeMode::On => true,
            SanitizeMode::Env => crate::arena::env_sanitize_cached(),
        };
        if opts.profiler.is_none() && arena.matches(plan) {
            let run = crate::arena::ArenaRun {
                dropout_p: opts.dropout_p,
                activation: opts.activation,
                scaler: opts.scaler,
                seed: opts.seed,
                threads: 1,
                sanitize,
                pos: opts.pos,
            };
            match arena.run_with_state(state, &run)? {
                crate::arena::ArenaOutcome::Ran => return Ok(()),
                crate::arena::ArenaOutcome::Busy => {}
            }
        }
    }
    if opts.sanitize.enabled() {
        return crate::sanitize::execute_plan_sanitized(graph, plan, state, opts, rng, None);
    }
    for (si, step) in plan.steps.iter().enumerate() {
        let t0 = opts.profiler.map(|_| std::time::Instant::now());
        execute_step(graph, step, state, opts, rng)?;
        if let (Some(sink), Some(t0)) = (opts.profiler, t0) {
            let us = t0.elapsed().as_secs_f64() * 1e6;
            crate::profile::record_step(sink, graph, step, si, None, us, false);
        }
    }
    Ok(())
}

/// Binds a random tensor (seeded, uniform in `[-1, 1]`) for every plan
/// input that no earlier step produces — graph inputs and weights — each
/// materialized in the layout the consuming step declared. This is how the
/// measurement source and tests stand up an environment without a model's
/// real parameters.
///
/// # Errors
///
/// Returns an error if a referenced container is dead or a layout spec is
/// invalid.
pub fn random_externals(graph: &Graph, plan: &ExecutionPlan, seed: u64) -> Result<ExecState> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = rand::distributions::Uniform::new(-1.0f32, 1.0);
    let mut state = ExecState::default();
    let mut produced: HashSet<NodeId> = HashSet::new();
    for step in &plan.steps {
        for inp in &step.inputs {
            if produced.contains(&inp.data) || state.env.contains_key(&inp.name) {
                continue;
            }
            let shape = data_of(graph, inp.data)?.shape.clone();
            let lay = Layout::from_axis_order(&shape, &inp.layout)?;
            let t = Tensor::random(shape, &dist, &mut rng).relayout(&lay);
            state.env.insert(inp.name.clone(), t);
        }
        for out in &step.outputs {
            produced.insert(out.data);
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::recipe::forward_ops;
    use crate::selection::select_forward;
    use crate::sweep::{sweep_all, SimulatorSource, SweepOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xform_dataflow::{build, EncoderDims};
    use xform_gpusim::DeviceSpec;

    fn unfused() -> (xform_dataflow::Graph, NodeId) {
        let eg = build::encoder(&EncoderDims::tiny());
        (eg.graph, eg.dy)
    }

    fn fused() -> (xform_dataflow::Graph, NodeId) {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        (g, eg.dy)
    }

    fn error_lints(plan: &ExecutionPlan, g: &xform_dataflow::Graph) -> Vec<String> {
        plan.check(g)
            .into_iter()
            .filter(|l| l.severity() == crate::analyze::Severity::Error)
            .map(|l| l.to_string())
            .collect()
    }

    fn run_forward(graph: &xform_dataflow::Graph, plan: &ExecutionPlan, seed: u64) -> ExecState {
        let mut state = random_externals(graph, plan, seed).unwrap();
        let opts = ExecOptions::builder().scaler(1.0 / (3f32).sqrt()).build();
        let mut rng = StdRng::seed_from_u64(99);
        execute_plan(graph, plan, &mut state, &opts, &mut rng).unwrap();
        state
    }

    #[test]
    fn natural_plan_over_unfused_graph_executes() {
        let (g, dy) = unfused();
        let plan = ExecutionPlan::natural(&g, &forward_ops(&g, dy)).unwrap();
        assert!(error_lints(&plan, &g).is_empty());
        assert_eq!(plan.relayout_count(), 0);
        let state = run_forward(&g, &plan, 7);
        let y = state.get("y").unwrap();
        assert_eq!(y.shape().spec(), "ibj");
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert!(state.stats.contains_key("ln1_out"));
        assert!(state.stats.contains_key("y"));
    }

    #[test]
    fn fused_and_unfused_natural_plans_agree() {
        let (gu, dyu) = unfused();
        let (gf, dyf) = fused();
        let pu = ExecutionPlan::natural(&gu, &forward_ops(&gu, dyu)).unwrap();
        let pf = ExecutionPlan::natural(&gf, &forward_ops(&gf, dyf)).unwrap();
        let yu = run_forward(&gu, &pu, 13).take("y").unwrap();
        let yf = run_forward(&gf, &pf, 13).take("y").unwrap();
        assert!(yu.max_abs_diff(&yf).unwrap() < 1e-5);
    }

    #[test]
    fn lowered_selection_executes_and_matches_natural() {
        let (g, dy) = fused();
        let fwd = forward_ops(&g, dy);
        let sweeps = sweep_all(
            &SimulatorSource::default(),
            &g,
            SweepOptions {
                max_configs: Some(500),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let sel = select_forward(&g, &DeviceSpec::v100(), &fwd, &sweeps).unwrap();
        let plan = ExecutionPlan::lower(&g, &sel).unwrap();
        assert!(
            error_lints(&plan, &g).is_empty(),
            "{:?}",
            error_lints(&plan, &g)
        );
        let natural = ExecutionPlan::natural(&g, &fwd).unwrap();
        let y_sel = run_forward(&g, &plan, 21).take("y").unwrap();
        let y_nat = run_forward(&g, &natural, 21).take("y").unwrap();
        assert!(y_sel.max_abs_diff(&y_nat).unwrap() < 1e-4);
    }

    #[test]
    fn check_rejects_layout_tampering_and_missing_producers() {
        use crate::analyze::PlanLint;
        let (g, dy) = unfused();
        let fwd = forward_ops(&g, dy);
        let mut plan = ExecutionPlan::natural(&g, &fwd).unwrap();
        // non-permutation layout
        let idx = plan
            .steps
            .iter()
            .position(|s| s.name == "QKT")
            .expect("QKT scheduled");
        plan.steps[idx].inputs[0].layout = "zzzz".into();
        assert!(plan
            .check(&g)
            .iter()
            .any(|l| matches!(l, PlanLint::BadLayout { .. })));
        // coherent permutation but stale relayouts → layout mismatch
        plan.steps[idx].inputs[0].layout = "kbhp".into();
        assert!(plan
            .check(&g)
            .iter()
            .any(|l| matches!(l, PlanLint::LayoutIncoherent { .. })));
        // reflow repairs it
        plan.reflow(&g);
        assert!(error_lints(&plan, &g).is_empty());
        // dropping a producer step is caught
        let mut broken = ExecutionPlan::natural(&g, &fwd).unwrap();
        broken.steps.retain(|s| s.name != "QKT");
        assert!(broken
            .check(&g)
            .iter()
            .any(|l| matches!(l, PlanLint::UseBeforeDef { .. })));
    }

    #[test]
    fn permuted_layouts_reflow_and_execute_identically() {
        let (g, dy) = unfused();
        let fwd = forward_ops(&g, dy);
        let natural = ExecutionPlan::natural(&g, &fwd).unwrap();
        let mut permuted = natural.clone();
        for step in &mut permuted.steps {
            for operand in step.inputs.iter_mut().chain(step.outputs.iter_mut()) {
                operand.layout = operand.layout.chars().rev().collect();
            }
        }
        permuted.reflow(&g);
        assert!(error_lints(&permuted, &g).is_empty());
        assert!(permuted.relayout_count() > 0);
        let y_nat = run_forward(&g, &natural, 5).take("y").unwrap();
        let y_perm = run_forward(&g, &permuted, 5).take("y").unwrap();
        assert!(y_nat.max_abs_diff(&y_perm).unwrap() < 1e-5);
    }
}
