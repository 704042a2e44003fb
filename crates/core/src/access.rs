//! The access-path certifier: symbolic abstract interpretation over a
//! schedule that proves, per step, where every kernel access lands.
//!
//! For each scheduled step the certifier derives the exact index-affine
//! access path of every operand — base offset, per-loop-dimension
//! `(extent, stride)` pairs, innermost loop last — from the *graph* (shapes,
//! edges, operator kind) and the interpreter's dispatch rules, exactly the
//! way [`crate::sanitize::step_footprint`] derives element spans. It then
//! proves three properties:
//!
//! 1. **in-bounds** — every read/write lands inside the declared operand's
//!    buffer (and, at arena level, inside its slab slot and the slab
//!    itself); a proven escape is a [`PlanLint::UnprovenAccess`] error;
//! 2. **unit-stride** — the innermost loop of every swept operand advances
//!    by one word under the declared (SSSP-selected) layout; an in-bounds
//!    but strided inner loop is a [`PlanLint::StridedInnerLoop`] warning:
//!    correct, but the step runs its kernel's strided general loop rather
//!    than the contiguous-row fast path;
//! 3. **alias-freedom** — no two operand paths of one step overlap with
//!    conflicting access kinds beyond what the race certificate already
//!    permits (shared reads).
//!
//! A clean pass yields an [`AccessCertificate`], carried alongside the
//! [`crate::sanitize::RaceCertificate`] and keyed to the plan by
//! [`crate::sanitize::plan_fingerprint`]. The arena compiler requires it
//! ([`crate::arena::CompiledArena::compile`] refuses a plan that does not
//! certify), and the shadow sanitizer re-checks the certified paths
//! against live buffers. It grants no kernel choice: every
//! [`xform_tensor::into_ops`] lane kernel picks its unit-stride fast path
//! from its own lane geometry, so the certificate is a safety proof only.
//!
//! Steps the certifier cannot model exactly (unknown operator kinds,
//! operand lists that disagree with the graph) degrade to conservative
//! whole-buffer paths: still sound for the bounds and aliasing checks, and
//! marked not `derived`.

use std::collections::HashMap;

use xform_dataflow::{Graph, NodeId, OpKind};
use xform_tensor::{Layout, Shape};

use crate::analyze::{ArenaAssignment, ArenaGranularity, PlanLint};
use crate::plan::{classify_fused, stacked_carve_start, ExecutionPlan, FusedClass, PlanStep};
use crate::sanitize::{plan_fingerprint, AccessKind};

/// An index-affine access path: the set of word offsets
/// `base + Σ iᵈ·strideᵈ` for `iᵈ < extentᵈ`, with the kernel's innermost
/// loop dimension last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPath {
    /// Constant word offset into the buffer (nonzero only for the
    /// stacked-Q/K/V carve).
    pub base: u64,
    /// `(extent, stride)` per loop dimension, innermost last.
    pub dims: Vec<(u64, u64)>,
}

impl AccessPath {
    /// A conservative whole-buffer path: one unit-stride dimension over
    /// `words` elements.
    pub fn flat(words: u64) -> AccessPath {
        AccessPath {
            base: 0,
            dims: vec![(words, 1)],
        }
    }

    /// One past the largest word offset the path can touch (`0` for an
    /// empty path).
    pub fn max_end(&self) -> u64 {
        if self.dims.iter().any(|&(n, _)| n == 0) {
            return 0;
        }
        self.base + self.dims.iter().map(|&(n, s)| (n - 1) * s).sum::<u64>() + 1
    }

    /// Stride of the innermost non-singleton loop dimension (`1` when all
    /// dimensions are singletons — a single element is trivially
    /// unit-stride).
    pub fn inner_stride(&self) -> u64 {
        self.dims
            .iter()
            .rev()
            .find(|&&(n, _)| n > 1)
            .map(|&(_, s)| s)
            .unwrap_or(1)
    }

    /// Number of distinct loop iterations (an upper bound on touched
    /// words; exact when strides don't collide).
    pub fn iterations(&self) -> u64 {
        self.dims.iter().map(|&(n, _)| n).product()
    }

    /// Distinct words the path touches: the product of its loop extents
    /// with stride-0 (revisiting) dimensions collapsed, clamped by the
    /// address span — exact for layout-derived sweeps, an upper bound
    /// otherwise. The footprint weight of one reference in the
    /// reuse-distance model ([`crate::cachemodel`]).
    pub fn distinct_words(&self) -> u64 {
        let prod: u64 = self
            .dims
            .iter()
            .map(|&(n, s)| if s == 0 { 1 } else { n.max(1) })
            .product();
        let span = self.max_end().saturating_sub(self.base);
        prod.min(span.max(u64::from(self.dims.is_empty())))
    }
}

/// One derived operand access of a scheduled step.
#[derive(Debug, Clone)]
pub struct OperandAccess {
    /// The declared operand's container.
    pub data: NodeId,
    /// The declared operand name (the environment slot the kernel binds).
    pub name: String,
    /// Access class (same taxonomy as the footprint oracle).
    pub kind: AccessKind,
    /// The derived affine path, in the container's word space.
    pub path: AccessPath,
    /// `true` when the kernel walks this operand with its inner loop —
    /// the operands that carry the unit-stride proof obligation. Gather
    /// operands (broadcast biases, per-lane weights, einsum packs) are
    /// bounds-checked but carry no stride obligation.
    pub swept: bool,
}

/// The derived accesses of one step plus whether the derivation was exact.
#[derive(Debug, Clone)]
pub struct StepAccesses {
    /// Every operand access the step performs.
    pub accesses: Vec<OperandAccess>,
    /// `true` when every path is exact; `false` when any operand degraded
    /// to a conservative whole-buffer path.
    pub derived: bool,
}

/// The per-step verdict of the certifier.
#[derive(Debug, Clone)]
pub struct StepAccessProof {
    /// Step index in the schedule.
    pub step: usize,
    /// The step's kernel name.
    pub name: String,
    /// Every derived path stays inside its buffer (and slab slot).
    pub in_bounds: bool,
    /// Every swept operand's innermost loop is unit-stride.
    pub unit_stride: bool,
    /// No conflicting intra-step overlap beyond shared reads.
    pub alias_free: bool,
    /// The derivation was exact (no conservative fallback paths).
    pub derived: bool,
}

/// Proof that every access of a plan is in-bounds and alias-free, with a
/// per-step unit-stride verdict. Produced only by a clean
/// [`certify_access`] / [`certify_access_arena`] pass and keyed to the
/// plan by [`plan_fingerprint`], so an edited schedule must be
/// re-certified.
#[derive(Debug, Clone)]
pub struct AccessCertificate {
    /// Fingerprint of the certified plan.
    pub plan_hash: u64,
    /// The arena granularity the slab embedding was proven for (`None`
    /// for the logical, buffer-level certificate).
    pub arena: Option<ArenaGranularity>,
    /// One proof per schedule step.
    pub steps: Vec<StepAccessProof>,
    /// Warning-severity lints found along the way (strided inner loops);
    /// error-severity lints abort certification instead.
    pub lints: Vec<PlanLint>,
}

/// `true` when two access kinds on overlapping words are a conflict.
/// Mirrors the race certifier's compatibility rule: shared reads are fine,
/// and a re-materialization may overlap concurrent reads of the same
/// values.
fn kinds_conflict(a: AccessKind, b: AccessKind) -> bool {
    !matches!(
        (a, b),
        (AccessKind::Read, AccessKind::Read)
            | (AccessKind::Read, AccessKind::Materialize)
            | (AccessKind::Materialize, AccessKind::Read)
    )
}

/// Exact sweep path of a whole container under a declared layout, with the
/// kernel's inner loop over logical axis `inner` placed last.
fn sweep_path(shape: &Shape, layout: &Layout, inner: usize) -> AccessPath {
    if shape.rank() == 0 {
        return AccessPath::flat(1);
    }
    let strides = layout.strides(shape);
    let mut dims: Vec<(u64, u64)> = shape
        .sizes()
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != inner)
        .map(|(i, &n)| (n as u64, strides[i] as u64))
        .collect();
    dims.push((shape.sizes()[inner] as u64, strides[inner] as u64));
    AccessPath { base: 0, dims }
}

/// Gather path of a broadcast bias swept by the output's iteration space:
/// one `(out_extent, bias_stride)` dimension per bias axis. `None` when a
/// bias axis is missing from the output or extents disagree.
fn bias_path(out: &Shape, bias: &Shape) -> Option<AccessPath> {
    let bias_strides = Layout::row_major(bias.rank()).strides(bias);
    let mut dims = Vec::with_capacity(bias.rank());
    for (bi, &ax) in bias.axes().iter().enumerate() {
        let p = out.index_of(ax).ok()?;
        if out.sizes()[p] != bias.sizes()[bi] {
            return None;
        }
        dims.push((out.sizes()[p] as u64, bias_strides[bi] as u64));
    }
    Some(AccessPath { base: 0, dims })
}

/// Derives the operand access paths of one scheduled step from the graph
/// and the interpreter's dispatch rules — deliberately not from the
/// declared operand list alone, so a declaration that disagrees with what
/// the kernel will actually sweep is bounds-checked against the sweep, not
/// against itself.
pub fn step_accesses(graph: &Graph, step: &PlanStep) -> StepAccesses {
    let mut acc: Vec<OperandAccess> = Vec::new();
    let mut derived = true;

    // relayouts: a full value read plus a full materialization, exact as
    // address sets (every word of the container on both sides)
    for r in &step.relayouts {
        let Some(d) = graph.data(r.data) else {
            derived = false;
            continue;
        };
        let words = d.shape.num_elements() as u64;
        for kind in [AccessKind::Read, AccessKind::Materialize] {
            acc.push(OperandAccess {
                data: r.data,
                name: r.name.clone(),
                kind,
                path: AccessPath::flat(words),
                swept: false,
            });
        }
    }

    let in_ids = graph.inputs_of(step.op);
    let out_ids = graph.outputs_of(step.op);
    let node = graph.op(step.op);

    // operand resolution: the sweep geometry comes from the graph edge at
    // the same position; the buffer bound and layout come from the
    // declared operand. A declaration that points at a different
    // container degrades to a conservative whole-sweep path bounded
    // against the declared buffer — which is exactly how an injected
    // out-of-bounds retarget is convicted.
    let decl_shape = |data: NodeId| graph.data(data).map(|d| d.shape.clone());
    let edge_at = |ids: &[NodeId], k: usize| ids.get(k).copied();

    // push one operand access; `inner` is the logical axis (of the edge
    // shape) the kernel's inner loop walks, `None` for gather operands
    #[allow(clippy::too_many_arguments)]
    fn push(
        acc: &mut Vec<OperandAccess>,
        derived: &mut bool,
        graph: &Graph,
        operand: &crate::plan::Operand,
        edge: Option<NodeId>,
        kind: AccessKind,
        inner: Option<usize>,
        explicit: Option<AccessPath>,
    ) {
        let decl = graph.data(operand.data).map(|d| d.shape.clone());
        let edge_shape = edge.and_then(|id| graph.data(id).map(|d| d.shape.clone()));
        let (path, swept) = match explicit {
            Some(p) => (p, false),
            None => {
                let exact = match (&decl, &edge_shape, edge) {
                    (Some(ds), Some(_), Some(id)) if id == operand.data => {
                        Layout::from_axis_order(ds, &operand.layout)
                            .ok()
                            .map(|lay| {
                                let ai = inner.unwrap_or(ds.rank().saturating_sub(1));
                                (
                                    sweep_path(ds, &lay, ai.min(ds.rank().saturating_sub(1))),
                                    inner.is_some() || ds.rank() > 0,
                                )
                            })
                    }
                    _ => None,
                };
                match exact {
                    Some((p, s)) => (p, s),
                    None => {
                        *derived = false;
                        let words = edge_shape
                            .as_ref()
                            .or(decl.as_ref())
                            .map(|s| s.num_elements() as u64)
                            .unwrap_or(0);
                        (AccessPath::flat(words), false)
                    }
                }
            }
        };
        acc.push(OperandAccess {
            data: operand.data,
            name: operand.name.clone(),
            kind,
            path,
            swept,
        });
    }

    // convenience wrappers over the positional operand lists
    macro_rules! read {
        ($k:expr, $inner:expr) => {
            if let Some(o) = step.inputs.get($k) {
                push(
                    &mut acc,
                    &mut derived,
                    graph,
                    o,
                    edge_at(in_ids.as_slice(), $k),
                    AccessKind::Read,
                    $inner,
                    None,
                );
            } else {
                derived = false;
            }
        };
    }
    macro_rules! write {
        ($k:expr, $inner:expr) => {
            if let Some(o) = step.outputs.get($k) {
                push(
                    &mut acc,
                    &mut derived,
                    graph,
                    o,
                    edge_at(out_ids.as_slice(), $k),
                    AccessKind::Write,
                    $inner,
                    None,
                );
            } else {
                derived = false;
            }
        };
    }
    // a gather operand with an explicit path (bias broadcast, carve)
    macro_rules! explicit {
        ($o:expr, $kind:expr, $path:expr) => {
            push(
                &mut acc,
                &mut derived,
                graph,
                $o,
                None,
                $kind,
                None,
                Some($path),
            );
        };
    }
    // broadcast-bias read at input slot `$k`, swept by output slot 0's
    // edge shape
    macro_rules! bias_read {
        ($k:expr, $out_edge:expr) => {
            if let (Some(o), Some(out_s)) = (step.inputs.get($k), $out_edge) {
                let bias_s = edge_at(in_ids.as_slice(), $k).and_then(decl_shape);
                match bias_s.as_ref().and_then(|bs| bias_path(&out_s, bs)) {
                    Some(p) => {
                        explicit!(o, AccessKind::Read, p);
                    }
                    None => {
                        derived = false;
                        let words = bias_s.map(|s| s.num_elements() as u64).unwrap_or(0);
                        explicit!(o, AccessKind::Read, AccessPath::flat(words));
                    }
                }
            } else {
                derived = false;
            }
        };
    }

    let inner_of = |shape: Option<&Shape>, axis: xform_tensor::Axis| -> Option<usize> {
        shape.and_then(|s| s.index_of(axis).ok())
    };
    let in_edge_shape = |k: usize| edge_at(in_ids.as_slice(), k).and_then(decl_shape);
    let out_edge_shape = |k: usize| edge_at(out_ids.as_slice(), k).and_then(decl_shape);

    match node.map(|_| &step.kind) {
        Some(OpKind::Einsum(_)) | Some(OpKind::ContractionEpilogue { .. }) => {
            // the gather/GEMM/scatter (with or without a per-tile epilogue)
            // reads and writes every word of every operand; exact as
            // address sets, but no inner-loop stride claim is made
            for (k, o) in step.inputs.iter().enumerate() {
                let words = edge_at(in_ids.as_slice(), k)
                    .and_then(decl_shape)
                    .or_else(|| decl_shape(o.data))
                    .map(|s| s.num_elements() as u64)
                    .unwrap_or(0);
                explicit!(o, AccessKind::Read, AccessPath::flat(words));
            }
            for (k, o) in step.outputs.iter().enumerate() {
                let words = edge_at(out_ids.as_slice(), k)
                    .and_then(decl_shape)
                    .or_else(|| decl_shape(o.data))
                    .map(|s| s.num_elements() as u64)
                    .unwrap_or(0);
                explicit!(o, AccessKind::Write, AccessPath::flat(words));
            }
        }
        Some(OpKind::Bias { .. }) => {
            let out_s = out_edge_shape(0);
            let x_s = in_edge_shape(0);
            // x may be the stacked-Q/K/V container carved down to the
            // output's rows
            match (step.inputs.first(), &x_s, &out_s) {
                (Some(o), Some(xs), Some(os))
                    if xs.sizes() != os.sizes() || xs.spec() != os.spec() =>
                {
                    let carved =
                        (xs.rank() > 0 && os.rank() > 0 && xs.sizes()[1..] == os.sizes()[1..])
                            .then(|| {
                                let total = xs.sizes()[0];
                                let len = os.sizes()[0];
                                let rest: u64 = xs.sizes()[1..].iter().map(|&n| n as u64).product();
                                let name = node.map(|n| n.name.as_str()).unwrap_or("");
                                stacked_carve_start(name, total, len).map(|start| AccessPath {
                                    base: start as u64 * rest,
                                    dims: vec![(len as u64 * rest, 1)],
                                })
                            })
                            .flatten();
                    match carved {
                        Some(p) => {
                            explicit!(o, AccessKind::Read, p);
                        }
                        None => {
                            derived = false;
                            explicit!(
                                o,
                                AccessKind::Read,
                                AccessPath::flat(xs.num_elements() as u64)
                            );
                        }
                    }
                }
                _ => read!(0, None),
            }
            bias_read!(1, out_s.clone());
            write!(0, None);
        }
        Some(OpKind::Scale) | Some(OpKind::Relu) => {
            read!(0, None);
            write!(0, None);
        }
        Some(OpKind::Residual) => {
            read!(0, None);
            read!(1, None);
            write!(0, None);
        }
        Some(OpKind::Dropout) => {
            read!(0, None);
            write!(0, None);
            write!(1, None);
        }
        Some(OpKind::Softmax { axis }) => {
            let ai = inner_of(in_edge_shape(0).as_ref(), *axis);
            read!(0, ai);
            write!(0, ai);
        }
        Some(OpKind::LayerNorm { axis }) => {
            let ai = inner_of(in_edge_shape(0).as_ref(), *axis);
            read!(0, ai);
            read!(1, None); // gamma: dense 1-D, indexed by lane position
            read!(2, None); // beta
            write!(0, ai);
        }
        Some(OpKind::Fused {
            parts, reduce_axis, ..
        }) => match classify_fused(parts) {
            Some(FusedClass::InputBias) => {
                // stacked projection: one carved read per output
                if step.inputs.len() == step.outputs.len() + 1 && !step.outputs.is_empty() {
                    let x_s = in_edge_shape(0);
                    let mut start = 0u64;
                    for k in 0..step.outputs.len() {
                        let o_s = out_edge_shape(k);
                        let carve = match (&x_s, &o_s, step.inputs.first()) {
                            (Some(xs), Some(os), Some(_))
                                if xs.rank() > 0
                                    && os.rank() > 0
                                    && xs.sizes()[1..] == os.sizes()[1..] =>
                            {
                                let rest: u64 = xs.sizes()[1..].iter().map(|&n| n as u64).product();
                                let len = os.sizes()[0] as u64;
                                let p = AccessPath {
                                    base: start * rest,
                                    dims: vec![(len * rest, 1)],
                                };
                                start += len;
                                Some(p)
                            }
                            _ => None,
                        };
                        if let (Some(o), Some(p)) = (step.inputs.first(), carve) {
                            explicit!(o, AccessKind::Read, p);
                        } else {
                            derived = false;
                        }
                        bias_read!(k + 1, o_s.clone());
                        write!(k, None);
                    }
                } else {
                    derived = false;
                }
            }
            Some(FusedClass::Softmax { .. }) => {
                let ai = reduce_axis.and_then(|ax| inner_of(in_edge_shape(0).as_ref(), ax));
                if ai.is_none() {
                    derived = false;
                }
                read!(0, ai);
                for k in 0..step.outputs.len() {
                    write!(k, ai);
                }
            }
            Some(FusedClass::BiasDropResidualNorm) => {
                let ai = reduce_axis.and_then(|ax| inner_of(in_edge_shape(0).as_ref(), ax));
                if ai.is_none() {
                    derived = false;
                }
                read!(0, ai);
                bias_read!(1, in_edge_shape(0));
                read!(2, ai); // residual
                read!(3, None); // gamma
                read!(4, None); // beta
                for k in 0..step.outputs.len() {
                    write!(k, ai);
                }
            }
            Some(FusedClass::BiasActDrop) => {
                read!(0, None);
                bias_read!(1, in_edge_shape(0));
                for k in 0..step.outputs.len() {
                    write!(k, None);
                }
            }
            Some(FusedClass::BiasDropResidual) => {
                read!(0, None);
                bias_read!(1, in_edge_shape(0));
                read!(2, None);
                for k in 0..step.outputs.len() {
                    write!(k, None);
                }
            }
            Some(FusedClass::Norm) => {
                let ai = reduce_axis.and_then(|ax| inner_of(in_edge_shape(0).as_ref(), ax));
                if ai.is_none() {
                    derived = false;
                }
                read!(0, ai);
                read!(1, None);
                read!(2, None);
                write!(0, ai);
            }
            None => {
                derived = false;
                for o in &step.inputs {
                    let words = decl_shape(o.data)
                        .map(|s| s.num_elements() as u64)
                        .unwrap_or(0);
                    explicit!(o, AccessKind::Read, AccessPath::flat(words));
                }
                for o in &step.outputs {
                    let words = decl_shape(o.data)
                        .map(|s| s.num_elements() as u64)
                        .unwrap_or(0);
                    explicit!(o, AccessKind::Write, AccessPath::flat(words));
                }
            }
        },
        // unknown operator kind or dead node: conservative declared spans
        _ => {
            derived = false;
            for o in &step.inputs {
                let words = decl_shape(o.data)
                    .map(|s| s.num_elements() as u64)
                    .unwrap_or(0);
                explicit!(o, AccessKind::Read, AccessPath::flat(words));
            }
            for o in &step.outputs {
                let words = decl_shape(o.data)
                    .map(|s| s.num_elements() as u64)
                    .unwrap_or(0);
                explicit!(o, AccessKind::Write, AccessPath::flat(words));
            }
        }
    }

    // extra declared operands the positional walk didn't reach (operand
    // lists longer than the graph's edges) force conservative handling
    if step.inputs.len() != in_ids.len() || step.outputs.len() != out_ids.len() {
        derived = false;
    }

    StepAccesses {
        accesses: acc,
        derived,
    }
}

/// Shared certification core: logical bounds always, slab embedding when
/// an assignment is given.
fn certify_inner(
    graph: &Graph,
    plan: &ExecutionPlan,
    assignment: Option<&ArenaAssignment>,
) -> Result<AccessCertificate, Vec<PlanLint>> {
    let slot_of: HashMap<NodeId, (u64, u64)> = assignment
        .map(|a| {
            a.slots
                .iter()
                .map(|s| (s.data, (s.offset, s.words)))
                .collect()
        })
        .unwrap_or_default();
    let slab_words = assignment.map(|a| a.slab_words).unwrap_or(0);

    let mut proofs = Vec::with_capacity(plan.steps.len());
    let mut errors: Vec<PlanLint> = Vec::new();
    let mut warnings: Vec<PlanLint> = Vec::new();

    for (si, step) in plan.steps.iter().enumerate() {
        let sa = step_accesses(graph, step);
        let mut in_bounds = true;
        let mut unit_stride = true;
        let mut alias_free = true;
        let mut strided_seen: Vec<&str> = Vec::new();

        for a in &sa.accesses {
            // logical bound: the path must stay inside the declared
            // operand's buffer
            let buf_words = graph.data(a.data).map(|d| d.shape.num_elements() as u64);
            match buf_words {
                Some(w) if a.path.max_end() <= w => {}
                Some(w) => {
                    in_bounds = false;
                    errors.push(PlanLint::UnprovenAccess {
                        step: si,
                        name: step.name.clone(),
                        container: a.name.clone(),
                        reason: format!(
                            "derived path ends at word {} of a {w}-word buffer",
                            a.path.max_end()
                        ),
                    });
                }
                None => in_bounds = false, // NotAContainer already lints
            }
            // slab embedding: inside the slot, slot inside the slab
            if let Some(asg) = assignment {
                match slot_of.get(&a.data) {
                    Some(&(off, words)) => {
                        if a.path.max_end() > words {
                            in_bounds = false;
                            errors.push(PlanLint::UnprovenAccess {
                                step: si,
                                name: step.name.clone(),
                                container: a.name.clone(),
                                reason: format!(
                                    "derived path ends at word {} of a {words}-word arena slot",
                                    a.path.max_end()
                                ),
                            });
                        }
                        if off + words > asg.slab_words {
                            in_bounds = false;
                            errors.push(PlanLint::UnprovenAccess {
                                step: si,
                                name: step.name.clone(),
                                container: a.name.clone(),
                                reason: format!(
                                    "arena slot [{off}, {}) escapes the {slab_words}-word slab",
                                    off + words
                                ),
                            });
                        }
                    }
                    None => in_bounds = false,
                }
            }
            // unit-stride verdict for swept operands
            if a.swept && a.path.inner_stride() != 1 && !strided_seen.contains(&a.name.as_str()) {
                strided_seen.push(&a.name);
                unit_stride = false;
                warnings.push(PlanLint::StridedInnerLoop {
                    step: si,
                    name: step.name.clone(),
                    container: a.name.clone(),
                    stride: a.path.inner_stride(),
                });
            }
        }

        // intra-step aliasing beyond shared reads: same buffer at the
        // logical level, overlapping slab ranges across buffers at the
        // arena level
        for (i, a) in sa.accesses.iter().enumerate() {
            for b in &sa.accesses[i + 1..] {
                if !kinds_conflict(a.kind, b.kind) {
                    continue;
                }
                let overlap = if a.data == b.data {
                    a.path.base < b.path.max_end() && b.path.base < a.path.max_end()
                } else if assignment.is_some() {
                    match (slot_of.get(&a.data), slot_of.get(&b.data)) {
                        (Some(&(ao, _)), Some(&(bo, _))) => {
                            ao + a.path.base < bo + b.path.max_end()
                                && bo + b.path.base < ao + a.path.max_end()
                        }
                        _ => false,
                    }
                } else {
                    false
                };
                if overlap {
                    alias_free = false;
                    errors.push(PlanLint::UnprovenAccess {
                        step: si,
                        name: step.name.clone(),
                        container: a.name.clone(),
                        reason: format!(
                            "conflicting overlap with operand `{}` beyond what the race certificate permits",
                            b.name
                        ),
                    });
                }
            }
        }

        proofs.push(StepAccessProof {
            step: si,
            name: step.name.clone(),
            in_bounds,
            unit_stride,
            alias_free,
            derived: sa.derived,
        });
    }

    if !errors.is_empty() {
        errors.extend(warnings);
        errors.sort_by_key(PlanLint::step);
        return Err(errors);
    }
    Ok(AccessCertificate {
        plan_hash: plan_fingerprint(plan),
        arena: assignment.map(|a| a.granularity),
        steps: proofs,
        lints: warnings,
    })
}

/// Certifies a plan's access paths at the logical (per-buffer) level:
/// every derived path must stay inside its declared container, and no
/// intra-step overlap may conflict beyond shared reads.
///
/// # Errors
///
/// Returns every [`PlanLint::UnprovenAccess`] found (plus any
/// [`PlanLint::StridedInnerLoop`] warnings for context) when a proven
/// violation exists.
pub fn certify_access(
    graph: &Graph,
    plan: &ExecutionPlan,
) -> Result<AccessCertificate, Vec<PlanLint>> {
    certify_inner(graph, plan, None)
}

/// Certifies a plan's access paths embedded into an arena coloring: on top
/// of the logical checks, every path must stay inside its slab slot, every
/// slot inside the slab, and no two operands of one step may touch
/// overlapping slab words with conflicting kinds.
///
/// # Errors
///
/// As [`certify_access`], plus slab-escape violations.
pub fn certify_access_arena(
    graph: &Graph,
    plan: &ExecutionPlan,
    assignment: &ArenaAssignment,
) -> Result<AccessCertificate, Vec<PlanLint>> {
    certify_inner(graph, plan, Some(assignment))
}

/// One cache container's geometry as proven by [`certify_decode`].
#[derive(Debug, Clone)]
pub struct CacheGeometry {
    /// Container name (e.g. `k_cache`).
    pub name: String,
    /// Position capacity: the extent of the outermost (position-major)
    /// axis.
    pub capacity: usize,
    /// Words per position column (product of all non-outermost extents).
    pub col_words: usize,
}

/// Proof that a decode plan treats its [`xform_dataflow::DataRole::Cache`] containers as
/// frozen state: no scheduled step (or relayout) writes a single word of
/// any cache container, so an execution can only *read* the resident
/// prefix, never mutate it. Column appends happen outside the plan through
/// the bounds-checked [`column_span`] license, *before* the plan runs —
/// which is exactly how the query's own key becomes visible to its own
/// attention step.
#[derive(Debug, Clone)]
pub struct DecodeCertificate {
    /// Fingerprint of the certified plan.
    pub plan_hash: u64,
    /// Geometry per cache container, in graph declaration order.
    pub caches: Vec<CacheGeometry>,
}

impl DecodeCertificate {
    /// Geometry of the named cache container, if the plan reads one.
    pub fn cache(&self, name: &str) -> Option<&CacheGeometry> {
        self.caches.iter().find(|c| c.name == name)
    }
}

/// Certifies that `plan` never writes a [`xform_dataflow::DataRole::Cache`] container:
/// every step's derived access paths touching a cache container must be
/// reads. The same path derivation as [`certify_access`] backs this
/// proof, so an inexactly-derived step touching a cache convicts the
/// plan rather than passing silently.
///
/// # Errors
///
/// Returns a [`PlanLint::UnprovenAccess`] per violation: a write access
/// (or relayout) of a cache container, or a step whose paths could not be
/// derived exactly while touching a cache container.
pub fn certify_decode(
    graph: &Graph,
    plan: &ExecutionPlan,
) -> Result<DecodeCertificate, Vec<PlanLint>> {
    use xform_dataflow::DataRole;
    let cache_ids: HashMap<NodeId, &str> = graph
        .data_nodes()
        .iter()
        .filter_map(|&id| {
            let d = graph.data(id)?;
            (d.role == DataRole::Cache).then_some((id, d.name.as_str()))
        })
        .collect();
    let mut errors: Vec<PlanLint> = Vec::new();
    for (si, step) in plan.steps.iter().enumerate() {
        let sa = step_accesses(graph, step);
        for a in &sa.accesses {
            let Some(&cname) = cache_ids.get(&a.data) else {
                continue;
            };
            if a.kind != AccessKind::Read {
                errors.push(PlanLint::UnprovenAccess {
                    step: si,
                    name: step.name.clone(),
                    container: cname.to_string(),
                    reason: format!("{:?} access to a frozen cache container", a.kind),
                });
            }
            if !sa.derived {
                errors.push(PlanLint::UnprovenAccess {
                    step: si,
                    name: step.name.clone(),
                    container: cname.to_string(),
                    reason: "underived access paths in a step touching a cache container"
                        .to_string(),
                });
            }
        }
    }
    if !errors.is_empty() {
        errors.sort_by_key(PlanLint::step);
        return Err(errors);
    }
    let caches = graph
        .data_nodes()
        .iter()
        .filter_map(|&id| {
            let d = graph.data(id)?;
            if d.role != xform_dataflow::DataRole::Cache {
                return None;
            }
            let sizes = d.shape.sizes();
            let capacity = sizes.first().copied().unwrap_or(1);
            let col_words: usize = sizes.iter().skip(1).product();
            Some(CacheGeometry {
                name: d.name.clone(),
                capacity,
                col_words,
            })
        })
        .collect();
    Ok(DecodeCertificate {
        plan_hash: plan_fingerprint(plan),
        caches,
    })
}

/// Bounds-checked license for a session-side column append: the word range
/// of positions `[pos, pos + width)` in the named cache container, under
/// its position-major layout. `None` when the plan reads no cache of that
/// name or the range escapes the container's capacity — the caller must
/// treat `None` as "do not write".
pub fn column_span(
    cert: &DecodeCertificate,
    name: &str,
    pos: usize,
    width: usize,
) -> Option<std::ops::Range<usize>> {
    let c = cert.cache(name)?;
    let end = pos.checked_add(width)?;
    if end > c.capacity {
        return None;
    }
    Some(pos * c.col_words..end * c.col_words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, assign_arena};
    use crate::fusion::{apply_plan, encoder_fusion_plan};
    use crate::recipe::forward_ops;
    use xform_dataflow::{build, EncoderDims};

    fn fused_plan() -> (Graph, ExecutionPlan) {
        let eg = build::encoder(&EncoderDims::tiny());
        let mut g = eg.graph;
        apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
        let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
        (g, plan)
    }

    #[test]
    fn canned_fused_plan_certifies_with_unit_stride_memory_bound_steps() {
        let (g, plan) = fused_plan();
        let cert = certify_access(&g, &plan).expect("canned plan must certify");
        assert_eq!(cert.plan_hash, plan_fingerprint(&plan));
        assert_eq!(cert.steps.len(), plan.steps.len());
        // zero errors: every path in-bounds, alias-free, exactly derived
        for p in &cert.steps {
            assert!(p.in_bounds, "step `{}` in bounds", p.name);
            assert!(p.alias_free, "step `{}` alias free", p.name);
            assert!(p.derived, "step `{}` derived", p.name);
        }
        // the attention softmax sweeps its innermost axis: unit-stride
        let sm = plan.steps.iter().position(|s| s.name == "SM").unwrap();
        assert!(
            cert.steps[sm].unit_stride,
            "softmax class must be unit-stride"
        );
        // the encoder's norm containers are embedding-major (`ibj`), so
        // the norm steps genuinely stride in their inner loop — flagged
        // as warnings
        for (si, step) in plan.steps.iter().enumerate() {
            if step.name.contains("DRLN") {
                assert!(
                    !cert.steps[si].unit_stride,
                    "strided `{}` must not be unit-stride",
                    step.name
                );
                assert!(cert
                    .lints
                    .iter()
                    .any(|l| matches!(l, PlanLint::StridedInnerLoop { step, .. } if *step == si)));
            }
        }
        assert!(cert.steps.iter().any(|p| p.unit_stride));
    }

    #[test]
    fn arena_embedding_certifies_at_both_granularities() {
        let (g, plan) = fused_plan();
        let analysis = analyze(&g, &plan);
        for gran in [ArenaGranularity::Serial, ArenaGranularity::Waves] {
            let asg = assign_arena(&analysis, gran);
            let cert = certify_access_arena(&g, &plan, &asg).expect("arena embedding certifies");
            assert_eq!(cert.arena, Some(gran));
            assert!(cert.steps.iter().any(|p| p.unit_stride));
        }
    }

    #[test]
    fn shrunken_arena_slot_is_convicted() {
        let (g, plan) = fused_plan();
        let analysis = analyze(&g, &plan);
        let mut asg = assign_arena(&analysis, ArenaGranularity::Serial);
        // shrink the largest slot so some derived path escapes it
        let victim = asg
            .slots
            .iter_mut()
            .max_by_key(|s| s.words)
            .expect("plan has buffers");
        victim.words /= 2;
        let lints = certify_access_arena(&g, &plan, &asg).expect_err("must reject");
        assert!(lints
            .iter()
            .any(|l| matches!(l, PlanLint::UnprovenAccess { .. })));
    }

    #[test]
    fn overlapping_arena_slots_are_convicted_as_aliasing() {
        let (g, plan) = fused_plan();
        let analysis = analyze(&g, &plan);
        let mut asg = assign_arena(&analysis, ArenaGranularity::Serial);
        // force two operands of step 0 onto the same slab words
        let a = plan.steps[0].inputs[0].data;
        let b = plan.steps[0].outputs[0].data;
        let a_off = asg.slots.iter().find(|s| s.data == a).unwrap().offset;
        if let Some(slot) = asg.slots.iter_mut().find(|s| s.data == b) {
            slot.offset = a_off;
        }
        let lints = certify_access_arena(&g, &plan, &asg).expect_err("must reject");
        assert!(lints.iter().any(|l| matches!(
            l,
            PlanLint::UnprovenAccess { reason, .. } if reason.contains("race certificate")
        )));
    }

    #[test]
    fn strided_inner_loop_is_flagged_but_not_fatal() {
        let (g, mut plan) = fused_plan();
        // rotate the softmax input's layout so the reduce axis `k` is no
        // longer innermost: a unit-stride step becomes a flagged, strided
        // one — but certification still succeeds (a warning, not a failure)
        let si = plan.steps.iter().position(|s| s.name == "SM").unwrap();
        let rotated: String = {
            let mut chars: Vec<char> = plan.steps[si].inputs[0].layout.chars().collect();
            chars.rotate_right(1);
            chars.into_iter().collect()
        };
        plan.steps[si].inputs[0].layout = rotated;
        let cert = certify_access(&g, &plan).expect("strided is a warning, not an error");
        assert!(cert
            .lints
            .iter()
            .any(|l| matches!(l, PlanLint::StridedInnerLoop { step, name, .. } if *step == si && name == "SM")));
        assert!(!cert.steps[si].unit_stride);
    }

    #[test]
    fn path_arithmetic() {
        let p = AccessPath {
            base: 10,
            dims: vec![(2, 12), (3, 4), (4, 1)],
        };
        assert_eq!(p.max_end(), 10 + 12 + 8 + 3 + 1);
        assert_eq!(p.inner_stride(), 1);
        let strided = AccessPath {
            base: 0,
            dims: vec![(4, 1), (3, 4)],
        };
        assert_eq!(strided.inner_stride(), 4);
        let singleton = AccessPath {
            base: 0,
            dims: vec![(5, 1), (1, 7)],
        };
        assert_eq!(singleton.inner_stride(), 1);
    }
}
