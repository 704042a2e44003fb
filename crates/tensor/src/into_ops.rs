//! Zero-allocation kernel variants that execute into caller-provided
//! buffers.
//!
//! Every forward kernel the schedule interpreter dispatches has a `*_into`
//! twin here that reads dense **row-major** slices and writes dense
//! row-major slices, allocating nothing. They are the execution layer of
//! the arena interpreter (`core::arena`): the planner colors each logical
//! container into an offset of one preallocated slab, and these kernels
//! run directly on the slab views.
//!
//! Arithmetic is mirrored statement-for-statement from the allocating
//! kernels in [`crate::fused`], [`crate::ops`] and [`crate::contract`], so
//! with dropout disabled the results are **bitwise identical** to the
//! tensor-returning path — the property the arena equivalence tests pin.
//!
//! All geometry (lane decompositions, bias broadcast maps, einsum pack
//! descriptors) is precomputed by the caller; the kernels only walk flat
//! offsets. Helpers:
//!
//! * [`LaneGeom`] — decomposition of a row-major tensor into lanes along
//!   one axis (the sweep order of `for_each_outer`),
//! * [`BiasMap`] — broadcast map from a flat output offset to a bias
//!   offset,
//! * [`CausalMap`] — recovery of the query index from a lane number for
//!   masked softmax,
//! * [`ContractPlan`] — precompiled gather/GEMM/scatter descriptor for a
//!   two-operand einsum.

use rand::Rng;

use crate::axes::{Axis, Shape};
use crate::contract::copy_strided;
use crate::einsum::EinsumSpec;
use crate::matmul::sgemm;
use crate::ops::elementwise::ActivationKind;
use crate::ops::layernorm::EPS;
use crate::tensor::Tensor;

/// Lane decomposition of a dense row-major buffer along the axis at
/// logical position `ai` of a shape with sizes `s`: `pre = Π s[..ai]`,
/// `len = s[ai]`, `post = Π s[ai+1..]`.
///
/// Lanes are visited `pre`-major / `post`-minor — exactly the order
/// `for_each_outer` visits them on a row-major tensor — so per-lane
/// statistics land in the same order as the allocating kernels push them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneGeom {
    /// Product of the axis sizes before the swept axis.
    pub pre: usize,
    /// Extent of the swept axis.
    pub len: usize,
    /// Product of the axis sizes after the swept axis (also the element
    /// stride of the swept axis in a row-major buffer).
    pub post: usize,
}

impl LaneGeom {
    /// Builds the decomposition for logical axis position `ai` of a shape
    /// with the given sizes.
    pub fn new(sizes: &[usize], ai: usize) -> LaneGeom {
        LaneGeom {
            pre: sizes[..ai].iter().product(),
            len: sizes[ai],
            post: sizes[ai + 1..].iter().product(),
        }
    }

    /// Number of lanes.
    pub fn lanes(self) -> usize {
        self.pre * self.post
    }

    /// Total number of elements.
    pub fn elements(self) -> usize {
        self.pre * self.len * self.post
    }
}

/// Broadcast map from a flat row-major offset in the output to a flat
/// offset in a (smaller) bias buffer. One entry per bias axis:
/// `(x_stride, x_size, bias_stride)`, where `x_stride`/`x_size` describe
/// the axis in the output's row-major geometry and `bias_stride` is the
/// axis's row-major stride within the bias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiasMap {
    /// `(x_stride, x_size, bias_stride)` triples, one per bias axis.
    pub dims: Vec<(usize, usize, usize)>,
}

impl BiasMap {
    /// Bias offset for the element at flat output offset `f`.
    #[inline]
    pub fn offset(&self, f: usize) -> usize {
        let mut off = 0usize;
        for &(xs, xn, bs) in &self.dims {
            off += ((f / xs) % xn) * bs;
        }
        off
    }
}

/// Recovers the causal query index from the `pre` part of a lane number:
/// `q = (pre / div) % len`. The query axis always precedes the softmax
/// axis logically, so it is always a `pre` axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalMap {
    /// Product of the pre-axis sizes strictly between the query axis and
    /// the softmax axis.
    pub div: usize,
    /// Extent of the query axis.
    pub len: usize,
    /// Absolute position of local query index 0. Zero for full-sequence
    /// plans; a decode step sets it to the current sequence position so a
    /// single-column query attends over `base + 1` cache slots.
    pub base: usize,
}

impl CausalMap {
    /// Query index for the lane with pre-part `pre`.
    #[inline]
    pub fn query(self, pre: usize) -> usize {
        self.base + (pre / self.div) % self.len
    }

    /// This map shifted to absolute position `base` (decode-step use).
    #[inline]
    pub fn at(self, base: usize) -> Self {
        CausalMap { base, ..self }
    }
}

/// Precompiled two-operand einsum: strided gather descriptors for both
/// operands, collapsed GEMM sizes, and the scatter descriptor for the
/// output. Dims are `(len, src_stride, dst_stride)` triples outermost
/// first, as consumed by the recursive strided copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractPlan {
    /// Gather dims for operand A: `(len, a_stride, pack_stride)`.
    pub a_dims: Vec<(usize, usize, usize)>,
    /// Gather dims for operand B: `(len, b_stride, pack_stride)`.
    pub b_dims: Vec<(usize, usize, usize)>,
    /// Scatter dims for the output: `(len, pack_stride, out_stride)`.
    pub c_dims: Vec<(usize, usize, usize)>,
    /// Collapsed batch extent.
    pub batch: usize,
    /// Collapsed GEMM M.
    pub m: usize,
    /// Collapsed GEMM N.
    pub n: usize,
    /// Collapsed GEMM K.
    pub k: usize,
}

impl ContractPlan {
    /// Pack-buffer words needed for operand A.
    pub fn a_words(&self) -> usize {
        self.batch * self.m * self.k
    }

    /// Pack-buffer words needed for operand B.
    pub fn b_words(&self) -> usize {
        self.batch * self.k * self.n
    }

    /// Pack-buffer words needed for the output.
    pub fn c_words(&self) -> usize {
        self.batch * self.m * self.n
    }
}

/// Executes a precompiled contraction: gathers `a`/`b` into the pack
/// scratch, runs [`sgemm`] on each batch slice from a zeroed C, and
/// scatters the result into `out`. Every output element is `sgemm`'s
/// fixed-order FMA chain over K, so the result is bitwise that of the
/// reference [`crate::contract::contract`], whose `batched_sgemm` may
/// spread the slices over threads; here they run on the calling thread.
///
/// # Panics
///
/// Panics if a scratch slice is smaller than the plan requires.
pub fn contract_into(
    plan: &ContractPlan,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    a_pack: &mut [f32],
    b_pack: &mut [f32],
    c_pack: &mut [f32],
) {
    let (aw, bw, cw) = (plan.a_words(), plan.b_words(), plan.c_words());
    let a_pack = &mut a_pack[..aw];
    let b_pack = &mut b_pack[..bw];
    let c_pack = &mut c_pack[..cw];
    copy_strided(&plan.a_dims, a, 0, a_pack, 0);
    copy_strided(&plan.b_dims, b, 0, b_pack, 0);
    for v in c_pack.iter_mut() {
        *v = 0.0;
    }
    let (m, n, k) = (plan.m, plan.n, plan.k);
    for g in 0..plan.batch {
        sgemm(
            m,
            n,
            k,
            &a_pack[g * m * k..(g + 1) * m * k],
            &b_pack[g * k * n..(g + 1) * k * n],
            &mut c_pack[g * m * n..(g + 1) * m * n],
        );
    }
    copy_strided(&plan.c_dims, c_pack, 0, out, 0);
}

/// A [`ContractPlan`] proven to write its output in container order — the
/// scatter is the identity, so a GEMM row block can be handed straight to
/// an epilogue callback and written at its flat container offset without
/// ever materializing the full contraction output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpiloguePlan {
    /// The gather/GEMM descriptor. `c_dims` is the (identity) scatter,
    /// kept for diagnostics; the tiled driver never runs it.
    pub plan: ContractPlan,
    /// Whether the GEMM roles were swapped relative to the einsum's
    /// operand order: when `true`, the einsum's *second* operand supplies
    /// the GEMM's A pack (M rows) and the first supplies B.
    pub swapped: bool,
}

/// Row-major strides of a shape's own axis order.
fn row_major_strides(shape: &Shape) -> Vec<usize> {
    let sizes = shape.sizes();
    let mut strides = vec![1usize; sizes.len()];
    for i in (0..sizes.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * sizes[i + 1];
    }
    strides
}

/// Compiles one operand order into a [`ContractPlan`], returning it only
/// when the output scatter is the identity over `out_shape`'s row-major
/// container order.
fn identity_scatter_plan(
    spec: &EinsumSpec,
    a_shape: &Shape,
    a_strides: &[usize],
    b_shape: &Shape,
    b_strides: &[usize],
    out_shape: &Shape,
) -> Option<ContractPlan> {
    let class = spec.classify().ok()?;
    let gs = spec.gemm_sizes(a_shape, b_shape).ok()?;
    let size_of = |ax: Axis| -> usize {
        a_shape
            .size(ax)
            .or_else(|_| b_shape.size(ax))
            .expect("classified axis has a size")
    };
    let gather =
        |groups: &[Axis], shape: &Shape, strides: &[usize]| -> Vec<(usize, usize, usize)> {
            let total: usize = groups.iter().map(|&ax| size_of(ax)).product();
            let mut dims = Vec::new();
            let mut ps = total;
            for &ax in groups {
                let len = size_of(ax);
                ps /= len;
                dims.push((len, strides[shape.index_of(ax).expect("operand axis")], ps));
            }
            dims
        };
    let a_groups: Vec<Axis> = class
        .batch
        .iter()
        .chain(&class.m)
        .chain(&class.k)
        .copied()
        .collect();
    let b_groups: Vec<Axis> = class
        .batch
        .iter()
        .chain(&class.k)
        .chain(&class.n)
        .copied()
        .collect();
    let c_groups: Vec<Axis> = class
        .batch
        .iter()
        .chain(&class.m)
        .chain(&class.n)
        .copied()
        .collect();
    if c_groups.len() != out_shape.rank() {
        return None;
    }
    let out_strides = row_major_strides(out_shape);
    let c_total: usize = c_groups.iter().map(|&ax| size_of(ax)).product();
    if c_total != out_shape.num_elements() {
        return None;
    }
    let mut c_dims = Vec::new();
    let mut ps = c_total;
    for &ax in &c_groups {
        let len = size_of(ax);
        ps /= len;
        let os = out_strides[out_shape.index_of(ax).ok()?];
        if len > 1 && os != ps {
            return None; // a real scatter — this order cannot stream tiles
        }
        c_dims.push((len, ps, os));
    }
    Some(ContractPlan {
        a_dims: gather(&a_groups, a_shape, a_strides),
        b_dims: gather(&b_groups, b_shape, b_strides),
        c_dims,
        batch: gs.batch,
        m: gs.m,
        n: gs.n,
        k: gs.k,
    })
}

/// Compiles a contraction for the tiled epilogue driver
/// ([`contract_epilogue_tiled`]): the gather descriptors and collapsed
/// GEMM sizes of [`contract_into`]'s plan, with the output scatter
/// required to be the *identity* so GEMM row blocks stream straight into
/// the epilogue. The operand order as written is tried first, then the
/// swapped order (GEMM roles M and N exchange operands — IEEE multiply
/// commutes and the per-element reduction order over K is unchanged, so
/// the result is bitwise identical): the attention `QKT` einsum
/// `phbk,phbj->hbjk` scatters under its natural order but is identity
/// once the query operand supplies M. Returns `None` when neither order
/// writes in container order.
pub fn epilogue_contract_plan(
    spec: &EinsumSpec,
    a_shape: &Shape,
    a_strides: &[usize],
    b_shape: &Shape,
    b_strides: &[usize],
    out_shape: &Shape,
) -> Option<EpiloguePlan> {
    if let Some(plan) =
        identity_scatter_plan(spec, a_shape, a_strides, b_shape, b_strides, out_shape)
    {
        return Some(EpiloguePlan {
            plan,
            swapped: false,
        });
    }
    let ops = spec.operands();
    if ops.len() != 2 {
        return None;
    }
    let label = |axes: &[Axis]| axes.iter().map(|a| a.0).collect::<String>();
    let swapped: EinsumSpec = format!(
        "{},{}->{}",
        label(&ops[1]),
        label(&ops[0]),
        label(spec.output())
    )
    .parse()
    .ok()?;
    identity_scatter_plan(&swapped, b_shape, b_strides, a_shape, a_strides, out_shape).map(|plan| {
        EpiloguePlan {
            plan,
            swapped: true,
        }
    })
}

/// The per-tile epilogue a [`contract_epilogue_tiled`] call applies to
/// each GEMM row block, with the full-size output slices it streams into.
/// Mirrors the fused-kernel classes whose sole input is a contraction
/// output: `SM` ([`sm_into`]), `BRD` ([`brd_act_into`]), and `BDR`
/// ([`bdr_into`]).
#[derive(Debug)]
pub enum TileEpilogue<'a> {
    /// Scaled (optionally causal) softmax + dropout over each GEMM output
    /// row (the row *is* the softmax lane: the epilogue plan puts the
    /// normalized axis in N). Requires whole-batch-slice tiles
    /// (`tile_rows == m`) so the causal query index is the local row.
    Softmax {
        /// The `1/√P` attention scaling.
        scaler: f32,
        /// Causal mask over the local row index, when masked.
        causal: Option<CausalMap>,
        /// Saved pre-dropout softmax (full container).
        softmax: &'a mut [f32],
        /// Dropped-out attention weights (full container).
        alpha: &'a mut [f32],
        /// Saved dropout mask (full container).
        mask: &'a mut [f32],
    },
    /// Bias + activation + dropout, bias indexed by the GEMM row
    /// (the epilogue plan proves the bias axes are exactly M).
    BiasActDrop {
        /// Bias vector, one entry per GEMM row (M words).
        bias: &'a [f32],
        /// Tile-local bias map, `[(n, m, 1)]` with `m` at least the
        /// tallest tile — built once by the caller so the hot loop never
        /// allocates. `epilogue_tile` asserts this exact shape.
        bmap: &'a BiasMap,
        /// The activation between bias and dropout.
        kind: ActivationKind,
        /// Saved pre-activation (full container).
        pre_activation: &'a mut [f32],
        /// Kernel output (full container).
        out: &'a mut [f32],
        /// Saved dropout mask (full container).
        mask: &'a mut [f32],
    },
    /// Bias + dropout + residual add, bias indexed by the GEMM row.
    BiasDropResidual {
        /// Bias vector, one entry per GEMM row (M words).
        bias: &'a [f32],
        /// Tile-local bias map, as in [`TileEpilogue::BiasActDrop`].
        bmap: &'a BiasMap,
        /// Residual input (full container).
        residual: &'a [f32],
        /// Saved dropout mask (full container).
        mask: &'a mut [f32],
        /// Kernel output (full container).
        out: &'a mut [f32],
    },
}

impl TileEpilogue<'_> {
    /// Whether this epilogue requires whole-batch-slice tiles
    /// (`tile_rows == m`): the causal softmax recovers the query index
    /// from the tile-local row, which is only the query when the tile
    /// starts a batch slice.
    pub fn needs_full_slice(&self) -> bool {
        matches!(self, TileEpilogue::Softmax { .. })
    }
}

/// Applies the epilogue to one GEMM row block. `row0` is the global row
/// index (over `batch · m`), `rows` the block height, `n` the row width;
/// `tile` holds the block's contraction output. Checked and licensed
/// paths are bitwise identical; every slice handed to the unchecked twins
/// is cut to its exact extent here, which discharges their safety
/// obligations locally (the plan-level access certificate additionally
/// proves the *container* bounds these cuts come from).
#[allow(clippy::too_many_arguments)]
fn epilogue_tile<R: Rng + ?Sized>(
    epi: &mut TileEpilogue<'_>,
    row0: usize,
    rows: usize,
    n: usize,
    tile: &[f32],
    p: f32,
    rng: &mut R,
    licensed: bool,
) {
    let span = row0 * n..row0 * n + rows * n;
    match epi {
        TileEpilogue::Softmax {
            scaler,
            causal,
            softmax,
            alpha,
            mask,
        } => {
            let lane = LaneGeom {
                pre: rows,
                len: n,
                post: 1,
            };
            let (sm, al, mk) = (
                &mut softmax[span.clone()],
                &mut alpha[span.clone()],
                &mut mask[span],
            );
            if licensed {
                // SAFETY: post == 1 and all four slices hold exactly
                // `lane.elements()` = rows·n words, cut just above.
                unsafe { sm_into_unchecked(tile, *scaler, lane, *causal, p, rng, sm, al, mk) };
            } else {
                sm_into(tile, *scaler, lane, *causal, p, rng, sm, al, mk);
            }
        }
        TileEpilogue::BiasActDrop {
            bias,
            bmap,
            kind,
            pre_activation,
            out,
            mask,
        } => {
            check_tile_bmap(bmap, n, rows);
            let bias = &bias[row0..row0 + rows];
            let (pre, o, mk) = (
                &mut pre_activation[span.clone()],
                &mut out[span.clone()],
                &mut mask[span],
            );
            if licensed {
                // SAFETY: slices are exactly rows·n words and the map
                // shape checked above gives `bmap.offset(f) = (f/n) % m
                // = f/n < rows = bias.len()` for every `f < rows·n`.
                unsafe { brd_act_into_unchecked(tile, bias, bmap, *kind, p, rng, pre, o, mk) };
            } else {
                brd_act_into(tile, bias, bmap, *kind, p, rng, pre, o, mk);
            }
        }
        TileEpilogue::BiasDropResidual {
            bias,
            bmap,
            residual,
            mask,
            out,
        } => {
            check_tile_bmap(bmap, n, rows);
            let bias = &bias[row0..row0 + rows];
            let res = &residual[span.clone()];
            let (mk, o) = (&mut mask[span.clone()], &mut out[span]);
            if licensed {
                // SAFETY: as BiasActDrop, plus the residual cut to the
                // same exact extent.
                unsafe { bdr_into_unchecked(tile, bias, bmap, res, p, rng, mk, o) };
            } else {
                bdr_into(tile, bias, bmap, res, p, rng, mk, o);
            }
        }
    }
}

/// Asserts the caller-built epilogue bias map has the `[(n, m, 1)]` shape
/// with `m >= rows`, which makes the modulo a no-op on tile-local offsets:
/// `offset(f) = (f/n) % m = f/n < rows` for all `f < rows·n` — the bound
/// the unchecked twins' bias indexing relies on.
fn check_tile_bmap(bmap: &BiasMap, n: usize, rows: usize) {
    assert!(
        bmap.dims.len() == 1
            && bmap.dims[0].0 == n
            && bmap.dims[0].1 >= rows
            && bmap.dims[0].2 == 1,
        "epilogue bias map must be [(n, >=tile rows, 1)], got {:?}",
        bmap.dims
    );
}

/// The GEMM-epilogue mega-kernel: gathers both operand packs like
/// [`contract_into`], then streams the GEMM over row blocks of at most
/// `tile_rows` rows, applying `epi` to each block while it is hot — the
/// contraction output exists only as the `tile_rows · n` scratch tile and
/// is never materialized. Tiles are visited in container order (batch
/// ascending, rows ascending), so the dropout RNG draw order — and hence
/// every saved mask and output — is bitwise identical to running the
/// unfused contraction followed by the whole-container fused kernel.
///
/// # Panics
///
/// Panics if a scratch slice is smaller than the plan requires, an
/// epilogue slice is smaller than the output container, or a
/// [`TileEpilogue::needs_full_slice`] epilogue is driven with
/// `tile_rows < m`.
#[allow(clippy::too_many_arguments)]
pub fn contract_epilogue_tiled<R: Rng + ?Sized>(
    plan: &ContractPlan,
    tile_rows: usize,
    a: &[f32],
    b: &[f32],
    a_pack: &mut [f32],
    b_pack: &mut [f32],
    c_tile: &mut [f32],
    p: f32,
    rng: &mut R,
    licensed: bool,
    epi: &mut TileEpilogue<'_>,
) {
    let (m, n, k) = (plan.m, plan.n, plan.k);
    let tile_rows = tile_rows.clamp(1, m.max(1));
    assert!(
        !epi.needs_full_slice() || tile_rows == m,
        "softmax epilogues need whole-batch-slice tiles (tile_rows == m)"
    );
    let (aw, bw) = (plan.a_words(), plan.b_words());
    let a_pack = &mut a_pack[..aw];
    let b_pack = &mut b_pack[..bw];
    copy_strided(&plan.a_dims, a, 0, a_pack, 0);
    copy_strided(&plan.b_dims, b, 0, b_pack, 0);
    for g in 0..plan.batch {
        let mut r0 = 0;
        while r0 < m {
            let rows = tile_rows.min(m - r0);
            let c_tile = &mut c_tile[..rows * n];
            for v in c_tile.iter_mut() {
                *v = 0.0;
            }
            sgemm(
                rows,
                n,
                k,
                &a_pack[(g * m + r0) * k..(g * m + r0 + rows) * k],
                &b_pack[g * k * n..(g + 1) * k * n],
                c_tile,
            );
            epilogue_tile(epi, g * m + r0, rows, n, c_tile, p, rng, licensed);
            r0 += rows;
        }
    }
}

/// Copies a tensor's logical contents into a dense row-major destination.
/// Row-major sources are a single `memcpy`; other layouts are walked in
/// logical order.
///
/// # Panics
///
/// Panics if `dst` is shorter than the tensor or the tensor's rank
/// exceeds 16.
pub fn copy_tensor_into(t: &Tensor, dst: &mut [f32]) {
    let n = t.len();
    let dst = &mut dst[..n];
    // physically row-major covers permutations that only move singleton
    // axes — `is_row_major` alone would reject them and fall into the
    // rank-limited walk
    if t.layout().is_row_major_for(t.shape()) {
        dst.copy_from_slice(t.data());
        return;
    }
    let rank = t.shape().rank();
    assert!(rank <= 16, "copy_tensor_into supports rank <= 16");
    let mut idx = [0usize; 16];
    let idx = &mut idx[..rank];
    for d in dst.iter_mut() {
        *d = t.data()[t.offset(idx)];
        t.advance(idx);
    }
}

/// `out = alpha · x`.
pub fn scale_into(x: &[f32], alpha: f32, out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = alpha * v;
    }
}

/// `out = a + b` (the residual connection).
pub fn add_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// `out = activation(x)`.
pub fn activate_into(x: &[f32], kind: ActivationKind, out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = kind.apply(v);
    }
}

/// `out = x + bias` with the bias broadcast through `map`.
pub fn bias_add_into(x: &[f32], bias: &[f32], map: &BiasMap, out: &mut [f32]) {
    for (f, (o, &v)) in out.iter_mut().zip(x).enumerate() {
        *o = v + bias[map.offset(f)];
    }
}

/// Dropout with `p > 0`: one mask draw per element, survivors scaled by
/// `1/(1-p)`. Mirrors the allocating kernel's draw order (flat, every
/// element).
pub fn dropout_into<R: Rng + ?Sized>(
    x: &[f32],
    p: f32,
    rng: &mut R,
    out: &mut [f32],
    mask: &mut [f32],
) {
    let keep_scale = 1.0 / (1.0 - p);
    for ((o, m), &v) in out.iter_mut().zip(mask.iter_mut()).zip(x) {
        let mv = if rng.gen::<f32>() < p {
            0.0
        } else {
            keep_scale
        };
        *m = mv;
        *o = v * mv;
    }
}

/// Identity dropout (`p == 0`): copies the input and fills the mask with
/// ones, drawing nothing.
pub fn dropout_disabled_into(x: &[f32], out: &mut [f32], mask: &mut [f32]) {
    out[..x.len()].copy_from_slice(x);
    for m in mask[..x.len()].iter_mut() {
        *m = 1.0;
    }
}

/// `out = softmax(scaler · x)` along the lane axis — the unfused
/// scale-then-softmax pair in one sweep, numerically identical to scaling
/// into a temporary first (a single f32 multiply either way).
pub fn softmax_scaled_into(x: &[f32], scaler: f32, lane: LaneGeom, out: &mut [f32]) {
    let (len, stride) = (lane.len, lane.post);
    for pre in 0..lane.pre {
        for post in 0..lane.post {
            let base = pre * len * stride + post;
            let mut mx = f32::NEG_INFINITY;
            for v in 0..len {
                mx = mx.max(scaler * x[base + v * stride]);
            }
            let mut sum = 0.0f32;
            for v in 0..len {
                let e = (scaler * x[base + v * stride] - mx).exp();
                out[base + v * stride] = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for v in 0..len {
                out[base + v * stride] *= inv;
            }
        }
    }
}

/// Fused SM: `alpha = dropout(softmax(scaler · x))` along the lane axis,
/// with the pre-dropout softmax and the mask saved. `causal` masks key
/// positions beyond the lane's query index (the decoder variant); masked
/// positions get zero softmax/alpha/mask entries, exactly like the
/// allocating kernel.
#[allow(clippy::too_many_arguments)]
pub fn sm_into<R: Rng + ?Sized>(
    x: &[f32],
    scaler: f32,
    lane: LaneGeom,
    causal: Option<CausalMap>,
    p: f32,
    rng: &mut R,
    softmax: &mut [f32],
    alpha: &mut [f32],
    mask: &mut [f32],
) {
    let keep_scale = 1.0 / (1.0 - p);
    let (len, stride) = (lane.len, lane.post);
    for pre in 0..lane.pre {
        for post in 0..lane.post {
            let base = pre * len * stride + post;
            let visible = match causal {
                Some(c) => (c.query(pre) + 1).min(len),
                None => len,
            };
            let mut mx = f32::NEG_INFINITY;
            for v in 0..visible {
                mx = mx.max(scaler * x[base + v * stride]);
            }
            let mut sum = 0.0f32;
            for v in 0..visible {
                let e = (scaler * x[base + v * stride] - mx).exp();
                softmax[base + v * stride] = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for v in 0..len {
                let off = base + v * stride;
                if v < visible {
                    let y = softmax[off] * inv;
                    softmax[off] = y;
                    let m = if p > 0.0 && rng.gen::<f32>() < p {
                        0.0
                    } else {
                        keep_scale
                    };
                    mask[off] = m;
                    alpha[off] = y * m;
                } else {
                    softmax[off] = 0.0;
                    mask[off] = 0.0;
                    alpha[off] = 0.0;
                }
            }
        }
    }
}

/// The unfused masked softmax: the causal softmax alone (the allocating
/// interpreter runs the causal SM kernel with dropout pinned off and keeps
/// only its softmax output).
pub fn softmax_causal_into(
    x: &[f32],
    scaler: f32,
    lane: LaneGeom,
    causal: CausalMap,
    out: &mut [f32],
) {
    let (len, stride) = (lane.len, lane.post);
    for pre in 0..lane.pre {
        for post in 0..lane.post {
            let base = pre * len * stride + post;
            let visible = (causal.query(pre) + 1).min(len);
            let mut mx = f32::NEG_INFINITY;
            for v in 0..visible {
                mx = mx.max(scaler * x[base + v * stride]);
            }
            let mut sum = 0.0f32;
            for v in 0..visible {
                let e = (scaler * x[base + v * stride] - mx).exp();
                out[base + v * stride] = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for v in 0..len {
                let off = base + v * stride;
                if v < visible {
                    out[off] *= inv;
                } else {
                    out[off] = 0.0;
                }
            }
        }
    }
}

/// Layer normalization along the lane axis with learned `gamma`/`beta`
/// (dense 1-D, indexed by the lane position). Per-lane `mean`/`inv_std`
/// are written in lane order, matching the allocating kernel's stats
/// vectors.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_into(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    lane: LaneGeom,
    out: &mut [f32],
    mean_out: &mut [f32],
    inv_std_out: &mut [f32],
) {
    let (len, stride) = (lane.len, lane.post);
    for pre in 0..lane.pre {
        for post in 0..lane.post {
            let base = pre * len * stride + post;
            let l = pre * lane.post + post;
            let mut sum = 0.0f32;
            let mut sq = 0.0f32;
            for v in 0..len {
                let val = x[base + v * stride];
                sum += val;
                sq += val * val;
            }
            let mean = sum / len as f32;
            let var = (sq / len as f32 - mean * mean).max(0.0);
            let inv_std = 1.0 / (var + EPS).sqrt();
            mean_out[l] = mean;
            inv_std_out[l] = inv_std;
            for v in 0..len {
                let xhat = (x[base + v * stride] - mean) * inv_std;
                out[base + v * stride] = xhat * gamma[v] + beta[v];
            }
        }
    }
}

/// Fused BDRLN: `out = layernorm(dropout(x + bias) + residual)` along the
/// lane axis, saving the mask, the layer-norm input, and per-lane stats.
#[allow(clippy::too_many_arguments)]
pub fn bdrln_into<R: Rng + ?Sized>(
    x: &[f32],
    bias: &[f32],
    bmap: &BiasMap,
    residual: &[f32],
    gamma: &[f32],
    beta: &[f32],
    lane: LaneGeom,
    p: f32,
    rng: &mut R,
    mask: &mut [f32],
    ln_input: &mut [f32],
    out: &mut [f32],
    mean_out: &mut [f32],
    inv_std_out: &mut [f32],
) {
    let keep_scale = 1.0 / (1.0 - p);
    let (len, stride) = (lane.len, lane.post);
    for pre in 0..lane.pre {
        for post in 0..lane.post {
            let base = pre * len * stride + post;
            let l = pre * lane.post + post;
            let mut sum = 0.0f32;
            let mut sq = 0.0f32;
            for v in 0..len {
                let off = base + v * stride;
                let z = x[off] + bias[bmap.offset(off)];
                let m = if p > 0.0 && rng.gen::<f32>() < p {
                    0.0
                } else {
                    keep_scale
                };
                let li = z * m + residual[off];
                mask[off] = m;
                ln_input[off] = li;
                sum += li;
                sq += li * li;
            }
            let mean = sum / len as f32;
            let var = (sq / len as f32 - mean * mean).max(0.0);
            let inv_std = 1.0 / (var + EPS).sqrt();
            mean_out[l] = mean;
            inv_std_out[l] = inv_std;
            for v in 0..len {
                let off = base + v * stride;
                let xhat = (ln_input[off] - mean) * inv_std;
                out[off] = xhat * gamma[v] + beta[v];
            }
        }
    }
}

/// Fused BRD: `out = dropout(activation(x + bias))`, saving the
/// pre-activation and the mask.
#[allow(clippy::too_many_arguments)]
pub fn brd_act_into<R: Rng + ?Sized>(
    x: &[f32],
    bias: &[f32],
    bmap: &BiasMap,
    kind: ActivationKind,
    p: f32,
    rng: &mut R,
    pre_activation: &mut [f32],
    out: &mut [f32],
    mask: &mut [f32],
) {
    let keep_scale = 1.0 / (1.0 - p);
    for (f, &v) in x.iter().enumerate() {
        let z = v + bias[bmap.offset(f)];
        let r = kind.apply(z);
        let m = if p > 0.0 && rng.gen::<f32>() < p {
            0.0
        } else {
            keep_scale
        };
        pre_activation[f] = z;
        mask[f] = m;
        out[f] = r * m;
    }
}

/// Fused BDR (no norm): `out = dropout(x + bias) + residual`, saving the
/// mask. With `p == 0` the mask multiply is skipped entirely, matching
/// the allocating path's identity dropout.
#[allow(clippy::too_many_arguments)]
pub fn bdr_into<R: Rng + ?Sized>(
    x: &[f32],
    bias: &[f32],
    bmap: &BiasMap,
    residual: &[f32],
    p: f32,
    rng: &mut R,
    mask: &mut [f32],
    out: &mut [f32],
) {
    if p > 0.0 {
        let keep_scale = 1.0 / (1.0 - p);
        for (f, &v) in x.iter().enumerate() {
            let m = if rng.gen::<f32>() < p {
                0.0
            } else {
                keep_scale
            };
            mask[f] = m;
            out[f] = (v + bias[bmap.offset(f)]) * m + residual[f];
        }
    } else {
        for (f, &v) in x.iter().enumerate() {
            mask[f] = 1.0;
            out[f] = (v + bias[bmap.offset(f)]) + residual[f];
        }
    }
}

// ---------------------------------------------------------------------
// Certificate-licensed unchecked twins.
//
// Each kernel above that indexes through precomputed geometry (lane
// decompositions, bias maps, causal maps) has an `unsafe` twin here with
// the per-element bounds checks removed (`get_unchecked`, exact-chunk
// lanes) and the dropout/causal selects made branch-free, so the inner
// loops autovectorize. The zip-iterator kernels (`scale_into`,
// `add_into`, `activate_into`, `dropout_into`) already compile without
// bounds checks and need no twins.
//
// Arithmetic is mirrored statement-for-statement from the checked
// kernels — same operation order, same RNG draw count and order — so the
// results are bitwise identical (pinned by `tests/unchecked_equivalence`).
// These functions are dispatched only for steps licensed by an
// `AccessCertificate` (see `xform_core::access`); every other step takes
// the checked kernel. The dropout select `((draw >= p) as u32 as f32) *
// keep_scale` is exact: `1.0 * keep_scale` is an identity and `0.0 *
// keep_scale` is `+0.0`, matching the checked branches bit for bit.
// ---------------------------------------------------------------------

/// Draws the dropout mask value branch-free. Must be called only when
/// `p > 0` (the checked kernels skip the draw entirely at `p == 0`).
#[inline(always)]
fn mask_select<R: Rng + ?Sized>(p: f32, keep_scale: f32, rng: &mut R) -> f32 {
    ((rng.gen::<f32>() >= p) as u32 as f32) * keep_scale
}

/// [`bias_add_into`] without per-element bounds checks.
///
/// # Safety
///
/// `x.len() >= out.len()` and `map.offset(f) < bias.len()` for every
/// `f < out.len()` — proven by the access certificate before dispatch.
pub unsafe fn bias_add_into_unchecked(x: &[f32], bias: &[f32], map: &BiasMap, out: &mut [f32]) {
    unsafe {
        for f in 0..out.len() {
            *out.get_unchecked_mut(f) = *x.get_unchecked(f) + *bias.get_unchecked(map.offset(f));
        }
    }
}

/// [`softmax_scaled_into`] specialized to unit-stride lanes
/// (`lane.post == 1`) with exact-chunk iteration and no bounds checks.
///
/// # Safety
///
/// `lane.post == 1` and `x.len() >= lane.elements()`,
/// `out.len() >= lane.elements()` — proven by the access certificate
/// (in-bounds + unit-stride) before dispatch.
pub unsafe fn softmax_scaled_into_unchecked(
    x: &[f32],
    scaler: f32,
    lane: LaneGeom,
    out: &mut [f32],
) {
    debug_assert_eq!(lane.post, 1);
    let len = lane.len;
    unsafe {
        for pre in 0..lane.pre {
            let base = pre * len;
            let xl = x.get_unchecked(base..base + len);
            let ol = out.get_unchecked_mut(base..base + len);
            let mut mx = f32::NEG_INFINITY;
            for &v in xl {
                mx = mx.max(scaler * v);
            }
            let mut sum = 0.0f32;
            for (o, &v) in ol.iter_mut().zip(xl) {
                let e = (scaler * v - mx).exp();
                *o = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for o in ol.iter_mut() {
                *o *= inv;
            }
        }
    }
}

/// [`softmax_causal_into`] specialized to unit-stride lanes: the visible
/// prefix is an exact chunk, the masked tail a plain fill — no
/// per-element `if v < visible` branch.
///
/// # Safety
///
/// As [`softmax_scaled_into_unchecked`].
pub unsafe fn softmax_causal_into_unchecked(
    x: &[f32],
    scaler: f32,
    lane: LaneGeom,
    causal: CausalMap,
    out: &mut [f32],
) {
    debug_assert_eq!(lane.post, 1);
    let len = lane.len;
    unsafe {
        for pre in 0..lane.pre {
            let base = pre * len;
            let visible = (causal.query(pre) + 1).min(len);
            let xl = x.get_unchecked(base..base + visible);
            let ol = out.get_unchecked_mut(base..base + len);
            let mut mx = f32::NEG_INFINITY;
            for &v in xl {
                mx = mx.max(scaler * v);
            }
            let mut sum = 0.0f32;
            for (o, &v) in ol.get_unchecked_mut(..visible).iter_mut().zip(xl) {
                let e = (scaler * v - mx).exp();
                *o = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for o in ol.get_unchecked_mut(..visible).iter_mut() {
                *o *= inv;
            }
            for o in ol.get_unchecked_mut(visible..).iter_mut() {
                *o = 0.0;
            }
        }
    }
}

/// [`sm_into`] specialized to unit-stride lanes: exact-chunk visible
/// prefix, select-based dropout, plain-fill masked tail. The RNG draw
/// count and order match the checked kernel exactly — one draw per
/// visible element when `p > 0`, none otherwise.
///
/// # Safety
///
/// `lane.post == 1` and every output slice holds at least
/// `lane.elements()` words — proven by the access certificate.
#[allow(clippy::too_many_arguments)]
pub unsafe fn sm_into_unchecked<R: Rng + ?Sized>(
    x: &[f32],
    scaler: f32,
    lane: LaneGeom,
    causal: Option<CausalMap>,
    p: f32,
    rng: &mut R,
    softmax: &mut [f32],
    alpha: &mut [f32],
    mask: &mut [f32],
) {
    debug_assert_eq!(lane.post, 1);
    let keep_scale = 1.0 / (1.0 - p);
    let len = lane.len;
    unsafe {
        for pre in 0..lane.pre {
            let base = pre * len;
            let visible = match causal {
                Some(c) => (c.query(pre) + 1).min(len),
                None => len,
            };
            let xl = x.get_unchecked(base..base + visible);
            let sl = softmax.get_unchecked_mut(base..base + len);
            let al = alpha.get_unchecked_mut(base..base + len);
            let ml = mask.get_unchecked_mut(base..base + len);
            let mut mx = f32::NEG_INFINITY;
            for &v in xl {
                mx = mx.max(scaler * v);
            }
            let mut sum = 0.0f32;
            for (s, &v) in sl.get_unchecked_mut(..visible).iter_mut().zip(xl) {
                let e = (scaler * v - mx).exp();
                *s = e;
                sum += e;
            }
            let inv = 1.0 / sum;
            for v in 0..visible {
                let y = *sl.get_unchecked(v) * inv;
                *sl.get_unchecked_mut(v) = y;
                let m = if p > 0.0 {
                    mask_select(p, keep_scale, rng)
                } else {
                    keep_scale
                };
                *ml.get_unchecked_mut(v) = m;
                *al.get_unchecked_mut(v) = y * m;
            }
            for v in visible..len {
                *sl.get_unchecked_mut(v) = 0.0;
                *ml.get_unchecked_mut(v) = 0.0;
                *al.get_unchecked_mut(v) = 0.0;
            }
        }
    }
}

/// [`layernorm_into`] specialized to unit-stride lanes with exact-chunk
/// iteration and no bounds checks.
///
/// # Safety
///
/// `lane.post == 1`, `x.len() >= lane.elements()`,
/// `out.len() >= lane.elements()`, `gamma.len() >= lane.len`,
/// `beta.len() >= lane.len`, and both stats slices hold at least
/// `lane.lanes()` words — proven by the access certificate.
#[allow(clippy::too_many_arguments)]
pub unsafe fn layernorm_into_unchecked(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    lane: LaneGeom,
    out: &mut [f32],
    mean_out: &mut [f32],
    inv_std_out: &mut [f32],
) {
    debug_assert_eq!(lane.post, 1);
    let len = lane.len;
    unsafe {
        let g = gamma.get_unchecked(..len);
        let b = beta.get_unchecked(..len);
        for pre in 0..lane.pre {
            let base = pre * len;
            let xl = x.get_unchecked(base..base + len);
            let ol = out.get_unchecked_mut(base..base + len);
            let mut sum = 0.0f32;
            let mut sq = 0.0f32;
            for &val in xl {
                sum += val;
                sq += val * val;
            }
            let mean = sum / len as f32;
            let var = (sq / len as f32 - mean * mean).max(0.0);
            let inv_std = 1.0 / (var + EPS).sqrt();
            *mean_out.get_unchecked_mut(pre) = mean;
            *inv_std_out.get_unchecked_mut(pre) = inv_std;
            for (v, (o, &val)) in ol.iter_mut().zip(xl).enumerate() {
                let xhat = (val - mean) * inv_std;
                *o = xhat * *g.get_unchecked(v) + *b.get_unchecked(v);
            }
        }
    }
}

/// [`bdrln_into`] specialized to unit-stride lanes with select-based
/// dropout. RNG draw count and order match the checked kernel (one draw
/// per element when `p > 0`, none otherwise).
///
/// # Safety
///
/// As [`layernorm_into_unchecked`], plus `bmap.offset(f) < bias.len()`
/// and `residual`/`mask`/`ln_input` at least `lane.elements()` words —
/// proven by the access certificate.
#[allow(clippy::too_many_arguments)]
pub unsafe fn bdrln_into_unchecked<R: Rng + ?Sized>(
    x: &[f32],
    bias: &[f32],
    bmap: &BiasMap,
    residual: &[f32],
    gamma: &[f32],
    beta: &[f32],
    lane: LaneGeom,
    p: f32,
    rng: &mut R,
    mask: &mut [f32],
    ln_input: &mut [f32],
    out: &mut [f32],
    mean_out: &mut [f32],
    inv_std_out: &mut [f32],
) {
    debug_assert_eq!(lane.post, 1);
    let keep_scale = 1.0 / (1.0 - p);
    let len = lane.len;
    unsafe {
        let g = gamma.get_unchecked(..len);
        let b = beta.get_unchecked(..len);
        for pre in 0..lane.pre {
            let base = pre * len;
            let mut sum = 0.0f32;
            let mut sq = 0.0f32;
            for v in 0..len {
                let off = base + v;
                let z = *x.get_unchecked(off) + *bias.get_unchecked(bmap.offset(off));
                let m = if p > 0.0 {
                    mask_select(p, keep_scale, rng)
                } else {
                    keep_scale
                };
                let li = z * m + *residual.get_unchecked(off);
                *mask.get_unchecked_mut(off) = m;
                *ln_input.get_unchecked_mut(off) = li;
                sum += li;
                sq += li * li;
            }
            let mean = sum / len as f32;
            let var = (sq / len as f32 - mean * mean).max(0.0);
            let inv_std = 1.0 / (var + EPS).sqrt();
            *mean_out.get_unchecked_mut(pre) = mean;
            *inv_std_out.get_unchecked_mut(pre) = inv_std;
            let li = ln_input.get_unchecked(base..base + len);
            let ol = out.get_unchecked_mut(base..base + len);
            for (v, (o, &val)) in ol.iter_mut().zip(li).enumerate() {
                let xhat = (val - mean) * inv_std;
                *o = xhat * *g.get_unchecked(v) + *b.get_unchecked(v);
            }
        }
    }
}

/// [`brd_act_into`] without per-element bounds checks and with
/// select-based dropout.
///
/// # Safety
///
/// Every output slice holds at least `x.len()` words and
/// `bmap.offset(f) < bias.len()` for every `f < x.len()` — proven by the
/// access certificate.
#[allow(clippy::too_many_arguments)]
pub unsafe fn brd_act_into_unchecked<R: Rng + ?Sized>(
    x: &[f32],
    bias: &[f32],
    bmap: &BiasMap,
    kind: ActivationKind,
    p: f32,
    rng: &mut R,
    pre_activation: &mut [f32],
    out: &mut [f32],
    mask: &mut [f32],
) {
    let keep_scale = 1.0 / (1.0 - p);
    unsafe {
        for (f, &v) in x.iter().enumerate() {
            let z = v + *bias.get_unchecked(bmap.offset(f));
            let r = kind.apply(z);
            let m = if p > 0.0 {
                mask_select(p, keep_scale, rng)
            } else {
                keep_scale
            };
            *pre_activation.get_unchecked_mut(f) = z;
            *mask.get_unchecked_mut(f) = m;
            *out.get_unchecked_mut(f) = r * m;
        }
    }
}

/// [`bdr_into`] without per-element bounds checks and with select-based
/// dropout. The `p == 0` arm mirrors the checked kernel's identity
/// dropout exactly (no mask multiply, no draws).
///
/// # Safety
///
/// As [`brd_act_into_unchecked`], plus `residual.len() >= x.len()`.
#[allow(clippy::too_many_arguments)]
pub unsafe fn bdr_into_unchecked<R: Rng + ?Sized>(
    x: &[f32],
    bias: &[f32],
    bmap: &BiasMap,
    residual: &[f32],
    p: f32,
    rng: &mut R,
    mask: &mut [f32],
    out: &mut [f32],
) {
    unsafe {
        if p > 0.0 {
            let keep_scale = 1.0 / (1.0 - p);
            for (f, &v) in x.iter().enumerate() {
                let m = mask_select(p, keep_scale, rng);
                *mask.get_unchecked_mut(f) = m;
                *out.get_unchecked_mut(f) =
                    (v + *bias.get_unchecked(bmap.offset(f))) * m + *residual.get_unchecked(f);
            }
        } else {
            for (f, &v) in x.iter().enumerate() {
                *mask.get_unchecked_mut(f) = 1.0;
                *out.get_unchecked_mut(f) =
                    (v + *bias.get_unchecked(bmap.offset(f))) + *residual.get_unchecked(f);
            }
        }
    }
}

/// Locally-certified dispatcher for [`softmax_scaled_into_unchecked`]:
/// runs the unchecked twin when the lane geometry discharges its safety
/// obligations right here (`post == 1`, buffers at least
/// `lane.elements()` words), the checked kernel otherwise. Returns `true`
/// when the licensed path ran — callers without a plan-level access
/// certificate (e.g. benchmarks) use this to exercise the unchecked
/// loops from safe code.
pub fn softmax_scaled_into_dispatch(
    x: &[f32],
    scaler: f32,
    lane: LaneGeom,
    out: &mut [f32],
) -> bool {
    if lane.post == 1 && x.len() >= lane.elements() && out.len() >= lane.elements() {
        // SAFETY: every obligation of the twin was checked just above.
        unsafe { softmax_scaled_into_unchecked(x, scaler, lane, out) };
        true
    } else {
        softmax_scaled_into(x, scaler, lane, out);
        false
    }
}

/// Locally-certified dispatcher for [`layernorm_into_unchecked`]; see
/// [`softmax_scaled_into_dispatch`]. Returns `true` when the licensed
/// path ran.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_into_dispatch(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    lane: LaneGeom,
    out: &mut [f32],
    mean_out: &mut [f32],
    inv_std_out: &mut [f32],
) -> bool {
    if lane.post == 1
        && x.len() >= lane.elements()
        && out.len() >= lane.elements()
        && gamma.len() >= lane.len
        && beta.len() >= lane.len
        && mean_out.len() >= lane.lanes()
        && inv_std_out.len() >= lane.lanes()
    {
        // SAFETY: every obligation of the twin was checked just above.
        unsafe { layernorm_into_unchecked(x, gamma, beta, lane, out, mean_out, inv_std_out) };
        true
    } else {
        layernorm_into(x, gamma, beta, lane, out, mean_out, inv_std_out);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::{Axis, Shape};
    use crate::einsum::EinsumSpec;
    use crate::fused;
    use crate::layout::Layout;
    use crate::ops::elementwise::{bias_add, scale};
    use crate::ops::layernorm::layernorm;
    use crate::ops::softmax::softmax;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The vendored `StdRng` has no `PartialEq`; equal next draws prove
    /// equal state for its counter-based stream.
    fn assert_same_rng_state(a: &mut StdRng, b: &mut StdRng, what: &str) {
        assert_eq!(a.next_u64(), b.next_u64(), "RNG streams diverged: {what}");
    }

    fn rand_t(spec: &str, sizes: &[(char, usize)], seed: u64) -> Tensor {
        let shape = Shape::from_spec(spec, sizes).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(shape, &Uniform::new(-1.0, 1.0), &mut rng)
    }

    const SIZES: [(char, usize); 5] = [('b', 2), ('j', 3), ('k', 4), ('i', 5), ('u', 6)];

    fn lane_of(t: &Tensor, axis: char) -> LaneGeom {
        LaneGeom::new(t.shape().sizes(), t.shape().index_of(Axis(axis)).unwrap())
    }

    fn bmap_of(out: &Tensor, bias: &Tensor) -> BiasMap {
        let sizes = out.shape().sizes();
        let rm = Layout::row_major(sizes.len()).strides(out.shape());
        let brm = Layout::row_major(bias.shape().rank()).strides(bias.shape());
        let dims = bias
            .shape()
            .axes()
            .iter()
            .enumerate()
            .map(|(bi, &ax)| {
                let p = out.shape().index_of(ax).unwrap();
                (rm[p], sizes[p], brm[bi])
            })
            .collect();
        BiasMap { dims }
    }

    #[test]
    fn softmax_scaled_into_is_bitwise_equal() {
        let x = rand_t("bjk", &SIZES, 1);
        let expect = softmax(&scale(&x, 0.25), Axis('k')).unwrap();
        let mut out = vec![0.0f32; x.len()];
        softmax_scaled_into(x.data(), 0.25, lane_of(&x, 'k'), &mut out);
        assert_eq!(out.as_slice(), expect.data());
    }

    #[test]
    fn sm_into_matches_fused_sm_without_dropout() {
        let x = rand_t("bjk", &SIZES, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let want = fused::sm(&x, 0.5, Axis('k'), 0.0, &mut rng).unwrap();
        let n = x.len();
        let (mut s, mut a, mut m) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut rng2 = StdRng::seed_from_u64(9);
        sm_into(
            x.data(),
            0.5,
            lane_of(&x, 'k'),
            None,
            0.0,
            &mut rng2,
            &mut s,
            &mut a,
            &mut m,
        );
        assert_eq!(s.as_slice(), want.softmax.data());
        assert_eq!(a.as_slice(), want.alpha.data());
        assert_eq!(m.as_slice(), want.mask.data());
    }

    #[test]
    fn sm_into_causal_matches_fused_sm_causal() {
        let sizes = [('b', 2), ('j', 4), ('k', 4)];
        let x = rand_t("bjk", &sizes, 3);
        let mut rng = StdRng::seed_from_u64(10);
        let want = fused::sm_causal(&x, 0.7, Axis('j'), Axis('k'), 0.3, &mut rng).unwrap();
        let n = x.len();
        let (mut s, mut a, mut m) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut rng2 = StdRng::seed_from_u64(10);
        // query axis j sits immediately before k: div = 1, len = 4
        sm_into(
            x.data(),
            0.7,
            lane_of(&x, 'k'),
            Some(CausalMap {
                div: 1,
                len: 4,
                base: 0,
            }),
            0.3,
            &mut rng2,
            &mut s,
            &mut a,
            &mut m,
        );
        assert_eq!(s.as_slice(), want.softmax.data());
        assert_eq!(a.as_slice(), want.alpha.data());
        assert_eq!(m.as_slice(), want.mask.data());
    }

    #[test]
    fn softmax_causal_into_matches_sm_causal_softmax() {
        let sizes = [('b', 2), ('j', 4), ('k', 4)];
        let x = rand_t("bjk", &sizes, 4);
        let mut rng = StdRng::seed_from_u64(11);
        let want = fused::sm_causal(&x, 1.0, Axis('j'), Axis('k'), 0.0, &mut rng).unwrap();
        let mut out = vec![0.0f32; x.len()];
        softmax_causal_into(
            x.data(),
            1.0,
            lane_of(&x, 'k'),
            CausalMap {
                div: 1,
                len: 4,
                base: 0,
            },
            &mut out,
        );
        assert_eq!(out.as_slice(), want.softmax.data());
    }

    #[test]
    fn layernorm_into_matches_with_stats() {
        let x = rand_t("bji", &SIZES, 5);
        let gamma = rand_t("i", &SIZES, 6);
        let beta = rand_t("i", &SIZES, 7);
        let (want, stats) = layernorm(&x, Axis('i'), &gamma, &beta).unwrap();
        let lane = lane_of(&x, 'i');
        let mut out = vec![0.0f32; x.len()];
        let mut mean = vec![0.0f32; lane.lanes()];
        let mut inv = vec![0.0f32; lane.lanes()];
        layernorm_into(
            x.data(),
            gamma.data(),
            beta.data(),
            lane,
            &mut out,
            &mut mean,
            &mut inv,
        );
        assert_eq!(out.as_slice(), want.data());
        assert_eq!(mean.as_slice(), stats.mean.as_slice());
        assert_eq!(inv.as_slice(), stats.inv_std.as_slice());
    }

    #[test]
    fn bdrln_into_matches_fused() {
        let x = rand_t("bji", &SIZES, 8);
        let bias = rand_t("i", &SIZES, 9);
        let res = rand_t("bji", &SIZES, 10);
        let gamma = rand_t("i", &SIZES, 11);
        let beta = rand_t("i", &SIZES, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let want = fused::bdrln(&x, &bias, &res, &gamma, &beta, Axis('i'), 0.4, &mut rng).unwrap();
        let lane = lane_of(&x, 'i');
        let n = x.len();
        let (mut m, mut li, mut out) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut mean = vec![0.0f32; lane.lanes()];
        let mut inv = vec![0.0f32; lane.lanes()];
        let mut rng2 = StdRng::seed_from_u64(13);
        bdrln_into(
            x.data(),
            bias.data(),
            &bmap_of(&x, &bias),
            res.data(),
            gamma.data(),
            beta.data(),
            lane,
            0.4,
            &mut rng2,
            &mut m,
            &mut li,
            &mut out,
            &mut mean,
            &mut inv,
        );
        assert_eq!(m.as_slice(), want.mask.data());
        assert_eq!(li.as_slice(), want.ln_input.data());
        assert_eq!(out.as_slice(), want.out.data());
        assert_eq!(mean.as_slice(), want.stats.mean.as_slice());
        assert_eq!(inv.as_slice(), want.stats.inv_std.as_slice());
    }

    #[test]
    fn brd_act_into_matches_fused() {
        let x = rand_t("bju", &SIZES, 14);
        let bias = rand_t("u", &SIZES, 15);
        let mut rng = StdRng::seed_from_u64(16);
        let want = fused::brd_act(&x, &bias, ActivationKind::Gelu, 0.2, &mut rng).unwrap();
        let n = x.len();
        let (mut pre, mut out, mut m) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut rng2 = StdRng::seed_from_u64(16);
        brd_act_into(
            x.data(),
            bias.data(),
            &bmap_of(&x, &bias),
            ActivationKind::Gelu,
            0.2,
            &mut rng2,
            &mut pre,
            &mut out,
            &mut m,
        );
        assert_eq!(pre.as_slice(), want.pre_activation.data());
        assert_eq!(out.as_slice(), want.out.data());
        assert_eq!(m.as_slice(), want.mask.data());
    }

    #[test]
    fn bias_add_into_matches_broadcast() {
        let x = rand_t("bjk", &SIZES, 17);
        let bias = rand_t("k", &SIZES, 18);
        let want = bias_add(&x, &bias).unwrap();
        let mut out = vec![0.0f32; x.len()];
        bias_add_into(x.data(), bias.data(), &bmap_of(&x, &bias), &mut out);
        assert_eq!(out.as_slice(), want.data());
        // multi-axis bias
        let bias2 = rand_t("jk", &SIZES, 19);
        let want2 = bias_add(&x, &bias2).unwrap();
        bias_add_into(x.data(), bias2.data(), &bmap_of(&x, &bias2), &mut out);
        assert_eq!(out.as_slice(), want2.data());
    }

    #[test]
    fn contract_into_matches_contract() {
        let sizes = [('p', 3), ('h', 2), ('b', 2), ('j', 4), ('k', 5)];
        let a = rand_t("phbk", &sizes, 20);
        let b = rand_t("phbj", &sizes, 21);
        let spec: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        let want = crate::contract::contract(&spec, &a, &b, &Layout::row_major(4)).unwrap();
        // compile the plan by hand the way core::arena does
        let class = spec.classify().unwrap();
        let gs = spec.gemm_sizes(a.shape(), b.shape()).unwrap();
        let size_of =
            |ax: Axis| -> usize { a.shape().size(ax).or_else(|_| b.shape().size(ax)).unwrap() };
        let gather_dims = |groups: &[Axis], t: &Tensor| {
            let total: usize = groups.iter().map(|&ax| size_of(ax)).product();
            let mut dims = Vec::new();
            let mut ps = total;
            for &ax in groups {
                let len = size_of(ax);
                ps /= len;
                dims.push((len, t.strides()[t.shape().index_of(ax).unwrap()], ps));
            }
            dims
        };
        let a_groups: Vec<Axis> = class
            .batch
            .iter()
            .chain(&class.m)
            .chain(&class.k)
            .copied()
            .collect();
        let b_groups: Vec<Axis> = class
            .batch
            .iter()
            .chain(&class.k)
            .chain(&class.n)
            .copied()
            .collect();
        let c_groups: Vec<Axis> = class
            .batch
            .iter()
            .chain(&class.m)
            .chain(&class.n)
            .copied()
            .collect();
        let c_total: usize = c_groups.iter().map(|&ax| size_of(ax)).product();
        let mut c_dims = Vec::new();
        let mut ps = c_total;
        for &ax in &c_groups {
            let len = size_of(ax);
            ps /= len;
            let os = want.strides()[want.shape().index_of(ax).unwrap()];
            c_dims.push((len, ps, os));
        }
        let plan = ContractPlan {
            a_dims: gather_dims(&a_groups, &a),
            b_dims: gather_dims(&b_groups, &b),
            c_dims,
            batch: gs.batch,
            m: gs.m,
            n: gs.n,
            k: gs.k,
        };
        let mut out = vec![0.0f32; want.len()];
        let mut ap = vec![0.0f32; plan.a_words()];
        let mut bp = vec![0.0f32; plan.b_words()];
        let mut cp = vec![0.0f32; plan.c_words()];
        contract_into(
            &plan,
            a.data(),
            b.data(),
            &mut out,
            &mut ap,
            &mut bp,
            &mut cp,
        );
        assert_eq!(out.as_slice(), want.data());
    }

    #[test]
    fn epilogue_plan_swaps_the_attention_contraction_into_identity() {
        let sizes = [('p', 3), ('h', 2), ('b', 2), ('j', 4), ('k', 5)];
        let kk = rand_t("phbk", &sizes, 30);
        let qq = rand_t("phbj", &sizes, 31);
        let out = Shape::from_spec("hbjk", &sizes).unwrap();
        let spec: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        // natural order scatters (j and k transpose); the swap is identity
        let ep = epilogue_contract_plan(
            &spec,
            kk.shape(),
            kk.strides(),
            qq.shape(),
            qq.strides(),
            &out,
        )
        .expect("QKT must compile via the swapped order");
        assert!(ep.swapped);
        assert_eq!(ep.plan.m, 4); // j — the query axis becomes M
        assert_eq!(ep.plan.n, 5); // k — the softmax axis becomes N
        assert_eq!(ep.plan.batch, 4); // h·b
        assert_eq!(ep.plan.k, 3);
        // a genuinely scattered output order compiles under neither order
        let bad = Shape::from_spec("kjbh", &sizes).unwrap();
        assert!(epilogue_contract_plan(
            &spec,
            kk.shape(),
            kk.strides(),
            qq.shape(),
            qq.strides(),
            &bad,
        )
        .is_none());
    }

    /// The tiled mega-kernel against the unfused contract-then-fused-
    /// kernel sequence, bitwise, including the dropout RNG stream.
    #[test]
    fn contract_epilogue_tiled_matches_unfused_bitwise() {
        let sizes = [('p', 3), ('h', 2), ('b', 2), ('j', 4), ('k', 5)];
        let kk = rand_t("phbk", &sizes, 32);
        let qq = rand_t("phbj", &sizes, 33);
        let spec: EinsumSpec = "phbk,phbj->hbjk".parse().unwrap();
        let out_shape = Shape::from_spec("hbjk", &sizes).unwrap();
        let ep = epilogue_contract_plan(
            &spec,
            kk.shape(),
            kk.strides(),
            qq.shape(),
            qq.strides(),
            &out_shape,
        )
        .unwrap();
        let total = out_shape.num_elements();
        let (p, scaler) = (0.3f32, 0.5f32);
        let causal = Some(CausalMap {
            div: 1,
            len: 4,
            base: 0,
        });

        // unfused: full contraction, then the SM kernel over the container
        let beta = crate::contract::contract(&spec, &kk, &qq, &Layout::row_major(4)).unwrap();
        let lane = LaneGeom {
            pre: total / 5,
            len: 5,
            post: 1,
        };
        let mut rng_a = StdRng::seed_from_u64(9);
        let (mut sm_a, mut al_a, mut mk_a) = (vec![0.0; total], vec![0.0; total], vec![0.0; total]);
        sm_into(
            beta.data(),
            scaler,
            lane,
            causal,
            p,
            &mut rng_a,
            &mut sm_a,
            &mut al_a,
            &mut mk_a,
        );

        for licensed in [false, true] {
            let mut rng_b = StdRng::seed_from_u64(9);
            let (mut sm_b, mut al_b, mut mk_b) =
                (vec![0.0; total], vec![0.0; total], vec![0.0; total]);
            let mut ap = vec![0.0; ep.plan.a_words()];
            let mut bp = vec![0.0; ep.plan.b_words()];
            let mut ct = vec![0.0; ep.plan.m * ep.plan.n];
            let mut epi = TileEpilogue::Softmax {
                scaler,
                causal,
                softmax: &mut sm_b,
                alpha: &mut al_b,
                mask: &mut mk_b,
            };
            // swapped: the query operand feeds the A pack
            contract_epilogue_tiled(
                &ep.plan,
                ep.plan.m,
                qq.data(),
                kk.data(),
                &mut ap,
                &mut bp,
                &mut ct,
                p,
                &mut rng_b,
                licensed,
                &mut epi,
            );
            assert_bits("softmax", &sm_a, &sm_b);
            assert_bits("alpha", &al_a, &al_b);
            assert_bits("mask", &mk_a, &mk_b);
            assert_same_rng_state(&mut rng_a.clone(), &mut rng_b, &format!("sm {licensed}"));
        }
    }

    /// Row-tiled bias epilogues (BRD / BDR shape: batch-free, bias on M)
    /// against the unfused sequence, bitwise, at several tile heights.
    #[test]
    fn row_tiled_bias_epilogues_match_unfused_bitwise() {
        let sizes = [('u', 6), ('i', 4), ('b', 2), ('j', 5)];
        let w = rand_t("ui", &sizes, 40);
        let x = rand_t("ibj", &sizes, 41);
        let bias = rand_t("u", &sizes, 42);
        let spec: EinsumSpec = "ui,ibj->ubj".parse().unwrap();
        let out_shape = Shape::from_spec("ubj", &sizes).unwrap();
        let ep = epilogue_contract_plan(
            &spec,
            w.shape(),
            w.strides(),
            x.shape(),
            x.strides(),
            &out_shape,
        )
        .unwrap();
        assert!(!ep.swapped);
        assert_eq!((ep.plan.batch, ep.plan.m), (1, 6));
        let total = out_shape.num_elements();
        let n = ep.plan.n;
        let p = 0.25f32;
        let residual = rand_t("ubj", &sizes, 43);

        // unfused reference: full contraction, then the fused kernel
        let mm = crate::contract::contract(&spec, &w, &x, &Layout::row_major(3)).unwrap();
        let bmap = BiasMap {
            dims: vec![(n, 6, 1)],
        };
        let mut rng_a = StdRng::seed_from_u64(11);
        let (mut pre_a, mut out_a, mut mk_a) =
            (vec![0.0; total], vec![0.0; total], vec![0.0; total]);
        brd_act_into(
            mm.data(),
            bias.data(),
            &bmap,
            ActivationKind::Gelu,
            p,
            &mut rng_a,
            &mut pre_a,
            &mut out_a,
            &mut mk_a,
        );
        let mut rng_ar = StdRng::seed_from_u64(13);
        let (mut mkr_a, mut outr_a) = (vec![0.0; total], vec![0.0; total]);
        bdr_into(
            mm.data(),
            bias.data(),
            &bmap,
            residual.data(),
            p,
            &mut rng_ar,
            &mut mkr_a,
            &mut outr_a,
        );

        for tile_rows in [1usize, 2, 4, 6] {
            for licensed in [false, true] {
                let mut ap = vec![0.0; ep.plan.a_words()];
                let mut bp = vec![0.0; ep.plan.b_words()];
                let mut ct = vec![0.0; tile_rows * n];
                let mut rng_b = StdRng::seed_from_u64(11);
                let (mut pre_b, mut out_b, mut mk_b) =
                    (vec![0.0; total], vec![0.0; total], vec![0.0; total]);
                let mut epi = TileEpilogue::BiasActDrop {
                    bias: bias.data(),
                    bmap: &bmap,
                    kind: ActivationKind::Gelu,
                    pre_activation: &mut pre_b,
                    out: &mut out_b,
                    mask: &mut mk_b,
                };
                contract_epilogue_tiled(
                    &ep.plan,
                    tile_rows,
                    w.data(),
                    x.data(),
                    &mut ap,
                    &mut bp,
                    &mut ct,
                    p,
                    &mut rng_b,
                    licensed,
                    &mut epi,
                );
                assert_bits("pre_activation", &pre_a, &pre_b);
                assert_bits("brd out", &out_a, &out_b);
                assert_bits("brd mask", &mk_a, &mk_b);
                assert_same_rng_state(&mut rng_a.clone(), &mut rng_b, "brd");

                let mut rng_br = StdRng::seed_from_u64(13);
                let (mut mkr_b, mut outr_b) = (vec![0.0; total], vec![0.0; total]);
                let mut epi = TileEpilogue::BiasDropResidual {
                    bias: bias.data(),
                    bmap: &bmap,
                    residual: residual.data(),
                    mask: &mut mkr_b,
                    out: &mut outr_b,
                };
                contract_epilogue_tiled(
                    &ep.plan,
                    tile_rows,
                    w.data(),
                    x.data(),
                    &mut ap,
                    &mut bp,
                    &mut ct,
                    p,
                    &mut rng_br,
                    licensed,
                    &mut epi,
                );
                assert_bits("bdr mask", &mkr_a, &mkr_b);
                assert_bits("bdr out", &outr_a, &outr_b);
                assert_same_rng_state(&mut rng_ar.clone(), &mut rng_br, "bdr");
            }
        }
    }

    #[test]
    fn copy_tensor_into_handles_permuted_layouts() {
        let t = rand_t("bjk", &SIZES, 22);
        let tp = t.relayout(&Layout::from_axis_order(t.shape(), "kbj").unwrap());
        let mut dst = vec![0.0f32; t.len()];
        copy_tensor_into(&tp, &mut dst);
        assert_eq!(dst.as_slice(), t.data());
        copy_tensor_into(&t, &mut dst);
        assert_eq!(dst.as_slice(), t.data());
    }

    fn assert_bits(name: &str, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "{name}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}: word {i}: {x} vs {y}");
        }
    }

    /// Every unchecked twin against its checked original, bitwise, at
    /// dims small enough for Miri — this is the test CI interprets under
    /// `cargo miri test` to prove the `get_unchecked` paths UB-free.
    /// Broad randomized coverage lives in `tests/unchecked_equivalence`.
    #[test]
    fn unchecked_twins_match_checked_bitwise() {
        let lane = LaneGeom {
            pre: 3,
            len: 4,
            post: 1,
        };
        let n = lane.elements();
        let mut rng = StdRng::seed_from_u64(77);
        let dist = Uniform::new(-2.0f32, 2.0);
        let draw = |rng: &mut StdRng, n: usize| -> Vec<f32> {
            use rand::distributions::Distribution;
            (0..n).map(|_| dist.sample(rng)).collect()
        };
        let x = draw(&mut rng, n);
        let bias = draw(&mut rng, lane.len);
        let residual = draw(&mut rng, n);
        let gamma = draw(&mut rng, lane.len);
        let beta = draw(&mut rng, lane.len);
        let map = BiasMap {
            dims: vec![(1, lane.len, 1)],
        };
        let causal = CausalMap {
            div: 1,
            len: 3,
            base: 0,
        };

        for p in [0.0f32, 0.4] {
            let mut c = vec![vec![0.0f32; n]; 5];
            let mut u = vec![vec![7.0f32; n]; 5];

            bias_add_into(&x, &bias, &map, &mut c[0]);
            unsafe { bias_add_into_unchecked(&x, &bias, &map, &mut u[0]) };
            assert_bits("bias_add", &c[0], &u[0]);

            softmax_scaled_into(&x, 0.5, lane, &mut c[0]);
            unsafe { softmax_scaled_into_unchecked(&x, 0.5, lane, &mut u[0]) };
            assert_bits("softmax_scaled", &c[0], &u[0]);

            softmax_causal_into(&x, 0.5, lane, causal, &mut c[0]);
            unsafe { softmax_causal_into_unchecked(&x, 0.5, lane, causal, &mut u[0]) };
            assert_bits("softmax_causal", &c[0], &u[0]);

            let mut r1 = StdRng::seed_from_u64(5);
            let mut r2 = StdRng::seed_from_u64(5);
            #[allow(clippy::indexing_slicing)]
            {
                let [s1, a1, m1, ..] = &mut c[..] else {
                    unreachable!()
                };
                sm_into(&x, 0.5, lane, Some(causal), p, &mut r1, s1, a1, m1);
                let [s2, a2, m2, ..] = &mut u[..] else {
                    unreachable!()
                };
                unsafe { sm_into_unchecked(&x, 0.5, lane, Some(causal), p, &mut r2, s2, a2, m2) };
            }
            assert_bits("sm softmax", &c[0], &u[0]);
            assert_bits("sm alpha", &c[1], &u[1]);
            assert_bits("sm mask", &c[2], &u[2]);

            let (mut mu1, mut is1) = (vec![0.0f32; lane.pre], vec![0.0f32; lane.pre]);
            let (mut mu2, mut is2) = (vec![7.0f32; lane.pre], vec![7.0f32; lane.pre]);
            layernorm_into(&x, &gamma, &beta, lane, &mut c[0], &mut mu1, &mut is1);
            unsafe {
                layernorm_into_unchecked(&x, &gamma, &beta, lane, &mut u[0], &mut mu2, &mut is2)
            };
            assert_bits("layernorm out", &c[0], &u[0]);
            assert_bits("layernorm mean", &mu1, &mu2);
            assert_bits("layernorm inv_std", &is1, &is2);

            let mut r1 = StdRng::seed_from_u64(6);
            let mut r2 = StdRng::seed_from_u64(6);
            {
                let [m1, li1, o1, ..] = &mut c[..] else {
                    unreachable!()
                };
                bdrln_into(
                    &x, &bias, &map, &residual, &gamma, &beta, lane, p, &mut r1, m1, li1, o1,
                    &mut mu1, &mut is1,
                );
                let [m2, li2, o2, ..] = &mut u[..] else {
                    unreachable!()
                };
                unsafe {
                    bdrln_into_unchecked(
                        &x, &bias, &map, &residual, &gamma, &beta, lane, p, &mut r2, m2, li2, o2,
                        &mut mu2, &mut is2,
                    )
                };
            }
            for (tag, i) in [("mask", 0), ("ln_input", 1), ("out", 2)] {
                assert_bits(&format!("bdrln {tag}"), &c[i], &u[i]);
            }
            assert_bits("bdrln mean", &mu1, &mu2);
            assert_bits("bdrln inv_std", &is1, &is2);

            let mut r1 = StdRng::seed_from_u64(7);
            let mut r2 = StdRng::seed_from_u64(7);
            {
                let [z1, o1, m1, ..] = &mut c[..] else {
                    unreachable!()
                };
                brd_act_into(
                    &x,
                    &bias,
                    &map,
                    ActivationKind::Gelu,
                    p,
                    &mut r1,
                    z1,
                    o1,
                    m1,
                );
                let [z2, o2, m2, ..] = &mut u[..] else {
                    unreachable!()
                };
                unsafe {
                    brd_act_into_unchecked(
                        &x,
                        &bias,
                        &map,
                        ActivationKind::Gelu,
                        p,
                        &mut r2,
                        z2,
                        o2,
                        m2,
                    )
                };
            }
            for (tag, i) in [("pre_activation", 0), ("out", 1), ("mask", 2)] {
                assert_bits(&format!("brd {tag}"), &c[i], &u[i]);
            }

            let mut r1 = StdRng::seed_from_u64(8);
            let mut r2 = StdRng::seed_from_u64(8);
            {
                let [m1, o1, ..] = &mut c[..] else {
                    unreachable!()
                };
                bdr_into(&x, &bias, &map, &residual, p, &mut r1, m1, o1);
                let [m2, o2, ..] = &mut u[..] else {
                    unreachable!()
                };
                unsafe { bdr_into_unchecked(&x, &bias, &map, &residual, p, &mut r2, m2, o2) };
            }
            assert_bits("bdr mask", &c[0], &u[0]);
            assert_bits("bdr out", &c[1], &u[1]);
        }
    }

    /// The locally-certified dispatchers run the licensed path exactly
    /// when the lane geometry discharges the twin's obligations.
    #[test]
    fn dispatchers_license_only_unit_stride_lanes() {
        let unit = LaneGeom {
            pre: 2,
            len: 3,
            post: 1,
        };
        let strided = LaneGeom {
            pre: 2,
            len: 3,
            post: 2,
        };
        let x = vec![0.5f32; strided.elements()];
        let mut out = vec![0.0f32; strided.elements()];
        assert!(softmax_scaled_into_dispatch(
            &x[..unit.elements()],
            1.0,
            unit,
            &mut out[..unit.elements()]
        ));
        assert!(!softmax_scaled_into_dispatch(&x, 1.0, strided, &mut out));
        let (gamma, beta) = (vec![1.0f32; 3], vec![0.0f32; 3]);
        let (mut mu, mut is) = (vec![0.0f32; 4], vec![0.0f32; 4]);
        assert!(layernorm_into_dispatch(
            &x[..unit.elements()],
            &gamma,
            &beta,
            unit,
            &mut out[..unit.elements()],
            &mut mu,
            &mut is
        ));
        assert!(!layernorm_into_dispatch(
            &x, &gamma, &beta, strided, &mut out, &mut mu, &mut is
        ));
    }
}
