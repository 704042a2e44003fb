//! A GPT-2-style decoder block on the CPU substrate: **pre**-layer-norm,
//! causally masked self-attention, GELU feed-forward — the variant the
//! paper's Sec. VIII says the recipe transfers to unchanged. Forward and
//! backward, validated against numerical gradients.

use xform_core::plan::{ExecOptions, ExecState};
use xform_dataflow::EncoderDims;
use xform_tensor::fused::{self, BrdOutput, SmOutput};
use xform_tensor::ops::dropout::dropout_backward;
use xform_tensor::ops::elementwise::{add, bias_grad, ActivationKind};
use xform_tensor::ops::layernorm::{
    layernorm_backward_input, layernorm_backward_weights, LayerNormStats,
};
use xform_tensor::{einsum, Axis, Result, Tensor, TensorError};

use crate::interp::{self, bind_inputs, finish, run_plan, ForwardOutput};
use crate::params::{EncoderGrads, EncoderWeights};

/// Assembles the decoder's saved activations out of a finished
/// interpreter environment.
fn collect_decoder_activations(mut state: ExecState) -> Result<(Tensor, DecoderActivations)> {
    let missing = |name: &str| {
        TensorError::Unsupported(format!(
            "plan produced no layer-norm statistics for `{name}`"
        ))
    };
    let stats1 = state
        .stats
        .remove("ln1_out")
        .ok_or_else(|| missing("ln1_out"))?;
    let stats2 = state
        .stats
        .remove("ln2_out")
        .ok_or_else(|| missing("ln2_out"))?;
    Ok((
        state.take("y")?,
        DecoderActivations {
            ln1_out: state.take("ln1_out")?,
            stats1,
            qq: state.take("qq")?,
            kk: state.take("kk")?,
            vv: state.take("vv")?,
            sm: SmOutput {
                alpha: state.take("alpha")?,
                softmax: state.take("att")?,
                mask: state.take("att_mask")?,
            },
            gam: state.take("gamma")?,
            drop1_mask: state.take("drop1_mask")?,
            res1: state.take("res1")?,
            ln2_out: state.take("ln2_out")?,
            stats2,
            brd: BrdOutput {
                out: state.take("ff1_drop")?,
                pre_activation: state.take("ff1_b")?,
                mask: state.take("drop2_mask")?,
            },
            drop3_mask: state.take("drop3_mask")?,
        },
    ))
}

/// A configured decoder block. Weights are shared with the encoder layout
/// ([`EncoderWeights`]); only the wiring differs (pre-LN, causal mask,
/// activation choice).
#[derive(Debug, Clone)]
pub struct DecoderLayer {
    /// Problem dimensions (`j = k`).
    pub dims: EncoderDims,
    /// Feed-forward activation (GPT-2 uses GELU).
    pub activation: ActivationKind,
    /// Dropout probability.
    pub dropout_p: f32,
    /// When set, the block runs the GEMM-epilogue canned plan
    /// ([`interp::PlanKind::DecoderEpilogue`]): the QKT→SM, Out→BDR,
    /// Linear 1→BRD and Linear 2→BDR2 chains collapse into tiled
    /// mega-kernels whose intermediates never materialize.
    pub epilogue: bool,
}

/// Saved forward values for the decoder backward pass.
#[derive(Debug, Clone)]
pub struct DecoderActivations {
    /// Pre-attention layer-norm output (input to the projections).
    pub ln1_out: Tensor,
    /// Pre-attention layer-norm statistics.
    pub stats1: LayerNormStats,
    /// Biased projections.
    pub qq: Tensor,
    /// Biased key projections.
    pub kk: Tensor,
    /// Biased value projections.
    pub vv: Tensor,
    /// Causal softmax bundle.
    pub sm: SmOutput,
    /// Attention context.
    pub gam: Tensor,
    /// Attention-path dropout mask.
    pub drop1_mask: Tensor,
    /// First residual stream (`x + attention`), the pre-FFN layer-norm
    /// input.
    pub res1: Tensor,
    /// Pre-FFN layer-norm output.
    pub ln2_out: Tensor,
    /// Pre-FFN layer-norm statistics.
    pub stats2: LayerNormStats,
    /// Feed-forward bias+activation+dropout bundle.
    pub brd: BrdOutput,
    /// Output-path dropout mask.
    pub drop3_mask: Tensor,
}

impl DecoderLayer {
    /// Creates a GPT-2-style block (GELU activation).
    pub fn new(dims: EncoderDims, dropout_p: f32) -> Self {
        DecoderLayer {
            dims,
            activation: ActivationKind::Gelu,
            dropout_p,
            epilogue: false,
        }
    }

    /// Switches the block onto the GEMM-epilogue canned plan
    /// (builder-style).
    pub fn with_epilogue(mut self) -> Self {
        self.epilogue = true;
        self
    }

    /// The attention scaling factor `1/√P`.
    pub fn scaler(&self) -> f32 {
        1.0 / (self.dims.p as f32).sqrt()
    }

    /// The canned-plan cache key for the block's configuration.
    fn plan_kind(&self) -> interp::PlanKind {
        if self.epilogue {
            interp::PlanKind::DecoderEpilogue
        } else {
            interp::PlanKind::DecoderFused
        }
    }

    /// Forward propagation: `x` (`[i,b,j]`) → `y` (`[i,b,j]`) plus saved
    /// activations, with the same unified [`ExecOptions`]-driven surface
    /// as [`crate::encoder::EncoderLayer::forward`]: `threads` picks the
    /// serial or the certified wave-parallel interpreter (the decoder's
    /// canned plan carries its certificate, so the block parallelizes like
    /// the encoder), [`ExecOptions::plan`] substitutes an arbitrary plan
    /// over the decoder graph, `collect_activations` / `profiler` /
    /// `sanitize` behave identically. The layer-owned scalar knobs
    /// (`dropout_p`, `activation`, attention scale) come from the layer.
    ///
    /// # Errors
    ///
    /// Returns an error if `x` or a weight has the wrong shape, the plan
    /// fails validation, a parallel run lacks a certificate, or a kernel rejects
    /// its operands.
    pub fn forward(
        &self,
        x: &Tensor,
        w: &EncoderWeights,
        opts: &ExecOptions,
    ) -> Result<ForwardOutput<DecoderActivations>> {
        interp::check_inputs(&self.dims, x, w)?;
        let cached;
        let (graph, plan, cert) = match opts.plan {
            Some(o) => (o.graph, o.plan, o.cert),
            None => {
                cached = interp::cached_plan(&self.dims, self.plan_kind())?;
                (&cached.graph, &cached.plan, Some(&cached.cert))
            }
        };
        let mut state = bind_inputs(x, w)?;
        let arena;
        let mut run_opts = opts
            .to_builder()
            .dropout_p(self.dropout_p)
            .activation(self.activation)
            .scaler(self.scaler())
            .build();
        if opts.plan.is_none() && opts.profiler.is_none() {
            if let Some(a) = interp::cached_arena(
                &self.dims,
                self.plan_kind(),
                interp::granularity_for(opts.threads),
            )? {
                arena = a;
                run_opts.arena = Some(&arena);
            }
        }
        run_plan(graph, plan, cert, &mut state, &run_opts)?;
        finish(state, opts.collect_activations, collect_decoder_activations)
    }

    /// Forward propagation into a caller-provided output tensor — the
    /// steady-state zero-allocation entry point, mirroring
    /// [`crate::encoder::EncoderLayer::forward_into`]: after warmup the
    /// call executes the decoder's canned plan out of its static arena
    /// and copies `y` into the caller's dense row-major `[i,b,j]` buffer
    /// without heap allocation, falling back transparently to the
    /// allocating [`DecoderLayer::forward`] when the arena is
    /// unavailable. Saved activations are not assembled.
    ///
    /// # Errors
    ///
    /// Returns an error if `y` is not a row-major `[i,b,j]` tensor of the
    /// block's dimensions, `x` or a weight has the wrong shape, or the
    /// execution itself fails.
    pub fn forward_into(
        &self,
        x: &Tensor,
        w: &EncoderWeights,
        opts: &ExecOptions,
        y: &mut Tensor,
    ) -> Result<()> {
        interp::check_inputs(&self.dims, x, w)?;
        interp::check_output(&self.dims, y)?;
        let merged = opts
            .to_builder()
            .dropout_p(self.dropout_p)
            .activation(self.activation)
            .scaler(self.scaler())
            .build();
        if opts.plan.is_none()
            && opts.profiler.is_none()
            && interp::arena_forward_into(&self.dims, self.plan_kind(), x, w, &merged, y)?
        {
            return Ok(());
        }
        let fallback = opts.to_builder().collect_activations(false).build();
        let out = self.forward(x, w, &fallback)?;
        if out.y.len() != y.len() {
            return Err(TensorError::Unsupported(format!(
                "output tensor holds {} words; the layer produced {}",
                y.len(),
                out.y.len(),
            )));
        }
        xform_tensor::into_ops::copy_tensor_into(&out.y, y.data_mut());
        Ok(())
    }

    /// Backpropagation: `(dx, weight gradients)` from the output gradient.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreements.
    pub fn backward(
        &self,
        dy: &Tensor,
        x: &Tensor,
        w: &EncoderWeights,
        a: &DecoderActivations,
    ) -> Result<(Tensor, EncoderGrads)> {
        let mut g = w.zeros_like();
        let ai = Axis('i');
        // --- feed-forward branch of residual 2 ---
        let d_ff2b = dropout_backward(dy, &a.drop3_mask)?;
        g.b2 = bias_grad(&d_ff2b, &[ai])?;
        let d_brd = einsum("iu,ibj->ubj", &[&w.w2, &d_ff2b])?;
        g.w2 = einsum("ibj,ubj->iu", &[&d_ff2b, &a.brd.out])?;
        let (d_ff1, db1) = fused::bdrb_act(
            &d_brd,
            &a.brd.mask,
            &a.brd.pre_activation,
            self.activation,
            &[Axis('u')],
        )?;
        g.b1 = db1;
        let d_ln2_out = einsum("ui,ubj->ibj", &[&w.w1, &d_ff1])?;
        g.w1 = einsum("ubj,ibj->ui", &[&d_ff1, &a.ln2_out])?;
        let (dg2, dbeta2) = layernorm_backward_weights(&d_ln2_out, &a.res1, ai, &a.stats2)?;
        g.ln2_gamma = dg2;
        g.ln2_beta = dbeta2;
        let d_res1_ln = layernorm_backward_input(&d_ln2_out, &a.res1, ai, &w.ln2_gamma, &a.stats2)?;
        // residual 2: skip branch carries dy directly
        let d_res1 = add(dy, &d_res1_ln)?;

        // --- attention branch of residual 1 ---
        let d_attn = dropout_backward(&d_res1, &a.drop1_mask)?;
        g.bo = bias_grad(&d_attn, &[ai])?;
        let d_gam = einsum("whi,ibj->whbj", &[&w.wo, &d_attn])?;
        g.wo = einsum("whbj,ibj->whi", &[&a.gam, &d_attn])?;
        let d_alpha = einsum("whbk,whbj->hbjk", &[&a.vv, &d_gam])?;
        let d_vv = einsum("whbj,hbjk->whbk", &[&d_gam, &a.sm.alpha])?;
        // masked entries have zero softmax output and zero mask, so the
        // unmasked BS kernel handles the causal case unchanged
        let d_beta = fused::bs(
            &d_alpha,
            &a.sm.mask,
            &a.sm.softmax,
            Axis('k'),
            self.scaler(),
        )?;
        let d_qq = einsum("phbk,hbjk->phbj", &[&a.kk, &d_beta])?;
        let d_kk = einsum("phbj,hbjk->phbk", &[&a.qq, &d_beta])?;
        let ph: &[Axis] = &[Axis('p'), Axis('h')];
        let wh: &[Axis] = &[Axis('w'), Axis('h')];
        let (dbq, dbk, dbv) = fused::baib(&d_qq, &d_kk, &d_vv, [ph, ph, wh])?;
        g.bq = dbq;
        g.bk = dbk;
        g.bv = dbv;
        let lk = a.ln1_out.relabel("ibk")?;
        g.wq = einsum("phbj,ibj->phi", &[&d_qq, &a.ln1_out])?;
        g.wk = einsum("phbk,ibk->phi", &[&d_kk, &lk])?;
        g.wv = einsum("whbk,ibk->whi", &[&d_vv, &lk])?;
        let d_x1 = einsum("phi,phbj->ibj", &[&w.wq, &d_qq])?;
        let d_x2 = einsum("phi,phbk->ibk", &[&w.wk, &d_kk])?.relabel("ibj")?;
        let d_x3 = einsum("whi,whbk->ibk", &[&w.wv, &d_vv])?.relabel("ibj")?;
        let d_ln1_out = add(&add(&d_x1, &d_x2)?, &d_x3)?;
        let (dg1, dbeta1) = layernorm_backward_weights(&d_ln1_out, x, ai, &a.stats1)?;
        g.ln1_gamma = dg1;
        g.ln1_beta = dbeta1;
        let d_x_ln = layernorm_backward_input(&d_ln1_out, x, ai, &w.ln1_gamma, &a.stats1)?;
        // residual 1: skip branch carries d_res1
        let dx = add(&d_x_ln, &d_res1)?;
        Ok((dx, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xform_tensor::Shape;

    fn setup() -> (DecoderLayer, EncoderWeights, Tensor) {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(7);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = Tensor::random(
            Shape::from_spec("ibj", &dims.size_table()).unwrap(),
            &Uniform::new(-1.0, 1.0),
            &mut rng,
        );
        (DecoderLayer::new(dims, 0.0), w, x)
    }

    fn fwd(
        layer: &DecoderLayer,
        x: &Tensor,
        w: &EncoderWeights,
        seed: u64,
    ) -> (Tensor, DecoderActivations) {
        let opts = ExecOptions::builder().seed(seed).build();
        layer.forward(x, w, &opts).unwrap().into_pair().unwrap()
    }

    #[test]
    fn forward_shape_and_causality() {
        let (layer, w, x) = setup();
        let (y, acts) = fwd(&layer, &x, &w, 1);
        assert_eq!(y.shape().spec(), "ibj");
        // no attention weight looks at the future
        let d = layer.dims;
        for h in 0..d.h {
            for b in 0..d.b {
                for j in 0..d.j {
                    for k in 0..d.k {
                        if k > j {
                            assert_eq!(acts.sm.softmax.at(&[h, b, j, k]), 0.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn causality_propagates_to_output() {
        // Changing a future token must not change earlier outputs.
        let (layer, w, x) = setup();
        let (y1, _) = fwd(&layer, &x, &w, 2);
        let mut x2 = x.clone();
        let d = layer.dims;
        // perturb the last position (j = d.j - 1) for every (i, b)
        for i in 0..d.i {
            for b in 0..d.b {
                let v = x2.at(&[i, b, d.j - 1]);
                x2.set(&[i, b, d.j - 1], v + 1.0);
            }
        }
        let (y2, _) = fwd(&layer, &x2, &w, 2);
        for i in 0..d.i {
            for b in 0..d.b {
                for j in 0..d.j - 1 {
                    assert!(
                        (y1.at(&[i, b, j]) - y2.at(&[i, b, j])).abs() < 1e-5,
                        "future leak at ({i},{b},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn gradients_match_numerical() {
        let (layer, w, x) = setup();
        let (y, acts) = fwd(&layer, &x, &w, 3);
        let loss_w = Tensor::random(
            y.shape().clone(),
            &Uniform::new(-1.0, 1.0),
            &mut StdRng::seed_from_u64(4),
        );
        let (dx, grads) = layer.backward(&loss_w, &x, &w, &acts).unwrap();
        let loss = |xx: &Tensor, ww: &EncoderWeights| -> f32 {
            let (yy, _) = fwd(&layer, xx, ww, 3);
            yy.iter().map(|(i, v)| loss_w.at(&i) * v).sum()
        };
        let eps = 1e-2f32;
        for flat in [0usize, 11, 29, 40] {
            let mut idx = vec![0usize; 3];
            for _ in 0..flat {
                x.advance(&mut idx);
            }
            let off = x.offset(&idx);
            let mut xp = x.clone();
            xp.data_mut()[off] += eps;
            let mut xm = x.clone();
            xm.data_mut()[off] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - dx.at(&idx)).abs() < 0.05 * (1.0 + num.abs()),
                "dx at {idx:?}: numeric {num} vs analytic {}",
                dx.at(&idx)
            );
        }
        for (name, flat) in [("wq", 2), ("wo", 7), ("w1", 5), ("ln1_gamma", 1), ("b2", 3)] {
            let analytic = grads
                .fields()
                .into_iter()
                .find(|(n, _)| *n == name)
                .unwrap()
                .1
                .data()[flat];
            let mut wp = w.clone();
            wp.fields_mut()
                .into_iter()
                .find(|(n, _)| *n == name)
                .unwrap()
                .1
                .data_mut()[flat] += eps;
            let mut wm = w.clone();
            wm.fields_mut()
                .into_iter()
                .find(|(n, _)| *n == name)
                .unwrap()
                .1
                .data_mut()[flat] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - analytic).abs() < 0.05 * (1.0 + num.abs()),
                "grad {name}[{flat}]: numeric {num} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn relu_variant_also_works() {
        let (mut layer, w, x) = setup();
        layer.activation = ActivationKind::Relu;
        let (y, acts) = fwd(&layer, &x, &w, 5);
        let (dx, _) = layer.backward(&y, &x, &w, &acts).unwrap();
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert!(dx.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn parallel_forward_matches_serial() {
        // The unified API gives the decoder a certified parallel path for
        // free: the wave-parallel interpreter must reproduce the serial
        // result bitwise (dropout off, so RNG streams don't matter).
        let (layer, w, x) = setup();
        let (y_serial, _) = fwd(&layer, &x, &w, 11);
        for threads in [2, 4] {
            let opts = ExecOptions::builder().seed(11).threads(threads).build();
            let (y_par, _) = layer.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
            assert_eq!(y_serial.data(), y_par.data(), "threads = {threads}");
        }
    }
}
