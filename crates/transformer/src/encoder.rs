//! The BERT encoder layer on the CPU tensor substrate: forward and
//! backward, with a reference (unfused) and a fused executor.
//!
//! Since the plan-driven refactor both executors are *canned execution
//! plans* run by the schedule interpreter of [`xform_core::plan`]: the
//! reference executor is the unfused dataflow graph with natural layouts
//! (the eager per-operator execution of the PyTorch baseline), the fused
//! executor the same graph with the paper's fusion plan applied, one step
//! per fused kernel. The single entry point
//! [`EncoderLayer::forward`] is driven entirely by
//! [`ExecOptions`]: `threads` picks the serial or the certified
//! wave-parallel interpreter, [`ExecOptions::plan`] substitutes *any*
//! plan over the encoder graph — in particular one lowered from the
//! recipe's SSSP layout selection — and
//! [`ExecOptions::profiler`] attaches a runtime profiler, so the
//! optimized configuration runs through exactly the same code path. Both
//! canned executors compute identical values (equivalence is tested with
//! dropout disabled, and backward is bit-for-bit given the same saved
//! masks).

use xform_core::plan::{ExecOptions, ExecState, ExecutionPlan};
use xform_core::sanitize::RaceCertificate;
use xform_dataflow::{EncoderDims, Graph};
use xform_tensor::fused::{self, BdrlnOutput, BrdOutput, SmOutput};
use xform_tensor::ops::dropout::dropout_backward;
use xform_tensor::ops::elementwise::{activate_backward, add, bias_grad, scale, ActivationKind};
use xform_tensor::ops::layernorm::{layernorm_backward_input, layernorm_backward_weights};
use xform_tensor::ops::softmax::softmax_backward;
use xform_tensor::{einsum, Axis, Result, Tensor};

use crate::interp::{self, bind_inputs, finish, run_plan, ForwardOutput, PlannedForward};
use crate::params::{EncoderGrads, EncoderWeights};

fn missing_stats(name: &str) -> xform_tensor::TensorError {
    xform_tensor::TensorError::Unsupported(format!(
        "plan produced no layer-norm statistics for `{name}`"
    ))
}

/// Assembles the saved activations out of a finished interpreter
/// environment (shared by the serial and the wave-parallel forward).
fn collect_activations(mut state: ExecState) -> Result<(Tensor, Activations)> {
    let stats1 = state
        .stats
        .remove("ln1_out")
        .ok_or_else(|| missing_stats("ln1_out"))?;
    let stats2 = state.stats.remove("y").ok_or_else(|| missing_stats("y"))?;
    let y = state.get("y")?.clone();
    Ok((
        y,
        Activations {
            qq: state.take("qq")?,
            kk: state.take("kk")?,
            vv: state.take("vv")?,
            sm: SmOutput {
                alpha: state.take("alpha")?,
                softmax: state.take("att")?,
                mask: state.take("att_mask")?,
            },
            gam: state.take("gamma")?,
            ln1: BdrlnOutput {
                out: state.take("ln1_out")?,
                ln_input: state.take("ln1_in")?,
                mask: state.take("drop1_mask")?,
                stats: stats1,
            },
            brd: BrdOutput {
                out: state.take("ff1_drop")?,
                pre_activation: state.take("ff1_b")?,
                mask: state.take("drop2_mask")?,
            },
            ln2: BdrlnOutput {
                out: state.take("y")?,
                ln_input: state.take("ln2_in")?,
                mask: state.take("drop3_mask")?,
                stats: stats2,
            },
        },
    ))
}

/// Which kernel set executes the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// One unfused operator per dataflow node (the PyTorch-style baseline).
    Reference,
    /// The paper's fused kernels (AIB, SM, BDRLN, BRD, BSB, BLNRD, BDRB,
    /// EBSB, BS, BAOB, BAIB, BEI).
    Fused,
    /// The fused kernels plus GEMM-epilogue mega-kernels: the QKT→SM and
    /// Linear 1→BRD chains collapse into single tiled contraction steps
    /// whose intermediates (`beta`, `ff1`) are never materialized.
    Epilogue,
}

/// A configured encoder layer.
#[derive(Debug, Clone)]
pub struct EncoderLayer {
    /// Problem dimensions.
    pub dims: EncoderDims,
    /// Kernel set.
    pub executor: Executor,
    /// Dropout probability (0 disables dropout deterministically).
    pub dropout_p: f32,
    /// Feed-forward activation (the paper's Fig. 2 uses ReLU; real BERT
    /// uses GELU — both are element-wise, so the analysis is identical).
    pub activation: ActivationKind,
}

/// Forward-pass values saved for backpropagation (the `Saved` containers of
/// the dataflow graph: projections, attention weights, masks, layer-norm
/// inputs and statistics).
#[derive(Debug, Clone)]
pub struct Activations {
    /// Biased query projections `[p,h,b,j]`.
    pub qq: Tensor,
    /// Biased key projections `[p,h,b,k]`.
    pub kk: Tensor,
    /// Biased value projections `[w,h,b,k]`.
    pub vv: Tensor,
    /// Fused softmax output bundle (alpha, saved softmax, mask).
    pub sm: SmOutput,
    /// Attention context `[w,h,b,j]`.
    pub gam: Tensor,
    /// First bias+dropout+residual+layernorm bundle.
    pub ln1: BdrlnOutput,
    /// Feed-forward bias+ReLU+dropout bundle.
    pub brd: BrdOutput,
    /// Second bias+dropout+residual+layernorm bundle.
    pub ln2: BdrlnOutput,
}

impl EncoderLayer {
    /// Creates a layer with the fused executor and the given dropout.
    pub fn new(dims: EncoderDims, executor: Executor, dropout_p: f32) -> Self {
        EncoderLayer {
            dims,
            executor,
            dropout_p,
            activation: ActivationKind::Relu,
        }
    }

    /// Switches the feed-forward activation (builder-style).
    pub fn with_activation(mut self, activation: ActivationKind) -> Self {
        self.activation = activation;
        self
    }

    /// The attention scaling factor `1/√P`.
    pub fn scaler(&self) -> f32 {
        1.0 / (self.dims.p as f32).sqrt()
    }

    /// The canned-plan cache key for the layer's executor kind.
    fn plan_kind(&self) -> interp::PlanKind {
        match self.executor {
            Executor::Reference => interp::PlanKind::EncoderReference,
            Executor::Fused => interp::PlanKind::EncoderFused,
            Executor::Epilogue => interp::PlanKind::EncoderEpilogue,
        }
    }

    /// The layer's canned plan for its executor kind.
    fn planned(&self) -> Result<std::sync::Arc<PlannedForward>> {
        interp::cached_plan(&self.dims, self.plan_kind())
    }

    /// Merges the caller's run configuration with the layer-owned scalar
    /// knobs: `dropout_p`, `activation`, and the attention `scaler` always
    /// come from the layer, everything else from `opts`.
    fn exec_options<'p>(&self, opts: &ExecOptions<'p>) -> ExecOptions<'p> {
        opts.to_builder()
            .dropout_p(self.dropout_p)
            .activation(self.activation)
            .scaler(self.scaler())
            .build()
    }

    /// Runs forward propagation on input `x` (`[i,b,j]`) — the single
    /// entry point for every execution mode, driven by `opts`:
    ///
    /// * [`ExecOptions::threads`] — `1` (or `0`) runs the serial
    ///   interpreter with one RNG stream seeded by [`ExecOptions::seed`];
    ///   more runs the certified wave-parallel interpreter with per-step
    ///   RNG streams (bitwise-equal to serial when `dropout_p = 0`,
    ///   thread-count-invariant always);
    /// * [`ExecOptions::plan`] — substitutes an arbitrary plan over the
    ///   encoder graph (e.g. one lowered from a recipe selection) for the
    ///   layer's canned plan; parallel runs need the override to carry a
    ///   race certificate;
    /// * [`ExecOptions::collect_activations`] — when `false`, skips
    ///   assembling the saved-activation bundle;
    /// * [`ExecOptions::profiler`] — records per-step measured times into
    ///   the sink ([`xform_core::profile::PlanProfiler`]);
    /// * [`ExecOptions::sanitize`] — routes through the shadow-access
    ///   sanitizer.
    ///
    /// The layer-owned scalar knobs (`dropout_p`, `activation`, attention
    /// scale) are taken from the layer itself; the corresponding
    /// `ExecOptions` fields are ignored.
    ///
    /// # Errors
    ///
    /// Returns an error if `x` or a weight has the wrong shape for the
    /// layer's dimensions, the plan fails validation, a parallel run lacks a
    /// certificate, or a kernel rejects its operands.
    pub fn forward(
        &self,
        x: &Tensor,
        w: &EncoderWeights,
        opts: &ExecOptions,
    ) -> Result<ForwardOutput<Activations>> {
        interp::check_inputs(&self.dims, x, w)?;
        let cached;
        let (graph, plan, cert): (&Graph, &ExecutionPlan, Option<&RaceCertificate>) =
            match opts.plan {
                Some(o) => (o.graph, o.plan, o.cert),
                None => {
                    cached = self.planned()?;
                    (&cached.graph, &cached.plan, Some(&cached.cert))
                }
            };
        let mut state = bind_inputs(x, w)?;
        let arena;
        let mut run_opts = self.exec_options(opts);
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
        finish(state, opts.collect_activations, collect_activations)
    }

    /// Forward propagation into a caller-provided output tensor — the
    /// steady-state zero-allocation entry point. After a warmup call has
    /// populated the plan and arena caches, every subsequent call binds
    /// `x` and the weights straight into the layer's static arena,
    /// executes out of the slab through the `*_into` kernels, and copies
    /// the produced `y` into `&mut y` without touching the heap (see
    /// `tests/alloc_discipline.rs`).
    ///
    /// `y` must be a dense row-major tensor of the layer's output
    /// geometry (`[i,b,j]`); its contents are overwritten. The arena path
    /// honors `opts.threads`, `opts.seed`, and `opts.sanitize`
    /// ([`xform_core::plan::SanitizeMode::Env`] is resolved once per
    /// process on this path, so set `XFORM_SANITIZE` before the first
    /// call). Saved activations are not assembled. When the arena is
    /// unavailable — a plan override or profiler is configured, or the
    /// canned plan has a shape the arena compiler declined — the call
    /// falls back transparently to the allocating
    /// [`EncoderLayer::forward`]. A call waits while another thread runs
    /// the same arena.
    ///
    /// # Errors
    ///
    /// Returns an error if `y` is not a row-major `[i,b,j]` tensor of the
    /// layer's dimensions, `x` or a weight has the wrong shape, or the
    /// execution itself fails (see [`EncoderLayer::forward`]).
    pub fn forward_into(
        &self,
        x: &Tensor,
        w: &EncoderWeights,
        opts: &ExecOptions,
        y: &mut Tensor,
    ) -> Result<()> {
        interp::check_inputs(&self.dims, x, w)?;
        interp::check_output(&self.dims, y)?;
        if opts.plan.is_none()
            && opts.profiler.is_none()
            && interp::arena_forward_into(
                &self.dims,
                self.plan_kind(),
                x,
                w,
                &self.exec_options(opts),
                y,
            )?
        {
            return Ok(());
        }
        let fallback = opts.to_builder().collect_activations(false).build();
        let out = self.forward(x, w, &fallback)?;
        if out.y.len() != y.len() {
            return Err(xform_tensor::TensorError::Unsupported(format!(
                "output tensor holds {} words; the layer produced {}",
                y.len(),
                out.y.len(),
            )));
        }
        xform_tensor::into_ops::copy_tensor_into(&out.y, y.data_mut());
        Ok(())
    }

    /// Runs backpropagation: given the output gradient `dy` and the saved
    /// activations, returns the input gradient `dx` and all weight
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreements.
    pub fn backward(
        &self,
        dy: &Tensor,
        x: &Tensor,
        w: &EncoderWeights,
        a: &Activations,
    ) -> Result<(Tensor, EncoderGrads)> {
        let fused_mode = self.executor != Executor::Reference;
        let mut g = w.zeros_like();
        let ai = Axis('i');

        // --- second layer-norm block ---
        let (dg2, dbeta2) = if fused_mode {
            fused::bsb(dy, &a.ln2.ln_input, ai, &a.ln2.stats)?
        } else {
            layernorm_backward_weights(dy, &a.ln2.ln_input, ai, &a.ln2.stats)?
        };
        g.ln2_gamma = dg2;
        g.ln2_beta = dbeta2;
        let (d_ff2b, d_ln2_in) = if fused_mode {
            fused::blnrd(
                dy,
                &a.ln2.ln_input,
                &w.ln2_gamma,
                &a.ln2.mask,
                ai,
                &a.ln2.stats,
            )?
        } else {
            let d_ln =
                layernorm_backward_input(dy, &a.ln2.ln_input, ai, &w.ln2_gamma, &a.ln2.stats)?;
            let d = dropout_backward(&d_ln, &a.ln2.mask)?;
            (d, d_ln)
        };
        g.b2 = bias_grad(&d_ff2b, &[ai])?;

        // --- feed-forward ---
        let d_brd = einsum("iu,ibj->ubj", &[&w.w2, &d_ff2b])?;
        g.w2 = einsum("ibj,ubj->iu", &[&d_ff2b, &a.brd.out])?;
        let (d_ff1, db1) = if fused_mode {
            fused::bdrb_act(
                &d_brd,
                &a.brd.mask,
                &a.brd.pre_activation,
                self.activation,
                &[Axis('u')],
            )?
        } else {
            let after = dropout_backward(&d_brd, &a.brd.mask)?;
            let d = activate_backward(&after, &a.brd.pre_activation, self.activation)?;
            let db = bias_grad(&d, &[Axis('u')])?;
            (d, db)
        };
        g.b1 = db1;
        let d_ln1out_ffn = einsum("ui,ubj->ibj", &[&w.w1, &d_ff1])?;
        g.w1 = einsum("ubj,ibj->ui", &[&d_ff1, &a.ln1.out])?;

        // --- first layer-norm block (residual join) ---
        let (d_ln1out, dg1, dbeta1) = if fused_mode {
            fused::ebsb(&d_ln1out_ffn, &d_ln2_in, &a.ln1.ln_input, ai, &a.ln1.stats)?
        } else {
            let dsum = add(&d_ln1out_ffn, &d_ln2_in)?;
            let (dgam, dbet) =
                layernorm_backward_weights(&dsum, &a.ln1.ln_input, ai, &a.ln1.stats)?;
            (dsum, dgam, dbet)
        };
        g.ln1_gamma = dg1;
        g.ln1_beta = dbeta1;
        let (d_attn_b, d_ln1_in) = if fused_mode {
            fused::blnrd(
                &d_ln1out,
                &a.ln1.ln_input,
                &w.ln1_gamma,
                &a.ln1.mask,
                ai,
                &a.ln1.stats,
            )?
        } else {
            let d_ln = layernorm_backward_input(
                &d_ln1out,
                &a.ln1.ln_input,
                ai,
                &w.ln1_gamma,
                &a.ln1.stats,
            )?;
            let d = dropout_backward(&d_ln, &a.ln1.mask)?;
            (d, d_ln)
        };
        g.bo = if fused_mode {
            fused::baob(&d_attn_b, &[ai])?
        } else {
            bias_grad(&d_attn_b, &[ai])?
        };

        // --- attention output projection ---
        let d_gam = einsum("whi,ibj->whbj", &[&w.wo, &d_attn_b])?;
        g.wo = einsum("whbj,ibj->whi", &[&a.gam, &d_attn_b])?;

        // --- attention core ---
        let d_alpha = einsum("whbk,whbj->hbjk", &[&a.vv, &d_gam])?;
        let d_vv = einsum("whbj,hbjk->whbk", &[&d_gam, &a.sm.alpha])?;
        let d_beta = if fused_mode {
            fused::bs(
                &d_alpha,
                &a.sm.mask,
                &a.sm.softmax,
                Axis('k'),
                self.scaler(),
            )?
        } else {
            let after = dropout_backward(&d_alpha, &a.sm.mask)?;
            let d_soft = softmax_backward(&after, &a.sm.softmax, Axis('k'))?;
            scale(&d_soft, self.scaler())
        };
        let d_qq = einsum("phbk,hbjk->phbj", &[&a.kk, &d_beta])?;
        let d_kk = einsum("phbj,hbjk->phbk", &[&a.qq, &d_beta])?;

        // --- input projections ---
        let ph: &[Axis] = &[Axis('p'), Axis('h')];
        let wh: &[Axis] = &[Axis('w'), Axis('h')];
        let (dbq, dbk, dbv) = if fused_mode {
            fused::baib(&d_qq, &d_kk, &d_vv, [ph, ph, wh])?
        } else {
            (
                bias_grad(&d_qq, ph)?,
                bias_grad(&d_kk, ph)?,
                bias_grad(&d_vv, wh)?,
            )
        };
        g.bq = dbq;
        g.bk = dbk;
        g.bv = dbv;
        let xk = x.relabel("ibk")?;
        g.wq = einsum("phbj,ibj->phi", &[&d_qq, x])?;
        g.wk = einsum("phbk,ibk->phi", &[&d_kk, &xk])?;
        g.wv = einsum("whbk,ibk->whi", &[&d_vv, &xk])?;

        // --- gradient to the encoder input ---
        let d_x1 = einsum("phi,phbj->ibj", &[&w.wq, &d_qq])?;
        let d_x2 = einsum("phi,phbk->ibk", &[&w.wk, &d_kk])?.relabel("ibj")?;
        let d_x3 = einsum("whi,whbk->ibk", &[&w.wv, &d_vv])?.relabel("ibj")?;
        let d_x_proj = add(&add(&d_x1, &d_x2)?, &d_x3)?;
        let dx = if fused_mode {
            fused::bei(&d_x_proj, &d_ln1_in)?
        } else {
            add(&d_x_proj, &d_ln1_in)?
        };
        Ok((dx, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(p: f32, executor: Executor) -> (EncoderLayer, EncoderWeights, Tensor) {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(42);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = Tensor::random(
            xform_tensor::Shape::from_spec("ibj", &dims.size_table()).unwrap(),
            &Uniform::new(-1.0, 1.0),
            &mut rng,
        );
        (EncoderLayer::new(dims, executor, p), w, x)
    }

    /// Unified-API forward with a fixed seed, destructured for tests.
    fn fwd(
        layer: &EncoderLayer,
        x: &Tensor,
        w: &EncoderWeights,
        seed: u64,
    ) -> (Tensor, Activations) {
        let opts = ExecOptions::builder().seed(seed).build();
        layer.forward(x, w, &opts).unwrap().into_pair().unwrap()
    }

    #[test]
    fn forward_output_shape_and_normalization() {
        let (layer, w, x) = setup(0.0, Executor::Fused);
        let (y, _) = fwd(&layer, &x, &w, 1);
        assert_eq!(y.shape().spec(), "ibj");
        // output of a layernorm with unit gamma: per-(b,j) slice has
        // mean ~0 and variance ~1 over i
        let (i_n, b_n, j_n) = (layer.dims.i, layer.dims.b, layer.dims.j);
        for b in 0..b_n {
            for j in 0..j_n {
                let mut mean = 0.0;
                for i in 0..i_n {
                    mean += y.at(&[i, b, j]);
                }
                mean /= i_n as f32;
                assert!(mean.abs() < 1e-4, "mean {mean}");
            }
        }
    }

    #[test]
    fn executors_agree_on_forward() {
        let (fused_layer, w, x) = setup(0.0, Executor::Fused);
        let ref_layer = EncoderLayer::new(fused_layer.dims, Executor::Reference, 0.0);
        let (y1, a1) = fwd(&fused_layer, &x, &w, 2);
        let (y2, a2) = fwd(&ref_layer, &x, &w, 2);
        assert!(y1.max_abs_diff(&y2).unwrap() < 1e-5);
        assert!(a1.qq.max_abs_diff(&a2.qq).unwrap() < 1e-5);
        assert!(a1.sm.alpha.max_abs_diff(&a2.sm.alpha).unwrap() < 1e-5);
        assert!(a1.ln1.ln_input.max_abs_diff(&a2.ln1.ln_input).unwrap() < 1e-5);
    }

    #[test]
    fn executors_agree_on_backward_given_same_activations() {
        let (fused_layer, w, x) = setup(0.3, Executor::Fused);
        let (y, acts) = fwd(&fused_layer, &x, &w, 3);
        let dy = Tensor::random(
            y.shape().clone(),
            &Uniform::new(-1.0, 1.0),
            &mut StdRng::seed_from_u64(4),
        );
        let ref_layer = EncoderLayer::new(fused_layer.dims, Executor::Reference, 0.3);
        let (dx1, g1) = fused_layer.backward(&dy, &x, &w, &acts).unwrap();
        let (dx2, g2) = ref_layer.backward(&dy, &x, &w, &acts).unwrap();
        assert!(dx1.max_abs_diff(&dx2).unwrap() < 1e-4);
        for ((n1, t1), (_, t2)) in g1.fields().iter().zip(g2.fields()) {
            assert!(
                t1.max_abs_diff(t2).unwrap() < 1e-4,
                "gradient {n1} disagrees"
            );
        }
    }

    #[test]
    fn parallel_forward_is_bitwise_equal_to_serial() {
        for executor in [Executor::Reference, Executor::Fused] {
            let (layer, w, x) = setup(0.0, executor);
            let (y_serial, a_serial) = fwd(&layer, &x, &w, 8);
            for threads in [2, 4] {
                let opts = ExecOptions::builder().threads(threads).build();
                let (y_par, a_par) = layer.forward(&x, &w, &opts).unwrap().into_pair().unwrap();
                assert_eq!(y_par.data(), y_serial.data(), "{executor:?} @{threads}");
                assert_eq!(a_par.gam.data(), a_serial.gam.data());
                assert_eq!(a_par.ln2.ln_input.data(), a_serial.ln2.ln_input.data());
            }
        }
    }

    #[test]
    fn parallel_dropout_is_thread_count_invariant() {
        let (layer, w, x) = setup(0.5, Executor::Fused);
        let mk = |threads| ExecOptions::builder().threads(threads).seed(99).build();
        let (y2, a2) = layer.forward(&x, &w, &mk(2)).unwrap().into_pair().unwrap();
        let (y4, a4) = layer.forward(&x, &w, &mk(4)).unwrap().into_pair().unwrap();
        assert_eq!(y2.data(), y4.data());
        assert_eq!(a2.brd.mask.data(), a4.brd.mask.data());
        assert!(a2.brd.mask.data().contains(&0.0));
    }

    #[test]
    fn activations_can_be_skipped() {
        let (layer, w, x) = setup(0.0, Executor::Fused);
        let out = layer
            .forward(
                &x,
                &w,
                &ExecOptions::builder().collect_activations(false).build(),
            )
            .unwrap();
        assert!(out.activations.is_none());
        let (y_full, _) = fwd(&layer, &x, &w, 0x5eed);
        assert_eq!(out.y.data(), y_full.data());
        assert!(out.into_pair().is_err(), "into_pair must refuse");
    }

    #[test]
    fn plan_override_without_certificate_cannot_run_parallel() {
        let (layer, w, x) = setup(0.0, Executor::Fused);
        let pf = interp::encoder_fused(&layer.dims).unwrap();
        let over = xform_core::plan::PlanOverride {
            graph: &pf.graph,
            plan: &pf.plan,
            cert: None,
        };
        // serial override works …
        let y = layer
            .forward(&x, &w, &ExecOptions::builder().plan(Some(over)).build())
            .unwrap()
            .y;
        assert_eq!(y.shape().spec(), "ibj");
        // … but a parallel run without a certificate is refused
        let err = layer
            .forward(
                &x,
                &w,
                &ExecOptions::builder().plan(Some(over)).threads(4).build(),
            )
            .unwrap_err();
        assert!(err.to_string().contains("certificate"), "{err}");
    }

    #[test]
    fn dropout_masks_are_saved_and_applied() {
        let (layer, w, x) = setup(0.5, Executor::Fused);
        let (_, acts) = fwd(&layer, &x, &w, 5);
        let zeros = acts.brd.mask.data().iter().filter(|&&m| m == 0.0).count();
        assert!(zeros > 0, "dropout never fired at p=0.5");
        // dropped positions are zero in the output
        let mut idx = vec![0usize; 3];
        loop {
            if acts.brd.mask.at(&idx) == 0.0 {
                assert_eq!(acts.brd.out.at(&idx), 0.0);
            }
            if !acts.brd.out.advance(&mut idx) {
                break;
            }
        }
    }

    #[test]
    fn gelu_encoder_gradients_match_numerical() {
        // spot-check one dx coordinate with the GELU feed-forward
        let (layer, w, x) = setup(0.0, Executor::Fused);
        let layer = layer.with_activation(ActivationKind::Gelu);
        let (y, acts) = fwd(&layer, &x, &w, 60);
        let loss_w = Tensor::random(
            y.shape().clone(),
            &Uniform::new(-1.0, 1.0),
            &mut StdRng::seed_from_u64(61),
        );
        let (dx, _) = layer.backward(&loss_w, &x, &w, &acts).unwrap();
        let loss = |xx: &Tensor| -> f32 {
            let (yy, _) = fwd(&layer, xx, &w, 60);
            yy.iter().map(|(i, v)| loss_w.at(&i) * v).sum()
        };
        let eps = 1e-2f32;
        let idx = vec![1usize, 1, 2];
        let off = x.offset(&idx);
        let mut xp = x.clone();
        xp.data_mut()[off] += eps;
        let mut xm = x.clone();
        xm.data_mut()[off] -= eps;
        let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
        assert!(
            (num - dx.at(&idx)).abs() < 0.05 * (1.0 + num.abs()),
            "GELU dx: numeric {num} vs analytic {}",
            dx.at(&idx)
        );
    }

    /// Central-difference check of the full backward pass, spot-checking a
    /// handful of coordinates of `dx` and of several weight gradients.
    #[test]
    fn gradients_match_numerical() {
        let (layer, w, x) = setup(0.0, Executor::Fused);
        let (y, acts) = fwd(&layer, &x, &w, 6);
        let loss_w = Tensor::random(
            y.shape().clone(),
            &Uniform::new(-1.0, 1.0),
            &mut StdRng::seed_from_u64(7),
        );
        let dy = loss_w.clone();
        let (dx, grads) = layer.backward(&dy, &x, &w, &acts).unwrap();
        let loss = |xx: &Tensor, ww: &EncoderWeights| -> f32 {
            let (yy, _) = fwd(&layer, xx, ww, 6);
            yy.iter().map(|(i, v)| loss_w.at(&i) * v).sum()
        };
        let eps = 1e-2f32;
        // dx spot checks
        for flat in [0usize, 7, 23, 41] {
            let mut idx = vec![0usize; 3];
            for _ in 0..flat {
                x.advance(&mut idx);
            }
            let mut xp = x.clone();
            let off = xp.offset(&idx);
            xp.data_mut()[off] += eps;
            let mut xm = x.clone();
            xm.data_mut()[off] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - dx.at(&idx)).abs() < 0.05 * (1.0 + num.abs()),
                "dx at {idx:?}: numerical {num} vs analytic {}",
                dx.at(&idx)
            );
        }
        // weight gradient spot checks
        let checks: Vec<(&str, usize)> = vec![
            ("wq", 3),
            ("wo", 5),
            ("b1", 2),
            ("w2", 11),
            ("ln2_gamma", 1),
            ("bo", 4),
            ("ln1_beta", 0),
        ];
        for (name, flat) in checks {
            let analytic = {
                let (_, t) = grads
                    .fields()
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .unwrap();
                t.data()[flat]
            };
            let mut wp = w.clone();
            let mut wm = w.clone();
            {
                let (_, t) = wp
                    .fields_mut()
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .unwrap();
                t.data_mut()[flat] += eps;
            }
            {
                let (_, t) = wm
                    .fields_mut()
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .unwrap();
                t.data_mut()[flat] -= eps;
            }
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - analytic).abs() < 0.05 * (1.0 + num.abs()),
                "grad {name}[{flat}]: numerical {num} vs analytic {analytic}"
            );
        }
    }
}
