//! Streaming KV-cache decoding: a [`DecodeSession`] owns per-layer
//! persistent K/V cache slabs and drives token-at-a-time generation with
//! zero steady-state heap allocations.
//!
//! A decode step splits into three certified phases:
//!
//! 1. **project** — the [`crate::interp::PlanKind::DecoderStepProject`]
//!    plan layer-norms the incoming token column and computes the
//!    `qq_new`/`kk_new`/`vv_new` projection columns (one shared stateless
//!    arena, reused by every layer);
//! 2. **append** — the session writes `kk_new`/`vv_new` into the layer's
//!    resident cache slabs at column `pos`, through the bounds-checked
//!    [`xform_core::access::column_span`] license of the plan's
//!    [`xform_core::access::DecodeCertificate`]. The append happens
//!    *before* attention, so the query's own key is visible to its own
//!    scores — exactly the diagonal of the full-sequence causal mask;
//! 3. **attend** — the [`crate::interp::PlanKind::DecoderStep`] plan
//!    forms scores against the whole cache (capacity `C`), masks columns
//!    past `pos` to exact `0.0` via the position-shifted causal softmax
//!    ([`xform_core::arena::ArenaRun::pos`]), and runs the rest of the
//!    block. The caches are [`xform_dataflow::DataRole::Cache`] inputs:
//!    live-in/live-out of every run, never recolored over, provably never
//!    written by any plan step ([`xform_core::access::certify_decode`]).
//!
//! Because every fused kernel is shared with the full-sequence decoder
//! forward and padded cache columns only ever contribute masked-to-zero
//! terms, the incremental path is **bitwise** identical to running the
//! full prefix through [`crate::decoder::DecoderLayer`] and reading the
//! last column — the property `tests/decode_equivalence.rs` fuzzes.
//!
//! Step plans are compiled per position *bucket* (capacity rounded up to
//! [`xform_core::env::decode_bucket`] positions), so steady-state decoding
//! re-plans only when the sequence outgrows its bucket; between growths a
//! step is two arena executions plus two column `memcpy`s.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xform_core::access::{certify_decode, column_span, DecodeCertificate};
use xform_core::analyze::{analyze, ArenaGranularity};
use xform_core::arena::{ArenaArtifact, ArenaOutcome, ArenaRun, CompiledArena};
use xform_core::plan::ExecOptions;
use xform_dataflow::EncoderDims;
use xform_tensor::matmul::sgemm;
use xform_tensor::ops::elementwise::{bias_add, ActivationKind};
use xform_tensor::{into_ops, Result, Shape, Tensor, TensorError};

use crate::interp::{self, bind_inputs, run_plan, PlanKind};
use crate::model::TransformerModel;
use crate::params::EncoderWeights;

/// How [`DecodeSession::sample`] turns a logit column into a token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// Argmax over the vocabulary; ties break to the lowest token id.
    /// Draws nothing from the session RNG.
    Greedy,
    /// Softmax sampling at the given temperature, optionally restricted
    /// to the `top_k` highest-logit tokens. Draws exactly one `f32` from
    /// the session RNG per batch row per step, so the RNG end state
    /// depends only on the number of sampled tokens — never on thread
    /// count or bucket geometry.
    Temperature {
        /// Softmax temperature (> 0).
        temperature: f32,
        /// Restrict sampling to this many highest-logit tokens.
        top_k: Option<usize>,
    },
}

/// Session construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct DecodeOptions {
    /// Threads for the *prefill* pass (steps always run the serial
    /// arenas; step values are thread-invariant regardless).
    pub threads: usize,
    /// Seed for the session's sampling RNG.
    pub seed: u64,
    /// Position-bucket quantum override
    /// (default: [`xform_core::env::decode_bucket`]).
    pub bucket: Option<usize>,
    /// Maximum sequence length override (default: the positional
    /// embedding extent `dims.j`; never above it).
    pub max_seq: Option<usize>,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            threads: 1,
            seed: 0x5eed,
            bucket: None,
            max_seq: None,
        }
    }
}

/// The per-bucket compiled state: one shared attend plan and one
/// *private* arena per layer, because each layer's arena slab holds that
/// layer's resident K/V cache between calls.
#[derive(Debug)]
struct AttendBucket {
    cert: DecodeCertificate,
    arenas: Vec<CompiledArena>,
    capacity: usize,
}

/// A streaming decode session over a [`TransformerModel`] with decoder
/// blocks. See the module docs for the three-phase step anatomy.
#[derive(Debug)]
pub struct DecodeSession<'m> {
    model: &'m TransformerModel,
    threads: usize,
    bucket: usize,
    max_seq: usize,
    scaler: f32,
    /// Next position to write (= number of resident cache columns).
    pos: usize,
    attend: Option<AttendBucket>,
    project: Option<CompiledArena>,
    /// Current hidden column `[i,b,1]`; input to the next layer.
    h_cur: Tensor,
    /// Next hidden column (the attend plan's `y`).
    h_next: Tensor,
    /// Projection staging columns (`[p,h,b]` / `[w,h,b]` dense).
    qq_col: Vec<f32>,
    kk_col: Vec<f32>,
    vv_col: Vec<f32>,
    /// Logit column `[v,b,1]` of the last step.
    logits: Tensor,
    rng: StdRng,
    idx_scratch: Vec<usize>,
    prob_scratch: Vec<f32>,
}

fn round_up(n: usize, quantum: usize) -> usize {
    n.div_ceil(quantum.max(1)) * quantum.max(1)
}

fn unsupported(msg: impl Into<String>) -> TensorError {
    TensorError::Unsupported(msg.into())
}

impl<'m> DecodeSession<'m> {
    /// Creates an idle session. Call [`DecodeSession::prefill`] before
    /// stepping.
    ///
    /// # Errors
    ///
    /// Returns an error if the model is not a decoder stack or its
    /// dimensions are empty.
    pub fn new(model: &'m TransformerModel, opts: DecodeOptions) -> Result<Self> {
        if model.config.block != crate::model::BlockKind::Decoder {
            return Err(unsupported("decode sessions require decoder blocks"));
        }
        let d = model.config.dims;
        let max_seq = opts.max_seq.unwrap_or(d.j).min(d.j).max(1);
        let bucket = opts
            .bucket
            .unwrap_or_else(xform_core::env::decode_bucket)
            .max(1);
        let col = Shape::new([('i', d.i), ('b', d.b), ('j', 1)])?;
        let logits = Tensor::zeros(Shape::new([
            ('v', model.config.vocab),
            ('b', d.b),
            ('j', 1),
        ])?);
        Ok(DecodeSession {
            model,
            threads: opts.threads.max(1),
            bucket,
            max_seq,
            scaler: 1.0 / (d.p as f32).sqrt(),
            pos: 0,
            attend: None,
            project: None,
            h_cur: Tensor::zeros(col.clone()),
            h_next: Tensor::zeros(col),
            qq_col: vec![0.0; d.p * d.h * d.b],
            kk_col: vec![0.0; d.p * d.h * d.b],
            vv_col: vec![0.0; d.p * d.h * d.b],
            logits,
            rng: StdRng::seed_from_u64(opts.seed),
            idx_scratch: Vec::with_capacity(model.config.vocab),
            prob_scratch: Vec::with_capacity(model.config.vocab),
        })
    }

    /// Number of resident positions (= the next position to decode).
    pub fn len(&self) -> usize {
        self.pos
    }

    /// `true` before [`DecodeSession::prefill`] has seeded the caches.
    pub fn is_empty(&self) -> bool {
        self.pos == 0
    }

    /// Current cache capacity in positions (the bucket the step plans are
    /// compiled for).
    pub fn capacity(&self) -> usize {
        self.attend.as_ref().map_or(0, |a| a.capacity)
    }

    /// The decode certificate of the current bucket's attend plan: proof
    /// no plan step writes the caches, plus each cache's column geometry.
    pub fn decode_certificate(&self) -> Option<&DecodeCertificate> {
        self.attend.as_ref().map(|a| &a.cert)
    }

    /// Resident arena bytes across all layers (cache slabs included) plus
    /// the shared projection arena.
    pub fn resident_bytes(&self) -> usize {
        let attend: usize = self
            .attend
            .as_ref()
            .map_or(0, |a| a.arenas.iter().map(CompiledArena::slab_bytes).sum());
        attend + self.project.as_ref().map_or(0, |p| p.slab_bytes())
    }

    /// One draw from the sampling RNG — a cheap end-state fingerprint for
    /// determinism tests. Advances the RNG.
    pub fn rng_fingerprint(&mut self) -> u64 {
        self.rng.gen()
    }

    fn step_dims(&self, capacity: usize) -> EncoderDims {
        let d = self.model.config.dims;
        EncoderDims {
            b: d.b,
            j: 1,
            k: capacity,
            h: d.h,
            p: d.p,
            i: d.i,
            u: d.u,
        }
    }

    /// Head logits of the hidden column `h[i,b,0]`: the `sgemm` behind
    /// `einsum("vi,ibj->vbj")` at n = b from a zero C, then the bias, as in
    /// `bias_add` — the full-sequence head's kernel, so bitwise its logits
    /// at any length.
    fn head_column(&mut self) {
        let d = self.model.config.dims;
        let v = self.model.config.vocab;
        let out = self.logits.data_mut();
        out.fill(0.0);
        sgemm(v, d.b, d.i, self.model.head.data(), self.h_cur.data(), out);
        for (row, &bias) in out.chunks_exact_mut(d.b).zip(self.model.head_bias.data()) {
            for x in row {
                *x += bias;
            }
        }
    }

    /// Compiles the attend bucket at `capacity`: shared plan (memoized
    /// per bucket in the global plan cache), decode certificate, and one
    /// private serial arena per layer whose zero-initialized slab holds
    /// that layer's cache columns.
    fn build_bucket(&self, capacity: usize) -> Result<AttendBucket> {
        let dims = self.step_dims(capacity);
        let plan = interp::cached_plan(&dims, PlanKind::DecoderStep)?;
        let cert = certify_decode(&plan.graph, &plan.plan).map_err(|lints| {
            unsupported(format!(
                "decode step plan failed cache-freeze certification: {:?}",
                lints.iter().map(ToString::to_string).collect::<Vec<_>>()
            ))
        })?;
        let analysis = analyze(&plan.graph, &plan.plan);
        let mut arenas = Vec::with_capacity(self.model.blocks.len());
        for _ in 0..self.model.blocks.len() {
            let arena = CompiledArena::compile(
                &plan.graph,
                &plan.plan,
                &analysis,
                ArenaGranularity::Serial,
            )?
            .ok_or_else(|| unsupported("decode attend plan is not arena-compilable"))?;
            arenas.push(arena);
        }
        Ok(AttendBucket {
            cert,
            arenas,
            capacity,
        })
    }

    /// The shared projection arena (stateless — reused by every layer).
    fn build_project(&self) -> Result<CompiledArena> {
        let dims = self.step_dims(1);
        let plan = interp::cached_plan(&dims, PlanKind::DecoderStepProject)?;
        let analysis = analyze(&plan.graph, &plan.plan);
        CompiledArena::compile(&plan.graph, &plan.plan, &analysis, ArenaGranularity::Serial)?
            .ok_or_else(|| unsupported("decode project plan is not arena-compilable"))
    }

    fn arena_run(&self) -> ArenaRun {
        ArenaRun {
            dropout_p: 0.0,
            activation: ActivationKind::Gelu,
            scaler: self.scaler,
            seed: 0,
            threads: 1,
            sanitize: xform_core::arena::env_sanitize_cached(),
            pos: self.pos,
        }
    }

    /// Runs the prompt through every layer with the full-width
    /// [`PlanKind::DecoderPrefill`] plan, seeds the per-layer caches from
    /// the saved `kk`/`vv` projections, and returns the prompt's logits
    /// (`[v,b,S]`) — bitwise the full-sequence forward's logits.
    ///
    /// Allocates freely (it runs once per session); only the *step* path
    /// is allocation-free.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreements, on a prompt longer than
    /// `max_seq`, or if the session was already prefilled.
    pub fn prefill(&mut self, prompt: &[Vec<usize>]) -> Result<Tensor> {
        if self.pos != 0 {
            return Err(unsupported("session already prefilled"));
        }
        let d = self.model.config.dims;
        let s = prompt.first().map_or(0, Vec::len);
        if s == 0 || prompt.len() != d.b || prompt.iter().any(|r| r.len() != s) {
            return Err(TensorError::ShapeMismatch {
                context: "prefill prompt batch",
            });
        }
        if s > self.max_seq {
            return Err(unsupported(format!(
                "prompt of {s} tokens exceeds max_seq {}",
                self.max_seq
            )));
        }

        // embed the whole prompt
        let mut x = Tensor::zeros(Shape::new([('i', d.i), ('b', d.b), ('j', s)])?);
        for (b, row) in prompt.iter().enumerate() {
            for (j, &t) in row.iter().enumerate() {
                if t >= self.model.config.vocab {
                    return Err(unsupported(format!("token id {t} out of vocabulary")));
                }
                for i in 0..d.i {
                    let v = self.model.embedding.at(&[t, i]) + self.model.positional.at(&[j, i]);
                    x.set(&[i, b, j], v);
                }
            }
        }

        let mut prefill_dims = d;
        prefill_dims.j = s;
        prefill_dims.k = s;
        let pf = interp::cached_plan(&prefill_dims, PlanKind::DecoderPrefill)?;

        let capacity = round_up(s + 1, self.bucket);
        let bucket = self.build_bucket(capacity)?;
        let project = self.build_project()?;

        let opts = ExecOptions::builder()
            .activation(ActivationKind::Gelu)
            .scaler(self.scaler)
            .threads(self.threads)
            .build();
        let mut h = x;
        for (l, w) in self.model.blocks.iter().enumerate() {
            let mut state = bind_inputs(&h, w)?;
            run_plan(&pf.graph, &pf.plan, Some(&pf.cert), &mut state, &opts)?;
            // seed this layer's cache columns from the saved projections:
            // kk [p,h,b,k] → k_cache column k = contiguous [p,h,b]
            let kk = state.get("kk")?;
            let vv = state.get("vv")?;
            let col = d.p * d.h * d.b;
            let seed_cache = |name: &str, src: &Tensor| -> Result<()> {
                let span = column_span(&bucket.cert, name, 0, s)
                    .ok_or_else(|| unsupported(format!("prompt escapes `{name}` capacity")))?;
                bucket.arenas[l]
                    .with_external_mut(name, |dst| {
                        let dst = &mut dst[span.clone()];
                        let data = src.data();
                        for k in 0..s {
                            for phb in 0..col {
                                // src index: phb-major, k innermost
                                dst[k * col + phb] = data[phb * s + k];
                            }
                        }
                    })
                    .ok_or_else(|| unsupported(format!("cache `{name}` missing from arena")))
            };
            seed_cache("k_cache", kk)?;
            seed_cache("v_cache", vv)?;
            h = state.take("y")?;
        }

        let logits = bias_add(
            &xform_tensor::einsum("vi,ibj->vbj", &[&self.model.head, &h])?,
            &self.model.head_bias,
        )?;
        // stage the last prompt column as the current logit column so
        // sampling can start immediately
        let data = logits.data();
        let out = self.logits.data_mut();
        for vi in 0..self.model.config.vocab {
            for b in 0..d.b {
                out[vi * d.b + b] = data[(vi * d.b + b) * s + (s - 1)];
            }
        }
        self.attend = Some(bucket);
        self.project = Some(project);
        self.pos = s;
        Ok(logits)
    }

    /// Grows the cache bucket to hold at least `need` positions,
    /// recompiling the step plans and migrating the resident columns.
    fn grow(&mut self, need: usize) -> Result<()> {
        let capacity = round_up(need, self.bucket);
        let next = self.build_bucket(capacity)?;
        let old = self
            .attend
            .as_ref()
            .ok_or_else(|| unsupported("session not prefilled"))?;
        let d = self.model.config.dims;
        let live = self.pos * d.p * d.h * d.b;
        for (src, dst) in old.arenas.iter().zip(&next.arenas) {
            for name in ["k_cache", "v_cache"] {
                src.with_external(name, |s| {
                    dst.with_external_mut(name, |d| d[..live].copy_from_slice(&s[..live]))
                })
                .flatten()
                .ok_or_else(|| unsupported(format!("cache `{name}` migration failed")))?;
            }
        }
        self.attend = Some(next);
        Ok(())
    }

    /// Decodes one token column: embeds `tokens` (one id per batch row)
    /// at the current position, runs project → append → attend through
    /// every layer, and leaves the new position's logits in
    /// [`DecodeSession::last_logits`]. Steady-state (no bucket growth)
    /// this allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns an error before prefill, past `max_seq`, on a bad token
    /// id, or if an arena invariant breaks (a declined binding, missing
    /// outputs).
    pub fn advance(&mut self, tokens: &[usize]) -> Result<&Tensor> {
        if self.attend.is_none() {
            return Err(unsupported("call prefill before advance"));
        }
        if self.pos >= self.max_seq {
            return Err(unsupported(format!(
                "sequence is at max_seq {} — cannot decode further",
                self.max_seq
            )));
        }
        if self.pos >= self.capacity() {
            self.grow(self.pos + 1)?;
        }
        let pos = self.pos;
        let model = self.model;
        let d = model.config.dims;
        if tokens.len() != d.b {
            return Err(TensorError::ShapeMismatch {
                context: "decode step batch",
            });
        }
        let run = self.arena_run();
        {
            let out = &mut self.h_cur;
            for (b, &t) in tokens.iter().enumerate() {
                if t >= model.config.vocab {
                    return Err(unsupported(format!("token id {t} out of vocabulary")));
                }
                for i in 0..d.i {
                    let v = model.embedding.at(&[t, i]) + model.positional.at(&[pos, i]);
                    out.set(&[i, b, 0], v);
                }
            }
        }

        let bucket = self.attend.as_ref().expect("checked above");
        let project = self.project.as_ref().expect("built with bucket");
        for (l, w) in model.blocks.iter().enumerate() {
            // phase 1: project the new column
            {
                let h = &self.h_cur;
                let mut bind =
                    |name: &str, dst: &mut [f32]| -> bool { bind_weight(name, dst, h, None, w) };
                let qq = &mut self.qq_col;
                let kk = &mut self.kk_col;
                let vv = &mut self.vv_col;
                let mut sink = |a: ArenaArtifact<'_>| {
                    if let ArenaArtifact::Tensor { name, data, .. } = a {
                        let dst = match name {
                            "qq_new" => &mut *qq,
                            "kk_new" => &mut *kk,
                            "vv_new" => &mut *vv,
                            _ => return,
                        };
                        if data.len() == dst.len() {
                            dst.copy_from_slice(data);
                        }
                    }
                };
                match project.execute_bound(&run, &mut bind, &mut sink)? {
                    ArenaOutcome::Ran => {}
                    ArenaOutcome::Busy => {
                        return Err(unsupported("decode project arena declined the step"));
                    }
                }
            }
            // phase 2: append the new cache columns at `pos` under the
            // decode certificate's bounds-checked column license
            let arena = &bucket.arenas[l];
            for (name, col) in [("k_cache", &self.kk_col), ("v_cache", &self.vv_col)] {
                let span = column_span(&bucket.cert, name, pos, 1)
                    .ok_or_else(|| unsupported(format!("position {pos} escapes `{name}`")))?;
                arena
                    .with_external_mut(name, |slab| {
                        slab[span.clone()].copy_from_slice(col);
                    })
                    .ok_or_else(|| unsupported(format!("cache `{name}` unavailable")))?;
            }
            // phase 3: attend over the resident cache
            {
                let h = &self.h_cur;
                let qq = &self.qq_col;
                let mut bind = |name: &str, dst: &mut [f32]| -> bool {
                    bind_weight(name, dst, h, Some(qq), w)
                };
                let out = self.h_next.data_mut();
                let mut wrote = false;
                let mut sink = |a: ArenaArtifact<'_>| {
                    if let ArenaArtifact::Tensor {
                        name: "y", data, ..
                    } = a
                    {
                        if data.len() == out.len() {
                            out.copy_from_slice(data);
                            wrote = true;
                        }
                    }
                };
                match arena.execute_bound(&run, &mut bind, &mut sink)? {
                    ArenaOutcome::Ran if wrote => {}
                    ArenaOutcome::Ran => {
                        return Err(unsupported("attend arena produced no `y`"));
                    }
                    ArenaOutcome::Busy => {
                        return Err(unsupported("decode attend arena declined the step"));
                    }
                }
            }
            std::mem::swap(&mut self.h_cur, &mut self.h_next);
        }
        self.head_column();
        self.pos += 1;
        Ok(&self.logits)
    }

    /// The logit column (`[v,b,1]`) of the most recently decoded position
    /// (after [`DecodeSession::prefill`]: the last prompt position).
    pub fn last_logits(&self) -> &Tensor {
        &self.logits
    }

    /// Samples one token per batch row from [`DecodeSession::last_logits`]
    /// into `out`, drawing from the session RNG per the [`Sampling`]
    /// policy. Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns an error on a bad temperature or output length.
    pub fn sample(&mut self, sampling: Sampling, out: &mut [usize]) -> Result<()> {
        let d = self.model.config.dims;
        let v = self.model.config.vocab;
        if out.len() != d.b {
            return Err(TensorError::ShapeMismatch {
                context: "sample output batch",
            });
        }
        let logits = self.logits.data();
        for (b, slot) in out.iter_mut().enumerate() {
            *slot = match sampling {
                Sampling::Greedy => {
                    let mut best = 0usize;
                    let mut best_l = logits[b];
                    for vi in 1..v {
                        let l = logits[vi * d.b + b];
                        if l > best_l {
                            best = vi;
                            best_l = l;
                        }
                    }
                    best
                }
                Sampling::Temperature { temperature, top_k } => {
                    if temperature <= 0.0 || !temperature.is_finite() {
                        return Err(unsupported("temperature must be finite and positive"));
                    }
                    let k = top_k.unwrap_or(v).clamp(1, v);
                    self.idx_scratch.clear();
                    self.idx_scratch.extend(0..v);
                    let col = |vi: usize| logits[vi * d.b + b];
                    self.idx_scratch.sort_unstable_by(|&a, &c| {
                        col(c)
                            .partial_cmp(&col(a))
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.cmp(&c))
                    });
                    let m = col(self.idx_scratch[0]);
                    self.prob_scratch.clear();
                    let mut sum = 0.0f32;
                    for &vi in &self.idx_scratch[..k] {
                        let p = ((col(vi) - m) / temperature).exp();
                        sum += p;
                        self.prob_scratch.push(p);
                    }
                    // exactly one draw per row, independent of k
                    let u = self.rng.gen::<f32>() * sum;
                    let mut acc = 0.0f32;
                    let mut picked = self.idx_scratch[k - 1];
                    for (i, &p) in self.prob_scratch.iter().enumerate() {
                        acc += p;
                        if u <= acc {
                            picked = self.idx_scratch[i];
                            break;
                        }
                    }
                    picked
                }
            };
        }
        Ok(())
    }

    /// Prefills with `prompt` and generates `steps` tokens per batch row
    /// under the sampling policy. Returns the generated ids
    /// (`[b][steps]`).
    ///
    /// # Errors
    ///
    /// Returns an error if `prompt.len + steps - 1` exceeds `max_seq` or
    /// any step fails.
    pub fn generate(
        &mut self,
        prompt: &[Vec<usize>],
        steps: usize,
        sampling: Sampling,
    ) -> Result<Vec<Vec<usize>>> {
        if steps == 0 {
            return Ok(vec![Vec::new(); self.model.config.dims.b]);
        }
        self.prefill(prompt)?;
        let b = self.model.config.dims.b;
        let mut out = vec![Vec::with_capacity(steps); b];
        let mut step_tokens = vec![0usize; b];
        self.sample(sampling, &mut step_tokens)?;
        for (row, &t) in out.iter_mut().zip(&step_tokens) {
            row.push(t);
        }
        for _ in 1..steps {
            self.advance(&step_tokens)?;
            self.sample(sampling, &mut step_tokens)?;
            for (row, &t) in out.iter_mut().zip(&step_tokens) {
                row.push(t);
            }
        }
        Ok(out)
    }
}

/// Shared external-bind logic for the decode step arenas: the hidden
/// column `x`, the optional projected `qq` column, the stacked `w_qkv`
/// region, and every per-layer weight. Returning `false` for the cache
/// containers keeps their resident slab contents (the whole point of
/// [`xform_dataflow::DataRole::Cache`]).
fn bind_weight(
    name: &str,
    dst: &mut [f32],
    x: &Tensor,
    qq: Option<&[f32]>,
    w: &EncoderWeights,
) -> bool {
    let src: &Tensor = match name {
        "k_cache" | "v_cache" => return false,
        "x" => x,
        "qq" => {
            let Some(q) = qq else { return false };
            if q.len() != dst.len() {
                return false;
            }
            dst.copy_from_slice(q);
            return true;
        }
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
}
