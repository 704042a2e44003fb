//! The two workloads: closed loops with one client and the program's
//! default options. Inputs come from the seed only.
//!
//! A third, BERT training, was measured and left out: its train steps
//! (~1.9 s each) follow this host's speed drift too closely for ten runs
//! to stay inside the bounds. Its layers are still timed in every traced
//! run by `train_probe`.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xform_core::plan::ExecOptions;
use xform_dataflow::EncoderDims;
use xform_tensor::ops::elementwise::bias_add;
use xform_tensor::{einsum, Result, Shape, Tensor};
use xform_transformer::decode::{DecodeOptions, DecodeSession, Sampling};
use xform_transformer::encoder::{EncoderLayer, Executor};
use xform_transformer::interp;
use xform_transformer::model::{copy_task_batch, BlockKind, ModelConfig, TransformerModel};

use crate::trace::{span, Trace};
use crate::ALLOC;

/// BERT-base layer dims at b=1, j=128, two layers. The vocabulary is cut
/// with the depth (30522 → 4096 for 12 → 2 layers), so the head's share of
/// per-token weight bytes stays close to BERT-base's (18% against 22%).
pub const BERT: ModelConfig = ModelConfig {
    dims: EncoderDims {
        b: 1,
        j: 128,
        k: 128,
        h: 12,
        p: 64,
        i: 768,
        u: 3072,
    },
    layers: 2,
    vocab: 4096,
    block: BlockKind::Encoder,
    dropout_p: 0.0,
};

/// Dropout of the training path the traced runs probe.
const TRAIN_DROPOUT: f32 = 0.1;

/// GPT-2-small layer dims, four layers, positional extent 1024, vocabulary
/// cut by the same factor as the depth (50257 → 16384 for 12 → 4 layers),
/// so the head keeps GPT-2-small's 31% of per-token weight bytes.
pub const GPT: ModelConfig = ModelConfig {
    dims: EncoderDims {
        b: 1,
        j: 1024,
        k: 1024,
        h: 12,
        p: 64,
        i: 768,
        u: 3072,
    },
    layers: 4,
    vocab: 16384,
    block: BlockKind::Decoder,
    dropout_p: 0.0,
};

/// Prompt lengths a session draws from. With the default position bucket
/// of 32 each prompt starts in the first bucket, and [`GEN_TOKENS`] more
/// tokens carry every session across into the second.
pub const PROMPT_LENS: [usize; 3] = [25, 27, 29];
/// Tokens generated per session after the first.
const GEN_TOKENS: usize = 8;
/// Decode-step capacity once a session has crossed its first bucket.
pub const GROWN_CAPACITY: usize = 64;

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Largest |fused − reference| hidden-state difference accepted.
const REF_TOL: f32 = 1e-3;
/// Largest |Σ probs − 1| accepted per position.
const PROB_TOL: f32 = 1e-3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BertInfer,
    GptDecode,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::BertInfer, Workload::GptDecode];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BertInfer => "bert_infer",
            Workload::GptDecode => "gpt_decode",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Percentile reported as `latency_tail_ms`: one with at least ten
    /// samples beyond it in a run (~70 forwards, ~160 decode steps).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::BertInfer => 80.0,
            Workload::GptDecode => 90.0,
        }
    }
}

/// What a run observed. Latencies of traced requests are kept apart from
/// untraced ones; only the latter feed the end-to-end metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub init_ms: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub ttft_ms: Vec<f64>,
    pub tokens: u64,
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Heap events of each steady-state `forward_into` / `advance`.
    pub allocs_per_call: Vec<f64>,
    pub bucket_growths: u64,
    pub resident_bytes: usize,
    /// Weight bytes one decode token streams.
    pub token_bytes: usize,
    pub plan_cache_misses: usize,
    pub arena_cache_misses: usize,
}

impl Outcome {
    fn ok(&mut self, ms: f64, traced: bool, tokens: u64) {
        self.attempted += 1;
        self.tokens += tokens;
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.latencies_ms.push(ms);
            self.busy_s += ms / 1e3;
        }
    }

    fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn cache_lens() -> (usize, usize) {
    (interp::plan_cache_len(), interp::arena_cache_len())
}

/// Builds the model and runs its cold first request `SETUP_REPS` times,
/// dropping the plan and arena caches before each, and keeps the last.
fn setup(
    out: &mut Outcome,
    config: ModelConfig,
    seed: u64,
    mut first: impl FnMut(&mut TransformerModel) -> Result<()>,
) -> Result<TransformerModel> {
    let mut model = None;
    for _ in 0..SETUP_REPS {
        drop(model.take());
        interp::clear_plan_cache();
        interp::clear_arena_cache();
        let start = Instant::now();
        let mut m = TransformerModel::init(config, &mut StdRng::seed_from_u64(seed))?;
        out.init_ms.push(ms_since(start));
        first(&mut m)?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        model = Some(m);
    }
    Ok(model.expect("at least one set-up"))
}

fn tokens(rng: &mut StdRng, len: usize, vocab: usize) -> Vec<Vec<usize>> {
    vec![(0..len).map(|_| rng.gen_range(0..vocab)).collect()]
}

/// Every position's distribution is finite and sums to one.
fn probs_ok(probs: &Tensor, d: &EncoderDims, vocab: usize) -> bool {
    (0..d.b).all(|b| {
        (0..d.j).all(|j| {
            let s: f32 = (0..vocab).map(|v| probs.at(&[v, b, j])).sum();
            s.is_finite() && (s - 1.0).abs() <= PROB_TOL
        })
    })
}

/// One `bert_infer` request: a model forward over a fresh token batch.
/// Returns the batch and hidden state of a request that passed its check.
fn infer_request(
    model: &TransformerModel,
    rng: &mut StdRng,
    trace: &mut Option<&mut Trace>,
    out: &mut Outcome,
) -> Option<(Vec<Vec<usize>>, Tensor)> {
    let batch = tokens(rng, model.config.dims.j, model.config.vocab);
    let traced = trace.is_some();
    let (acts, ms) = span(trace, "request", |t| {
        span(t, "model.forward", |_| model.forward(&batch, rng)).0
    });
    match acts {
        Ok(a) if probs_ok(&a.probs, &model.config.dims, model.config.vocab) => {
            let d = model.config.dims;
            out.ok(ms, traced, (d.b * d.j) as u64);
            if !traced {
                out.ttft_ms.push(ms);
            }
            Some((batch, a.hidden))
        }
        _ => {
            out.fail();
            None
        }
    }
}

/// Times each encoder layer's public calls outside the model forward:
/// `embed`, then per layer `forward` (with activations, as the model calls
/// it) and `forward_into`, or, on the training path, `forward` and
/// `backward`.
fn encoder_probe(
    model: &TransformerModel,
    rng: &mut StdRng,
    trace: &mut Option<&mut Trace>,
    out: &mut Outcome,
    train: bool,
) -> Result<()> {
    let d = model.config.dims;
    let batch = tokens(rng, d.j, model.config.vocab);
    let layer = EncoderLayer::new(d, Executor::Fused, model.config.dropout_p);
    let mut y = Tensor::zeros(Shape::from_spec("ibj", &d.size_table())?);
    let forward = if train {
        "encoder.forward_train"
    } else {
        "encoder.forward"
    };
    span(trace, "probe", |t| -> Result<()> {
        let mut h = span(t, "model.embed", |_| model.embed(&batch)).0?;
        for w in &model.blocks {
            let opts = ExecOptions::builder().seed(rng.gen()).build();
            let fwd = span(t, forward, |_| layer.forward(&h, w, &opts)).0?;
            let (next, acts) = fwd.into_pair()?;
            if train {
                span(t, "encoder.backward", |_| {
                    layer.backward(&next, &h, w, &acts)
                })
                .0?;
            } else {
                let before = ALLOC.events();
                span(t, "encoder.forward_into", |_| {
                    layer.forward_into(&h, w, &opts, &mut y)
                })
                .0?;
                out.allocs_per_call.push((ALLOC.events() - before) as f64);
            }
            h = next;
        }
        Ok(())
    })
    .0
}

/// Times the training path on a model no workload trains: with BERT's
/// training dropout, each layer's `forward` and `backward`, then the
/// model's `backward` and an `sgd_step` at a zero learning rate, which
/// leaves the weights as they were.
fn train_probe(
    model: &mut TransformerModel,
    rng: &mut StdRng,
    trace: &mut Option<&mut Trace>,
) -> Result<()> {
    let dropout = std::mem::replace(&mut model.config.dropout_p, TRAIN_DROPOUT);
    let result = encoder_probe(model, rng, trace, &mut Outcome::default(), true).and_then(|()| {
        let (batch, targets) = copy_task_batch(&model.config, rng);
        span(trace, "probe", |t| -> Result<()> {
            let acts = model.forward(&batch, rng)?;
            let grads = span(t, "model.backward", |_| {
                model.backward(&batch, &targets, &acts)
            })
            .0?;
            span(t, "model.sgd_step", |_| model.sgd_step(&grads, 0.0));
            Ok(())
        })
        .0
    });
    model.config.dropout_p = dropout;
    result
}

/// Compares the model's hidden state with a chain of reference-executor
/// layers over the same embedded batch.
fn reference_ok(model: &TransformerModel, batch: &[Vec<usize>], hidden: &Tensor) -> Result<bool> {
    let layer = EncoderLayer::new(model.config.dims, Executor::Reference, 0.0);
    let opts = ExecOptions::builder().build();
    let mut h = model.embed(batch)?;
    for w in &model.blocks {
        h = layer.forward(&h, w, &opts)?.into_pair()?.0;
    }
    Ok(h.max_abs_diff(hidden)? <= REF_TOL)
}

fn bert_infer(seed: u64, seconds: f64, mut trace: Option<&mut Trace>) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = setup(&mut out, BERT, seed, |m| {
        m.forward(&tokens(&mut rng, BERT.dims.j, BERT.vocab), &mut rng)
            .map(drop)
    })?;
    let caches = cache_lens();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut first = None;
    while Instant::now() < deadline {
        let kept = infer_request(&model, &mut rng, &mut None, &mut out);
        if first.is_none() {
            first = kept;
        }
        if trace.is_some() {
            infer_request(&model, &mut rng, &mut trace, &mut out);
            encoder_probe(&model, &mut rng, &mut trace, &mut out, false)?;
        }
    }
    count_misses(&mut out, caches);
    match first {
        Some((batch, hidden)) if reference_ok(&model, &batch, &hidden)? => {}
        _ => out.failed += 1,
    }
    if trace.is_some() {
        for _ in 0..2 {
            train_probe(&mut model, &mut rng, &mut trace)?;
        }
        decode_probe(seed, &mut trace, &mut out)?;
    }
    Ok(out)
}

fn count_misses(out: &mut Outcome, before: (usize, usize)) {
    let after = cache_lens();
    out.plan_cache_misses = after.0.saturating_sub(before.0);
    out.arena_cache_misses = after.1.saturating_sub(before.1);
}

/// One decode session: `new`, `prefill`, first greedy sample (the TTFT),
/// then up to `steps` sample+advance requests, stopping early at
/// `deadline` after the first. Returns the generated tokens.
fn session(
    model: &TransformerModel,
    prompt: &[Vec<usize>],
    steps: usize,
    deadline: Option<Instant>,
    trace: &mut Option<&mut Trace>,
    out: &mut Outcome,
) -> Vec<usize> {
    let traced = trace.is_some();
    let (started, ttft_ms) = span(trace, "session.start", |t| -> Result<_> {
        let mut s = span(t, "decode.new", |_| {
            DecodeSession::new(model, DecodeOptions::default())
        })
        .0?;
        span(t, "decode.prefill", |_| s.prefill(prompt)).0?;
        let mut tok = [0usize];
        span(t, "decode.sample", |_| s.sample(Sampling::Greedy, &mut tok)).0?;
        Ok((s, tok))
    });
    let Ok((mut sess, mut tok)) = started else {
        out.fail();
        return Vec::new();
    };
    out.attempted += 1;
    out.tokens += 1;
    if !traced {
        out.ttft_ms.push(ttft_ms);
        out.busy_s += ttft_ms / 1e3;
    }
    let mut generated = vec![tok[0]];
    for step in 0..steps {
        if step > 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let capacity = sess.capacity();
        let before = ALLOC.events();
        let (next, ms) = span(trace, "request", |t| -> Result<[usize; 1]> {
            span(t, "decode.advance", |_| sess.advance(&tok).map(drop)).0?;
            let mut next = [0usize];
            span(t, "decode.sample", |_| {
                sess.sample(Sampling::Greedy, &mut next)
            })
            .0?;
            Ok(next)
        });
        let events = ALLOC.events() - before;
        let finite = sess.last_logits().data().iter().all(|v| v.is_finite());
        match next {
            Ok(next) if finite => {
                out.ok(ms, traced, 1);
                if sess.capacity() == capacity {
                    out.allocs_per_call.push(events as f64);
                } else {
                    out.bucket_growths += 1;
                }
                generated.push(next[0]);
                tok = next;
            }
            _ => {
                out.fail();
                break;
            }
        }
    }
    out.resident_bytes = out.resident_bytes.max(sess.resident_bytes());
    out.token_bytes = token_bytes(model);
    generated
}

/// Moves the model's weights into a model of positional extent `len`, runs
/// `f` on it, and moves them back.
fn with_extent<T>(
    model: &mut TransformerModel,
    len: usize,
    f: impl FnOnce(&TransformerModel) -> Result<T>,
) -> Result<T> {
    let d = model.config.dims;
    let placeholder = || Tensor::zeros(Shape::new([('v', 1)]).expect("one-axis shape"));
    let positional = Tensor::from_fn(Shape::new([('j', len), ('i', d.i)])?, |ix| {
        model.positional.at(ix)
    });
    let short = TransformerModel {
        config: ModelConfig {
            dims: EncoderDims {
                j: len,
                k: len,
                ..d
            },
            ..model.config
        },
        embedding: std::mem::replace(&mut model.embedding, placeholder()),
        positional,
        blocks: std::mem::take(&mut model.blocks),
        head: std::mem::replace(&mut model.head, placeholder()),
        head_bias: std::mem::replace(&mut model.head_bias, placeholder()),
    };
    let result = f(&short);
    model.embedding = short.embedding;
    model.blocks = short.blocks;
    model.head = short.head;
    model.head_bias = short.head_bias;
    result
}

/// Greedy decoding must pick the argmax of a full-sequence forward's
/// logits at every generated position — bitwise, ties to the lowest id.
fn decode_ok(model: &mut TransformerModel, prompt: &[usize], generated: &[usize]) -> Result<bool> {
    let Some((_, fed)) = generated.split_last() else {
        return Ok(false);
    };
    let seq: Vec<usize> = prompt.iter().chain(fed).copied().collect();
    let vocab = model.config.vocab;
    let logits = with_extent(model, seq.len(), |m| {
        let acts = m.forward(std::slice::from_ref(&seq), &mut StdRng::seed_from_u64(0))?;
        bias_add(
            &einsum("vi,ibj->vbj", &[&m.head, &acts.hidden])?,
            &m.head_bias,
        )
    })?;
    Ok(generated.iter().enumerate().all(|(q, &tok)| {
        let pos = prompt.len() - 1 + q;
        let mut best = 0;
        for v in 1..vocab {
            if logits.at(&[v, 0, pos]) > logits.at(&[best, 0, pos]) {
                best = v;
            }
        }
        best == tok
    }))
}

/// The session prompt lengths of a run: every length once per cycle, in a
/// seeded order.
fn prompt_order(rng: &mut StdRng) -> [usize; 3] {
    let mut order = PROMPT_LENS;
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

fn gpt_decode(seed: u64, seconds: f64, mut trace: Option<&mut Trace>) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let order = prompt_order(&mut rng);
    let mut model = setup(&mut out, GPT, seed, |m| {
        let prompt = tokens(&mut rng, order[0], GPT.vocab);
        let mut s = DecodeSession::new(m, DecodeOptions::default())?;
        s.prefill(&prompt)?;
        s.sample(Sampling::Greedy, &mut [0])
    })?;
    let caches = cache_lens();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut first = None;
    let mut n = 0usize;
    // a traced run needs one untraced and one traced session at least
    while Instant::now() < deadline || (trace.is_some() && n < 2) {
        let prompt = tokens(&mut rng, order[n % order.len()], GPT.vocab);
        let mut untraced = None;
        let traced = if trace.is_some() && n % 2 == 1 {
            &mut trace
        } else {
            &mut untraced
        };
        let generated = session(
            &model,
            &prompt,
            GEN_TOKENS,
            Some(deadline),
            traced,
            &mut out,
        );
        if first.is_none() {
            first = Some((prompt, generated));
        }
        n += 1;
    }
    count_misses(&mut out, caches);
    match first {
        Some((prompt, generated)) if decode_ok(&mut model, &prompt[0], &generated)? => {}
        _ => out.failed += 1,
    }
    if trace.is_some() {
        drop(model);
        let mut bert = TransformerModel::init(BERT, &mut StdRng::seed_from_u64(seed))?;
        for _ in 0..2 {
            infer_request(&bert, &mut rng, &mut trace, &mut Outcome::default());
            encoder_probe(&bert, &mut rng, &mut trace, &mut Outcome::default(), false)?;
            train_probe(&mut bert, &mut rng, &mut trace)?;
        }
    }
    Ok(out)
}

/// A traced decode session on a fresh GPT-shaped model, for the decode
/// layers of workloads that do not decode.
fn decode_probe(seed: u64, trace: &mut Option<&mut Trace>, out: &mut Outcome) -> Result<()> {
    let model = TransformerModel::init(GPT, &mut StdRng::seed_from_u64(seed))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let prompt = tokens(&mut rng, PROMPT_LENS[0], GPT.vocab);
    let mut probe_out = Outcome::default();
    session(&model, &prompt, GEN_TOKENS, None, trace, &mut probe_out);
    out.bucket_growths = probe_out.bucket_growths;
    out.resident_bytes = probe_out.resident_bytes;
    out.token_bytes = probe_out.token_bytes;
    Ok(())
}

pub fn run(w: Workload, seed: u64, seconds: f64, trace: Option<&mut Trace>) -> Result<Outcome> {
    match w {
        Workload::BertInfer => bert_infer(seed, seconds, trace),
        Workload::GptDecode => gpt_decode(seed, seconds, trace),
    }
}

/// Bytes of weights one decode token streams: every block plus the head.
fn token_bytes(model: &TransformerModel) -> usize {
    let blocks: usize = model.blocks.iter().map(|b| b.num_parameters()).sum();
    4 * (blocks + model.head.len() + model.head_bias.len())
}
