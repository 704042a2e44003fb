//! Differential proofs that the memory-bound `*_into` kernels compute the
//! same bits whichever of their loops runs. Each lane kernel runs the same
//! logical lanes twice: laid out contiguously (`post == 1`, its unit-stride
//! fast path) and interleaved (`post > 1`, its strided general loop).
//! Outputs, saved masks, per-lane statistics and the dropout RNG end state
//! must agree bitwise across randomized geometries, seeds, dropout
//! probabilities and causal masks. The bias-map kernels, which zip their
//! dense operands and index only the bias, are held to an indexed
//! reference loop the same way. Equality here is `to_bits()`, not an
//! epsilon.
//!
//! Also pins the layout-level dispatch: `ops::softmax` / `ops::layernorm`
//! take the fast path on physically row-major tensors, and the result
//! must match their strided fallback bitwise.

use proptest::prelude::*;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use substation::tensor::into_ops::{
    bdr_into, bdrln_into, bias_add_into, brd_act_into, layernorm_into, sm_into,
    softmax_causal_into, softmax_scaled_into, BiasMap, CausalMap, LaneGeom,
};
use substation::tensor::ops::elementwise::ActivationKind;
use substation::tensor::ops::layernorm::layernorm;
use substation::tensor::ops::softmax::softmax;
use substation::tensor::{Axis, Layout, Shape, Tensor};

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(-2.0f32, 2.0);
    (0..n).map(|_| dist.sample(&mut rng)).collect()
}

/// Asserts two f32 slices are bitwise identical.
fn assert_bits(name: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{name}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{name}: word {i} differs, {x} vs {y}"
        );
    }
}

/// `pre` blocks of `post` lanes of `len` elements each, visited in the
/// same lane order by both geometries.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    pre: usize,
    len: usize,
    post: usize,
}

impl Lanes {
    /// Contiguous lanes, `[pre, post, len]`: the fast path.
    fn fast(self) -> LaneGeom {
        LaneGeom {
            pre: self.pre * self.post,
            len: self.len,
            post: 1,
        }
    }

    /// Interleaved lanes, `[pre, len, post]`: the strided general loop.
    fn strided(self) -> LaneGeom {
        LaneGeom {
            pre: self.pre,
            len: self.len,
            post: self.post,
        }
    }

    /// Re-lays a `[pre, post, len]` buffer out as `[pre, len, post]`.
    fn interleave(self, rows: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; rows.len()];
        for a in 0..self.pre {
            for c in 0..self.post {
                for v in 0..self.len {
                    out[(a * self.len + v) * self.post + c] =
                        rows[(a * self.post + c) * self.len + v];
                }
            }
        }
        out
    }

    /// A causal map over the strided geometry's `pre` index, and the same
    /// map over the fast geometry, whose lane number folds in `post`.
    fn causal(self, div: usize, q: usize) -> (CausalMap, CausalMap) {
        let strided = CausalMap {
            div,
            len: q,
            base: 0,
        };
        (
            CausalMap {
                div: div * self.post,
                ..strided
            },
            strided,
        )
    }

    /// Bias maps for a bias along the lane axis, in each geometry.
    fn bias_maps(self) -> (BiasMap, BiasMap) {
        (
            BiasMap {
                dims: vec![(1, self.len, 1)],
            },
            BiasMap {
                dims: vec![(self.post, self.len, 1)],
            },
        )
    }
}

fn lanes() -> impl Strategy<Value = Lanes> {
    (1usize..4, 1usize..9, 2usize..5).prop_map(|(pre, len, post)| Lanes { pre, len, post })
}

/// Dropout mask value, drawing only when `p > 0`.
fn mask_value(p: f32, rng: &mut StdRng) -> f32 {
    if p > 0.0 && rng.gen::<f32>() < p {
        0.0
    } else {
        1.0 / (1.0 - p)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn softmax_scaled_twin_is_bitwise(g in lanes(), seed in 0u64..1000) {
        let x = rand_vec(g.fast().elements(), seed);
        let mut fast = vec![7.0f32; x.len()];
        let mut strided = vec![-7.0f32; x.len()];
        softmax_scaled_into(&x, 0.5, g.fast(), &mut fast);
        softmax_scaled_into(&g.interleave(&x), 0.5, g.strided(), &mut strided);
        assert_bits("softmax_scaled", &g.interleave(&fast), &strided);
    }

    #[test]
    fn softmax_causal_twin_is_bitwise(
        g in lanes(), div in 1usize..3, q in 1usize..5, seed in 0u64..1000,
    ) {
        let (cf, cs) = g.causal(div, q);
        let x = rand_vec(g.fast().elements(), seed);
        let mut fast = vec![7.0f32; x.len()];
        let mut strided = vec![-7.0f32; x.len()];
        softmax_causal_into(&x, 0.25, g.fast(), cf, &mut fast);
        softmax_causal_into(&g.interleave(&x), 0.25, g.strided(), cs, &mut strided);
        assert_bits("softmax_causal", &g.interleave(&fast), &strided);
    }

    #[test]
    fn sm_twin_is_bitwise_with_dropout_and_causal(
        g in lanes(), seed in 0u64..1000, p_idx in 0usize..3, use_causal in any::<bool>(),
        div in 1usize..3, q in 1usize..5,
    ) {
        let p = [0.0f32, 0.1, 0.5][p_idx];
        let (cf, cs) = g.causal(div, q);
        let (cf, cs) = (use_causal.then_some(cf), use_causal.then_some(cs));
        let x = rand_vec(g.fast().elements(), seed);
        let n = x.len();
        let (mut s1, mut a1, mut m1) = (vec![7.0f32; n], vec![7.0f32; n], vec![7.0f32; n]);
        let (mut s2, mut a2, mut m2) = (vec![-7.0f32; n], vec![-7.0f32; n], vec![-7.0f32; n]);
        // identical seeds: both loops must draw the same stream in the
        // same lane order, or the masks (and everything after) diverge
        let mut r1 = StdRng::seed_from_u64(seed ^ 0xD5);
        let mut r2 = StdRng::seed_from_u64(seed ^ 0xD5);
        sm_into(&x, 0.125, g.fast(), cf, p, &mut r1, &mut s1, &mut a1, &mut m1);
        sm_into(&g.interleave(&x), 0.125, g.strided(), cs, p, &mut r2, &mut s2, &mut a2, &mut m2);
        assert_bits("sm softmax", &g.interleave(&s1), &s2);
        assert_bits("sm alpha", &g.interleave(&a1), &a2);
        assert_bits("sm mask", &g.interleave(&m1), &m2);
        prop_assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn layernorm_twin_is_bitwise(g in lanes(), seed in 0u64..1000) {
        let (n, lanes) = (g.fast().elements(), g.fast().lanes());
        let x = rand_vec(n, seed);
        let gamma = rand_vec(g.len, seed ^ 1);
        let beta = rand_vec(g.len, seed ^ 2);
        let (mut o1, mut mu1, mut is1) =
            (vec![7.0f32; n], vec![7.0f32; lanes], vec![7.0f32; lanes]);
        let (mut o2, mut mu2, mut is2) =
            (vec![-7.0f32; n], vec![-7.0f32; lanes], vec![-7.0f32; lanes]);
        layernorm_into(&x, &gamma, &beta, g.fast(), &mut o1, &mut mu1, &mut is1);
        layernorm_into(&g.interleave(&x), &gamma, &beta, g.strided(), &mut o2, &mut mu2, &mut is2);
        assert_bits("layernorm out", &g.interleave(&o1), &o2);
        // both geometries write stats in the same lane order
        assert_bits("layernorm mean", &mu1, &mu2);
        assert_bits("layernorm inv_std", &is1, &is2);
    }

    #[test]
    fn bias_add_twin_is_bitwise(
        rows in 1usize..6, cols in 1usize..9, seed in 0u64..1000, along_rows in any::<bool>(),
    ) {
        let n = rows * cols;
        let x = rand_vec(n, seed);
        // bias broadcast over one axis of the row-major [rows, cols] buffer
        let (map, bias_len) = if along_rows {
            (BiasMap { dims: vec![(cols, rows, 1)] }, rows)
        } else {
            (BiasMap { dims: vec![(1, cols, 1)] }, cols)
        };
        let bias = rand_vec(bias_len, seed ^ 3);
        let want: Vec<f32> = (0..n).map(|f| x[f] + bias[map.offset(f)]).collect();
        let mut got = vec![7.0f32; n];
        bias_add_into(&x, &bias, &map, &mut got);
        assert_bits("bias_add", &want, &got);
    }

    #[test]
    fn bdrln_twin_is_bitwise(
        g in lanes(), seed in 0u64..1000, p_idx in 0usize..3,
    ) {
        let p = [0.0f32, 0.1, 0.5][p_idx];
        let (n, lanes) = (g.fast().elements(), g.fast().lanes());
        let x = rand_vec(n, seed);
        let bias = rand_vec(g.len, seed ^ 4);
        let residual = rand_vec(n, seed ^ 5);
        let gamma = rand_vec(g.len, seed ^ 6);
        let beta = rand_vec(g.len, seed ^ 7);
        let (mf, ms) = g.bias_maps();
        let mut f = (vec![7.0f32; n], vec![7.0f32; n], vec![7.0f32; n],
                     vec![7.0f32; lanes], vec![7.0f32; lanes]);
        let mut s = (vec![-7.0f32; n], vec![-7.0f32; n], vec![-7.0f32; n],
                     vec![-7.0f32; lanes], vec![-7.0f32; lanes]);
        let mut r1 = StdRng::seed_from_u64(seed ^ 0xB0);
        let mut r2 = StdRng::seed_from_u64(seed ^ 0xB0);
        bdrln_into(&x, &bias, &mf, &residual, &gamma, &beta, g.fast(), p, &mut r1,
                   &mut f.0, &mut f.1, &mut f.2, &mut f.3, &mut f.4);
        bdrln_into(&g.interleave(&x), &bias, &ms, &g.interleave(&residual), &gamma, &beta,
                   g.strided(), p, &mut r2, &mut s.0, &mut s.1, &mut s.2, &mut s.3, &mut s.4);
        assert_bits("bdrln mask", &g.interleave(&f.0), &s.0);
        assert_bits("bdrln ln_input", &g.interleave(&f.1), &s.1);
        assert_bits("bdrln out", &g.interleave(&f.2), &s.2);
        assert_bits("bdrln mean", &f.3, &s.3);
        assert_bits("bdrln inv_std", &f.4, &s.4);
        prop_assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn brd_act_twin_is_bitwise(
        rows in 1usize..5, cols in 1usize..9, seed in 0u64..1000,
        p_idx in 0usize..3, gelu in any::<bool>(),
    ) {
        let p = [0.0f32, 0.1, 0.5][p_idx];
        let n = rows * cols;
        let kind = if gelu { ActivationKind::Gelu } else { ActivationKind::Relu };
        let x = rand_vec(n, seed);
        let bias = rand_vec(cols, seed ^ 8);
        let map = BiasMap { dims: vec![(1, cols, 1)] };
        // indexed reference: one draw per element, in flat order
        let mut r1 = StdRng::seed_from_u64(seed ^ 0xAC);
        let (mut z1, mut o1, mut m1) = (vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]);
        for f in 0..n {
            z1[f] = x[f] + bias[map.offset(f)];
            m1[f] = mask_value(p, &mut r1);
            o1[f] = kind.apply(z1[f]) * m1[f];
        }
        let mut r2 = StdRng::seed_from_u64(seed ^ 0xAC);
        let (mut z2, mut o2, mut m2) = (vec![7.0f32; n], vec![7.0f32; n], vec![7.0f32; n]);
        brd_act_into(&x, &bias, &map, kind, p, &mut r2, &mut z2, &mut o2, &mut m2);
        assert_bits("brd pre_activation", &z1, &z2);
        assert_bits("brd out", &o1, &o2);
        assert_bits("brd mask", &m1, &m2);
        prop_assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn bdr_twin_is_bitwise(
        rows in 1usize..5, cols in 1usize..9, seed in 0u64..1000,
        p_idx in 0usize..3,
    ) {
        let p = [0.0f32, 0.1, 0.5][p_idx];
        let n = rows * cols;
        let x = rand_vec(n, seed);
        let bias = rand_vec(cols, seed ^ 9);
        let residual = rand_vec(n, seed ^ 10);
        let map = BiasMap { dims: vec![(1, cols, 1)] };
        // indexed reference; `p == 0` skips the mask multiply entirely
        let mut r1 = StdRng::seed_from_u64(seed ^ 0xBD);
        let (mut m1, mut o1) = (vec![0.0f32; n], vec![0.0f32; n]);
        for f in 0..n {
            let z = x[f] + bias[map.offset(f)];
            if p > 0.0 {
                m1[f] = mask_value(p, &mut r1);
                o1[f] = z * m1[f] + residual[f];
            } else {
                m1[f] = 1.0;
                o1[f] = z + residual[f];
            }
        }
        let mut r2 = StdRng::seed_from_u64(seed ^ 0xBD);
        let (mut m2, mut o2) = (vec![7.0f32; n], vec![7.0f32; n]);
        bdr_into(&x, &bias, &map, &residual, p, &mut r2, &mut m2, &mut o2);
        assert_bits("bdr mask", &m1, &m2);
        assert_bits("bdr out", &o1, &o2);
        // p == 0 must draw nothing in either; p > 0 one per element
        prop_assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
    }

    #[test]
    fn ops_softmax_fast_path_matches_strided_fallback(
        b in 1usize..4, j in 1usize..4, k in 2usize..7, seed in 0u64..1000,
    ) {
        let shape = Shape::new([('b', b), ('j', j), ('k', k)]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::random(shape, &Uniform::new(-2.0, 2.0), &mut rng);
        // row-major: unit-stride reduce axis → the fast path runs
        let fast = softmax(&x, Axis('k')).unwrap();
        // permuted so `k` is outermost: strided fallback
        let xp = x.relayout(&Layout::from_axis_order(x.shape(), "kbj").unwrap());
        let slow = softmax(&xp, Axis('k')).unwrap();
        let mut idx = vec![0usize; 3];
        loop {
            let (a, c) = (fast.at(&idx), slow.at(&idx));
            prop_assert!(a.to_bits() == c.to_bits(), "softmax at {:?}: {} vs {}", idx, a, c);
            if !fast.advance(&mut idx) { break; }
        }
    }

    #[test]
    fn ops_layernorm_fast_path_matches_strided_fallback(
        b in 1usize..4, j in 1usize..4, i in 2usize..7, seed in 0u64..1000,
    ) {
        let shape = Shape::new([('b', b), ('j', j), ('i', i)]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::random(shape, &Uniform::new(-2.0, 2.0), &mut rng);
        let gamma = Tensor::random(
            Shape::new([('i', i)]).unwrap(), &Uniform::new(0.5, 1.5), &mut rng);
        let beta = Tensor::random(
            Shape::new([('i', i)]).unwrap(), &Uniform::new(-0.5, 0.5), &mut rng);
        let (fast, fs) = layernorm(&x, Axis('i'), &gamma, &beta).unwrap();
        let xp = x.relayout(&Layout::from_axis_order(x.shape(), "ibj").unwrap());
        let (slow, ss) = layernorm(&xp, Axis('i'), &gamma, &beta).unwrap();
        let mut idx = vec![0usize; 3];
        loop {
            let (a, c) = (fast.at(&idx), slow.at(&idx));
            prop_assert!(a.to_bits() == c.to_bits(), "layernorm at {:?}: {} vs {}", idx, a, c);
            if !fast.advance(&mut idx) { break; }
        }
        // the strided kernel pushes stats in outer-index order, which on
        // the permuted layout is still logical (b, j) order — same vector
        assert_bits("layernorm stats mean", &fs.mean, &ss.mean);
        assert_bits("layernorm stats inv_std", &fs.inv_std, &ss.inv_std);
    }
}
