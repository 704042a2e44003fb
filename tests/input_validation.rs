//! Malformed shapes at the layer entry points. The arena binds `x` and the
//! weights by word count in logical element order, so a transposed,
//! relabeled or reshaped tensor of the right size would run and return a
//! wrong `y`. `forward` and `forward_into` — encoder and decoder — must
//! instead return `Err` for every input, weight or destination whose shape
//! differs from the one the layer graph declares, and never panic.

use proptest::prelude::*;
use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::plan::ExecOptions;
use substation::dataflow::EncoderDims;
use substation::tensor::{Layout, Shape, Tensor};
use substation::transformer::decoder::DecoderLayer;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::params::EncoderWeights;

fn random(shape: Shape, rng: &mut StdRng) -> Tensor {
    Tensor::random(shape, &Uniform::new(-1.0, 1.0), rng)
}

/// A malformed tensor standing in for one of shape `[a0, a1, a2]` with
/// sizes `[n0, n1, n2]`: a wrong axis order, a foreign label, a reshape to
/// the same word count, or one element too many along an axis.
fn malformed(axes: [char; 3], sizes: [usize; 3], case: usize, rng: &mut StdRng) -> Tensor {
    let [a0, a1, a2] = axes;
    let [n0, n1, n2] = sizes;
    let shape = match case % 6 {
        0 => Shape::new([(a2, n2), (a1, n1), (a0, n0)]),
        1 => Shape::new([(a1, n1), (a0, n0), (a2, n2)]),
        2 => Shape::new([('z', n0), (a1, n1), (a2, n2)]),
        3 => Shape::new([(a0, n0 * n1), (a1, 1), (a2, n2)]),
        4 => Shape::new([(a0, n0), (a1, n1), (a2, n2 + 1)]),
        _ => Shape::new([(a0, n0 * n1), (a2, n2)]),
    };
    random(shape.expect("distinct labels, nonzero sizes"), rng)
}

/// Asserts every entry point rejects `x`, `w` and `y` with an error.
fn assert_all_reject(
    dims: EncoderDims,
    x: &Tensor,
    w: &EncoderWeights,
    y: &mut Tensor,
    opts: &ExecOptions,
    what: &str,
) {
    let encoder = EncoderLayer::new(dims, Executor::Fused, 0.0);
    let decoder = DecoderLayer::new(dims, 0.0);
    assert!(
        encoder.forward(x, w, opts).is_err(),
        "encoder forward accepted {what}"
    );
    assert!(
        encoder.forward_into(x, w, opts, y).is_err(),
        "encoder forward_into accepted {what}"
    );
    assert!(
        decoder.forward(x, w, opts).is_err(),
        "decoder forward accepted {what}"
    );
    assert!(
        decoder.forward_into(x, w, opts, y).is_err(),
        "decoder forward_into accepted {what}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn malformed_shapes_are_rejected_at_every_entry_point(
        case in 0usize..6, weight in 0usize..4, threads in 1usize..3, seed in 0u64..1000,
    ) {
        let dims = EncoderDims::tiny();
        let mut rng = StdRng::seed_from_u64(seed);
        let w = EncoderWeights::init(&dims, &mut rng);
        let ibj = Shape::from_spec("ibj", &dims.size_table()).unwrap();
        let x = random(ibj.clone(), &mut rng);
        let mut y = Tensor::zeros(ibj.clone());
        let opts = ExecOptions::builder().threads(threads).seed(1).build();

        // the well-formed call runs, so every rejection below is the shape's
        let encoder = EncoderLayer::new(dims, Executor::Fused, 0.0);
        prop_assert!(encoder.forward_into(&x, &w, &opts, &mut y).is_ok());

        let (i, b, j) = (dims.i, dims.b, dims.j);
        let bad_x = malformed(['i', 'b', 'j'], [i, b, j], case, &mut rng);
        assert_all_reject(dims, &bad_x, &w, &mut y, &opts, &format!("x {:?}", bad_x.shape()));

        // a weight of the wrong shape, often with the right word count
        let mut bad_w = w.clone();
        let (p, h, u) = (dims.p, dims.h, dims.u);
        match weight {
            0 => bad_w.wq = malformed(['p', 'h', 'i'], [p, h, i], case, &mut rng),
            1 => bad_w.w1 = random(Shape::new([('i', i), ('u', u)]).unwrap(), &mut rng),
            2 => bad_w.wo = malformed(['w', 'h', 'i'], [p, h, i], case, &mut rng),
            _ => bad_w.bq = random(Shape::new([('h', h), ('p', p)]).unwrap(), &mut rng),
        }
        assert_all_reject(dims, &x, &bad_w, &mut y, &opts, "a malformed weight");

        // a destination that is not a row-major [i,b,j] tensor
        let mut bad_y = malformed(['i', 'b', 'j'], [i, b, j], case, &mut rng);
        let decoder = DecoderLayer::new(dims, 0.0);
        prop_assert!(encoder.forward_into(&x, &w, &opts, &mut bad_y).is_err());
        prop_assert!(decoder.forward_into(&x, &w, &opts, &mut bad_y).is_err());
        let mut permuted_y = y.relayout(&Layout::from_axis_order(&ibj, "jbi").unwrap());
        prop_assert!(encoder.forward_into(&x, &w, &opts, &mut permuted_y).is_err());
        prop_assert!(decoder.forward_into(&x, &w, &opts, &mut permuted_y).is_err());
    }
}
