//! Softmax (⬜ statistical normalization) forward and backward.
//!
//! In the paper's MHA, softmax runs over the output-sequence axis `k` of the
//! scaled attention scores `beta[h,b,j,k]` and is fused with scaling and
//! dropout into the `SM` kernel; the unfused building block lives here.

use crate::axes::Axis;
use crate::error::Result;
use crate::tensor::Tensor;

use super::{check_same_shape, for_each_outer};

/// Numerically stable softmax along `axis`.
///
/// # Errors
///
/// Returns [`crate::TensorError::UnknownAxis`] if `axis` is not part of the
/// tensor's shape.
///
/// # Examples
///
/// ```
/// use xform_tensor::{ops::softmax::softmax, Axis, Shape, Tensor};
/// let x = Tensor::from_vec(Shape::new([('k', 2)]).unwrap(), vec![0.0, 0.0]).unwrap();
/// let y = softmax(&x, Axis('k')).unwrap();
/// assert!((y.at(&[0]) - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(x: &Tensor, axis: Axis) -> Result<Tensor> {
    let ai = x.shape().index_of(axis)?;
    let len = x.shape().sizes()[ai];
    let stride = x.strides()[ai];
    let mut out = x.clone();
    if stride == 1 && x.layout().is_row_major_for(x.shape()) {
        // dense, physically row-major, unit-stride reduce axis: `post == 1`,
        // so the lane kernel takes its contiguous-row fast path.
        // `scaler = 1.0` is a bitwise identity under IEEE 754 multiplication.
        let lane = crate::into_ops::LaneGeom::new(x.shape().sizes(), ai);
        crate::into_ops::softmax_scaled_into(x.data(), 1.0, lane, out.data_mut());
        return Ok(out);
    }
    for_each_outer(x.shape(), ai, |idx| {
        let base = x.offset(idx);
        // max
        let mut mx = f32::NEG_INFINITY;
        for v in 0..len {
            mx = mx.max(x.data()[base + v * stride]);
        }
        // exp + sum
        let mut sum = 0.0f32;
        for v in 0..len {
            let e = (x.data()[base + v * stride] - mx).exp();
            out.data_mut()[base + v * stride] = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        for v in 0..len {
            out.data_mut()[base + v * stride] *= inv;
        }
    });
    Ok(out)
}

/// Softmax backward: `dx = y ⊙ (dy − ⟨dy, y⟩_axis)`, where `y` is the
/// forward output.
///
/// # Errors
///
/// Returns an error if shapes differ or `axis` is unknown.
pub fn softmax_backward(dy: &Tensor, y: &Tensor, axis: Axis) -> Result<Tensor> {
    check_same_shape(dy, y, "softmax_backward")?;
    let ai = y.shape().index_of(axis)?;
    let len = y.shape().sizes()[ai];
    let mut dx = y.clone();
    for_each_outer(y.shape(), ai, |idx| {
        let y_base = y.offset(idx);
        let y_stride = y.strides()[ai];
        let dy_base = dy.offset(idx);
        let dy_stride = dy.strides()[ai];
        let mut dot = 0.0f32;
        for v in 0..len {
            dot += dy.data()[dy_base + v * dy_stride] * y.data()[y_base + v * y_stride];
        }
        for v in 0..len {
            let g = dy.data()[dy_base + v * dy_stride] - dot;
            dx.data_mut()[y_base + v * y_stride] = y.data()[y_base + v * y_stride] * g;
        }
    });
    Ok(dx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::Shape;
    use crate::layout::Layout;
    use rand::distributions::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_t(seed: u64) -> Tensor {
        let shape = Shape::new([('b', 2), ('j', 3), ('k', 4)]).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(shape, &Uniform::new(-2.0, 2.0), &mut rng)
    }

    #[test]
    fn rows_sum_to_one_and_are_positive() {
        let x = rand_t(1);
        let y = softmax(&x, Axis('k')).unwrap();
        for b in 0..2 {
            for j in 0..3 {
                let mut sum = 0.0;
                for k in 0..4 {
                    let v = y.at(&[b, j, k]);
                    assert!(v > 0.0);
                    sum += v;
                }
                assert!((sum - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = rand_t(2);
        let shifted = crate::ops::elementwise::map(&x, |v| v + 100.0);
        let a = softmax(&x, Axis('k')).unwrap();
        let b = softmax(&shifted, Axis('k')).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-5);
    }

    #[test]
    fn softmax_layout_independent() {
        let x = rand_t(3);
        let base = softmax(&x, Axis('k')).unwrap();
        for layout in Layout::all(3) {
            let xp = x.relayout(&layout);
            let yp = softmax(&xp, Axis('k')).unwrap();
            assert!(yp.max_abs_diff(&base).unwrap() < 1e-6);
        }
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let x = rand_t(4);
        let axis = Axis('k');
        let y = softmax(&x, axis).unwrap();
        // loss = sum(w ⊙ y) for fixed random weights w
        let w = rand_t(5);
        let dy = w.clone();
        let dx = softmax_backward(&dy, &y, axis).unwrap();
        let eps = 1e-3f32;
        let mut idx = vec![0usize; 3];
        loop {
            let mut xp = x.clone();
            let off = xp.offset(&idx);
            xp.data_mut()[off] += eps;
            let yp = softmax(&xp, axis).unwrap();
            let mut xm = x.clone();
            xm.data_mut()[off] -= eps;
            let ym = softmax(&xm, axis).unwrap();
            let mut lp = 0.0f32;
            let mut lm = 0.0f32;
            for (i, v) in yp.iter() {
                lp += w.at(&i) * v;
            }
            for (i, v) in ym.iter() {
                lm += w.at(&i) * v;
            }
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.at(&idx)).abs() < 2e-2,
                "numerical {num} vs analytic {} at {idx:?}",
                dx.at(&idx)
            );
            if !x.advance(&mut idx) {
                break;
            }
        }
    }

    #[test]
    fn unknown_axis_errors() {
        let x = rand_t(6);
        assert!(softmax(&x, Axis('q')).is_err());
    }
}
