//! The `StridedInnerLoop` demotion path, end to end: a deliberately
//! strided schedule (the softmax input's layout rotated so the reduce
//! axis is no longer innermost, plus random layout twists elsewhere)
//! loses its unit-stride verdict on the strided step — its kernel runs
//! the strided general loop — and the wave-parallel run of that demoted
//! plan must stay bitwise identical to the serial run at every thread
//! count. Dropout is off, so no RNG stream is consumed and any
//! divergence is a kernel-dispatch bug, not noise.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::access::certify_access;
use substation::core::analyze::{PlanLint, Severity};
use substation::core::plan::{ExecOptions, PlanOverride};
use substation::core::sanitize::certify;
use substation::dataflow::EncoderDims;
use substation::tensor::{Shape, Tensor};
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::interp;
use substation::transformer::params::EncoderWeights;

fn dims() -> EncoderDims {
    EncoderDims {
        b: 2,
        j: 8,
        k: 8,
        h: 2,
        p: 4,
        i: 8,
        u: 12,
    }
}

/// Rotates `s` right by one — the reduce axis stops being innermost.
fn rotate_right(s: &str) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    chars.rotate_right(1);
    chars.into_iter().collect()
}

/// Rotates `s` left by `n` — always a valid permutation of the layout.
fn rotate(s: &str, n: usize) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.is_empty() {
        return String::new();
    }
    let n = n % chars.len();
    chars[n..].iter().chain(&chars[..n]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // A strided softmax input demotes the step to the strided general path
    // (not unit-stride, StridedInnerLoop warning), and the wave-parallel
    // interpreter of the demoted plan is bitwise-equal to the serial one.
    #[test]
    fn strided_plan_demotes_and_wave_parallel_matches_serial_bitwise(
        seed in 0u64..1_000,
        twist in 0u64..1_000,
    ) {
        let dims = dims();
        let planned = interp::encoder_fused(&dims).unwrap();
        let mut plan = planned.plan.clone();

        // force the demotion: the softmax input's reduce axis leaves the
        // innermost position, so its access path gains an inner stride
        let si = plan.steps.iter().position(|s| s.name == "SM").unwrap();
        plan.steps[si].inputs[0].layout = rotate_right(&plan.steps[si].inputs[0].layout);
        // and twist a few other operands for variety
        let mut r = StdRng::seed_from_u64(twist);
        for step in &mut plan.steps {
            for o in step.inputs.iter_mut().chain(step.outputs.iter_mut()) {
                let n = rand::Rng::gen_range(&mut r, 0..3usize);
                if n > 0 {
                    o.layout = rotate(&o.layout, n);
                }
            }
        }
        plan.reflow(&planned.graph);
        prop_assert!(plan
            .check(&planned.graph)
            .iter()
            .all(|l| l.severity() != Severity::Error));

        // the access certifier still certifies the plan (strided is a
        // warning, not an error) but denies the strided step its
        // unit-stride verdict — the step runs the strided general path
        let acc = certify_access(&planned.graph, &plan)
            .expect("a strided plan certifies with warnings");
        prop_assert!(
            acc.lints
                .iter()
                .any(|l| matches!(l, PlanLint::StridedInnerLoop { .. })),
            "the rotated layout must surface a StridedInnerLoop warning"
        );
        prop_assert!(
            !acc.steps[si].unit_stride,
            "the strided softmax step must lose its unit-stride verdict"
        );

        let cert = certify(&planned.graph, &plan).expect("race certification");
        let mut rng = StdRng::seed_from_u64(seed);
        let w = EncoderWeights::init(&dims, &mut rng);
        let x = Tensor::random(
            Shape::from_spec("ibj", &dims.size_table()).unwrap(),
            &rand::distributions::Uniform::new(-1.0, 1.0),
            &mut rng,
        );
        let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
        let over = PlanOverride {
            graph: &planned.graph,
            plan: &plan,
            cert: Some(&cert),
        };
        let serial = ExecOptions::builder().plan(Some(over)).seed(3).build();
        let y_serial = layer
            .forward(&x, &w, &serial)
            .expect("serial forward of the demoted plan")
            .y;
        for threads in [2usize, 4, 8] {
            let run = serial.to_builder().threads(threads).build();
            let y_par = layer
                .forward(&x, &w, &run)
                .expect("wave-parallel forward of the demoted plan")
                .y;
            prop_assert_eq!(y_par.data(), y_serial.data());
            prop_assert_eq!(y_par.layout(), y_serial.layout());
        }
    }
}
