//! Property tests for the access-path certifier: every injected access
//! corruption — an out-of-bounds retarget, a strided inner loop, an
//! intra-step write/read alias, a tampered arena slot — must surface as
//! the right typed lint statically, and the out-of-bounds case must also
//! be caught dynamically by the shadow interpreter's certified-path
//! cross-check when the static gate is bypassed (`XFORM_SANITIZE`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use xform_core::access::{certify_access, certify_access_arena, step_accesses};
use xform_core::analyze::{analyze, assign_arena, ArenaGranularity, PlanLint, Severity};
use xform_core::fusion::{apply_plan, encoder_fusion_plan};
use xform_core::plan::{random_externals, ExecOptions, ExecutionPlan};
use xform_core::recipe::forward_ops;
use xform_core::sanitize::execute_plan_sanitized;
use xform_dataflow::{build, EncoderDims, Graph};

fn fused() -> (Graph, ExecutionPlan) {
    let eg = build::encoder(&EncoderDims::tiny());
    let mut g = eg.graph;
    apply_plan(&mut g, &encoder_fusion_plan()).unwrap();
    let plan = ExecutionPlan::natural(&g, &forward_ops(&g, eg.dy)).unwrap();
    (g, plan)
}

fn unfused() -> (Graph, ExecutionPlan) {
    let eg = build::encoder(&EncoderDims::tiny());
    let plan = ExecutionPlan::natural(&eg.graph, &forward_ops(&eg.graph, eg.dy)).unwrap();
    (eg.graph, plan)
}

fn opts() -> ExecOptions<'static> {
    ExecOptions::builder().scaler(1.0 / (3f32).sqrt()).build()
}

/// Runs the shadow interpreter (static gate bypassed) over a possibly
/// tampered plan, binding externals from the untampered plan.
fn shadow_run(
    graph: &Graph,
    sound: &ExecutionPlan,
    tampered: &ExecutionPlan,
) -> xform_tensor::Result<()> {
    let mut state = random_externals(graph, sound, 17).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    execute_plan_sanitized(graph, tampered, &mut state, &opts(), &mut rng, None)
}

/// Rotates a layout spec left by one: `"hbjk"` → `"bjkh"`. On a rank > 1
/// swept container this moves the innermost axis, de-vectorizing the
/// kernel's inner loop.
fn rotate(spec: &str) -> String {
    let mut cs: Vec<char> = spec.chars().collect();
    cs.rotate_left(1);
    cs.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Retargeting an input operand (data + environment name) at a
    // strictly smaller container leaves the kernel sweeping the original
    // edge's words through a buffer that cannot hold them: the certifier
    // proves the escape (UnprovenAccess, error severity), and the shadow
    // interpreter's certified-path cross-check catches the same escape
    // at runtime before the kernel runs.
    #[test]
    fn out_of_bounds_retarget_is_convicted_and_caught(
        step_pick in 0usize..64, input_pick in 0usize..8,
    ) {
        for (g, sound) in [unfused(), fused()] {
            // the smallest container named anywhere in the plan (a bias)
            let victim = sound
                .steps
                .iter()
                .flat_map(|s| s.inputs.iter())
                .min_by_key(|o| g.data(o.data).unwrap().shape.num_elements())
                .unwrap()
                .clone();
            let victim_words = g.data(victim.data).unwrap().shape.num_elements();

            // pick a (step, input) whose edge is strictly larger than the
            // victim and which doesn't already touch the victim's name
            let mut plan = sound.clone();
            let n = plan.steps.len();
            let pick = (0..n)
                .flat_map(|si| (0..plan.steps[si].inputs.len()).map(move |k| (si, k)))
                .cycle()
                .skip(step_pick * 7 + input_pick)
                .take(n * 8)
                .find(|&(si, k)| {
                    let s = &plan.steps[si];
                    let edge = g.inputs_of(s.op)[k];
                    g.data(edge).unwrap().shape.num_elements() > victim_words
                        && s.inputs.iter().all(|o| o.name != victim.name)
                        && s.outputs.iter().all(|o| o.name != victim.name)
                });
            let Some((si, k)) = pick else { return Ok(()) };
            plan.steps[si].inputs[k].data = victim.data;
            plan.steps[si].inputs[k].name = victim.name.clone();
            plan.steps[si].relayouts.clear();

            let lints = certify_access(&g, &plan)
                .expect_err("an out-of-bounds retarget must not certify");
            prop_assert!(
                lints.iter().any(|l| matches!(
                    l,
                    PlanLint::UnprovenAccess { step, .. } if *step == si
                )),
                "expected an UnprovenAccess lint at step {si}, got {lints:?}"
            );
            prop_assert!(
                lints.iter().any(|l| l.severity() == Severity::Error),
                "the conviction must be error severity"
            );

            let err = shadow_run(&g, &sound, &plan)
                .expect_err("the shadow interpreter must catch the escape");
            prop_assert!(
                err.to_string().contains("ends at word")
                    || err.to_string().contains("sanitizer"),
                "expected the certified-path cross-check to fire, got: {err}"
            );
        }
    }

    // Rotating a swept operand's layout moves the kernel's inner loop off
    // the contiguous axis. That is not a safety violation — the certifier
    // still certifies — but the step loses its unit-stride verdict
    // (StridedInnerLoop, warning severity): it runs the strided general path.
    #[test]
    fn strided_inner_loop_demotes_but_does_not_reject(step_pick in 0usize..64) {
        let (g, sound) = fused();
        let baseline = certify_access(&g, &sound).expect("the canned plan certifies");
        // pick a unit-stride step whose first input, once rotated, genuinely
        // sweeps with a non-unit inner stride (a singleton axis moved to
        // the innermost slot would leave the walk contiguous)
        let n = sound.steps.len();
        let mut found = None;
        for off in 0..n {
            let si = (step_pick + off) % n;
            if !baseline.steps[si].unit_stride {
                continue;
            }
            let s = &sound.steps[si];
            let Some(op0) = s.inputs.first() else { continue };
            if op0.layout.len() < 2 {
                continue;
            }
            let mut step = s.clone();
            step.inputs[0].layout = rotate(&op0.layout);
            let sa = step_accesses(&g, &step);
            if sa
                .accesses
                .iter()
                .any(|a| a.swept && a.path.inner_stride() != 1)
            {
                found = Some((si, step));
                break;
            }
        }
        let Some((si, step)) = found else { return Ok(()) };
        let mut plan = sound.clone();
        plan.steps[si] = step;

        let cert = certify_access(&g, &plan)
            .expect("a strided loop is a demotion, not a rejection");
        prop_assert!(
            !cert.steps[si].unit_stride,
            "step {si} must lose its unit-stride verdict after the layout rotation"
        );
        prop_assert!(
            cert.lints.iter().any(|l| matches!(
                l,
                PlanLint::StridedInnerLoop { step, .. } if *step == si
            )),
            "expected a StridedInnerLoop lint at step {si}, got {:?}",
            cert.lints
        );
        prop_assert!(
            cert.lints
                .iter()
                .all(|l| l.severity() == Severity::Warning),
            "strided demotions are warnings, never errors"
        );
    }

    // Pointing a step's output at one of its own input containers is a
    // write/read overlap the race certificate never granted: rejected
    // with an error lint, and the shadow interpreter refuses the same
    // step at runtime.
    #[test]
    fn intra_step_alias_is_convicted_and_caught(step_pick in 0usize..64) {
        let (g, sound) = fused();
        let n = sound.steps.len();
        // pick a step with a same-shape input/output pair so the only
        // defect is the alias itself (not a size mismatch)
        let pick = (0..n)
            .cycle()
            .skip(step_pick)
            .take(n)
            .find(|&si| {
                let s = &sound.steps[si];
                s.inputs.first().zip(s.outputs.first()).is_some_and(|(i, o)| {
                    g.data(i.data).unwrap().shape.num_elements()
                        == g.data(o.data).unwrap().shape.num_elements()
                })
            });
        let Some(si) = pick else { return Ok(()) };
        let mut plan = sound.clone();
        // the output now writes through the input's container while still
        // declaring its own name: a same-data write/read overlap
        plan.steps[si].outputs[0].data = plan.steps[si].inputs[0].data;

        let lints = certify_access(&g, &plan)
            .expect_err("an intra-step write/read alias must not certify");
        prop_assert!(
            lints.iter().any(|l| matches!(
                l,
                PlanLint::UnprovenAccess { step, .. } if *step == si
            )),
            "expected an UnprovenAccess lint at step {si}, got {lints:?}"
        );

        let err = shadow_run(&g, &sound, &plan)
            .expect_err("the shadow interpreter must catch the alias");
        prop_assert!(!err.to_string().is_empty());
    }

    // Tampering with the arena coloring — shrinking a slot under its
    // container — breaks the slab embedding: the arena-level certifier
    // convicts it even though the logical certificate is clean.
    #[test]
    fn shrunken_arena_slot_is_convicted(victim_pick in 0usize..64, serial in any::<bool>()) {
        let (g, plan) = fused();
        let analysis = analyze(&g, &plan);
        let gran = if serial {
            ArenaGranularity::Serial
        } else {
            ArenaGranularity::Waves
        };
        let mut arena = assign_arena(&analysis, gran);
        certify_access_arena(&g, &plan, &arena).expect("the untampered coloring certifies");

        let shrinkable: Vec<usize> = (0..arena.slots.len())
            .filter(|&i| arena.slots[i].words > 1)
            .collect();
        prop_assert!(!shrinkable.is_empty());
        let vi = shrinkable[victim_pick % shrinkable.len()];
        arena.slots[vi].words /= 2;

        let lints = certify_access_arena(&g, &plan, &arena)
            .expect_err("a shrunken slot must not certify");
        prop_assert!(
            lints.iter().any(|l| matches!(l, PlanLint::UnprovenAccess { .. })),
            "expected an UnprovenAccess conviction, got {lints:?}"
        );
    }
}
