//! Value equivalence of the arena interpreter through the public layer
//! API: the slab-executing forward must be bitwise-equal to the
//! allocating environment interpreter whenever no RNG is drawn, the
//! zero-allocation `forward_into` must agree with `forward` exactly, and
//! dropout masks must be invariant to the thread count (the arena draws
//! each step's stream independently, so serial and wave-parallel runs see
//! identical randomness).

use std::sync::mpsc;
use std::time::Duration;

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

use substation::core::plan::{ExecOptions, PlanOverride};
use substation::dataflow::EncoderDims;
use substation::tensor::{Shape, Tensor};
use substation::transformer::decoder::DecoderLayer;
use substation::transformer::encoder::{EncoderLayer, Executor};
use substation::transformer::interp;
use substation::transformer::params::EncoderWeights;

fn setup() -> (EncoderDims, EncoderWeights, Tensor) {
    let dims = EncoderDims::tiny();
    let mut rng = StdRng::seed_from_u64(41);
    let w = EncoderWeights::init(&dims, &mut rng);
    let x = Tensor::random(
        Shape::from_spec("ibj", &dims.size_table()).unwrap(),
        &Uniform::new(-1.0, 1.0),
        &mut rng,
    );
    (dims, w, x)
}

fn out_buffer(dims: &EncoderDims) -> Tensor {
    Tensor::from_vec(
        Shape::from_spec("ibj", &dims.size_table()).unwrap(),
        vec![0.0; dims.i * dims.b * dims.j],
    )
    .unwrap()
}

#[test]
fn every_canned_plan_compiles_an_arena_at_both_granularities() {
    let dims = EncoderDims::tiny();
    for kind in [
        interp::PlanKind::EncoderReference,
        interp::PlanKind::EncoderFused,
        interp::PlanKind::DecoderFused,
    ] {
        for threads in [1, 4] {
            let arena = interp::cached_arena(&dims, kind, interp::granularity_for(threads))
                .unwrap()
                .unwrap_or_else(|| panic!("{kind:?} must compile at {threads} thread(s)"));
            assert!(arena.slab_words() > 0);
        }
    }
}

#[test]
fn arena_forward_matches_the_env_interpreter_bitwise_without_rng() {
    // With dropout off no RNG is drawn, so the arena-routed forward and a
    // PlanOverride forward (which bypasses the arena and runs the
    // allocating environment interpreter) must agree bitwise.
    let (dims, w, x) = setup();
    for executor in [Executor::Reference, Executor::Fused, Executor::Epilogue] {
        let layer = EncoderLayer::new(dims, executor, 0.0);
        let arena_y = layer.forward(&x, &w, &ExecOptions::default()).unwrap().y;
        let pf = interp::cached_plan(
            &dims,
            match executor {
                Executor::Reference => interp::PlanKind::EncoderReference,
                Executor::Fused => interp::PlanKind::EncoderFused,
                Executor::Epilogue => interp::PlanKind::EncoderEpilogue,
            },
        )
        .unwrap();
        let env_opts = ExecOptions::builder()
            .plan(Some(PlanOverride {
                graph: &pf.graph,
                plan: &pf.plan,
                cert: Some(&pf.cert),
            }))
            .build();
        let env_y = layer.forward(&x, &w, &env_opts).unwrap().y;
        assert_eq!(arena_y.data(), env_y.data(), "{executor:?}");
    }
}

#[test]
fn forward_into_agrees_with_forward_exactly() {
    let (dims, w, x) = setup();
    let mut y = out_buffer(&dims);
    for p in [0.0f32, 0.3] {
        for threads in [1usize, 4] {
            let opts = ExecOptions::builder().threads(threads).seed(17).build();
            let encoder = EncoderLayer::new(dims, Executor::Fused, p);
            let full = encoder.forward(&x, &w, &opts).unwrap().y;
            encoder.forward_into(&x, &w, &opts, &mut y).unwrap();
            assert_eq!(full.data(), y.data(), "encoder p={p} threads={threads}");

            let decoder = DecoderLayer::new(dims, p);
            let full = decoder.forward(&x, &w, &opts).unwrap().y;
            decoder.forward_into(&x, &w, &opts, &mut y).unwrap();
            assert_eq!(full.data(), y.data(), "decoder p={p} threads={threads}");
        }
    }
}

#[test]
fn dropout_is_thread_count_invariant_under_the_arena() {
    // Per-step RNG streams make the drawn masks a function of (seed,
    // step) alone: the serial arena and the wave-parallel arena at any
    // worker count produce bitwise-identical outputs even with dropout
    // active.
    let (dims, w, x) = setup();
    for p in [0.0f32, 0.3, 0.5] {
        let layer = EncoderLayer::new(dims, Executor::Fused, p);
        let serial = layer
            .forward(&x, &w, &ExecOptions::builder().seed(23).build())
            .unwrap()
            .y;
        for threads in [2usize, 4, 8] {
            let par = layer
                .forward(
                    &x,
                    &w,
                    &ExecOptions::builder().seed(23).threads(threads).build(),
                )
                .unwrap()
                .y;
            assert_eq!(serial.data(), par.data(), "p={p} threads={threads}");
        }
    }
}

#[test]
fn a_contended_arena_waits_instead_of_changing_the_dropout_stream() {
    // A forward that finds its arena held by another thread must wait for
    // it: the allocating fallback draws dropout masks from other RNG
    // streams, so falling back under contention would make the output
    // depend on timing. The holder keeps the buffers until the contender
    // reports back (it fell back) or a grace period passes (it waits).
    let (dims, w, x) = setup();
    let layer = EncoderLayer::new(dims, Executor::Fused, 0.5);
    let opts = ExecOptions::builder().seed(23).build();
    let want = layer.forward(&x, &w, &opts).unwrap().y;
    let arena = interp::cached_arena(
        &dims,
        interp::PlanKind::EncoderFused,
        interp::granularity_for(1),
    )
    .unwrap()
    .expect("the fused encoder compiles an arena");
    let (held_tx, held_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let arena = &arena;
    std::thread::scope(|s| {
        s.spawn(move || loop {
            // other tests in this binary may hold the arena for a moment
            let held = arena.with_external_mut("x", |_| {
                held_tx.send(()).unwrap();
                let _ = done_rx.recv_timeout(Duration::from_millis(300));
            });
            if held.is_some() {
                break;
            }
            std::thread::yield_now();
        });
        held_rx.recv().unwrap();
        let got = layer.forward(&x, &w, &opts).unwrap().y;
        let _ = done_tx.send(());
        assert_eq!(want.data(), got.data());
    });
}

#[test]
fn collected_activations_match_between_arena_and_env_interpreter() {
    // Saved activations and layer-norm statistics materialized out of the
    // slab must be the same values the environment interpreter produces.
    let (dims, w, x) = setup();
    let layer = EncoderLayer::new(dims, Executor::Fused, 0.0);
    let arena_out = layer.forward(&x, &w, &ExecOptions::default()).unwrap();
    let pf = interp::cached_plan(&dims, interp::PlanKind::EncoderFused).unwrap();
    let env_opts = ExecOptions::builder()
        .plan(Some(PlanOverride {
            graph: &pf.graph,
            plan: &pf.plan,
            cert: Some(&pf.cert),
        }))
        .build();
    let env_out = layer.forward(&x, &w, &env_opts).unwrap();
    let (a, b) = (
        arena_out.activations.as_ref().unwrap(),
        env_out.activations.as_ref().unwrap(),
    );
    assert_eq!(a.qq.data(), b.qq.data());
    assert_eq!(a.sm.softmax.data(), b.sm.softmax.data());
    assert_eq!(a.gam.data(), b.gam.data());
    assert_eq!(a.ln1.stats.mean, b.ln1.stats.mean);
    assert_eq!(a.ln1.stats.inv_std, b.ln1.stats.inv_std);
    assert_eq!(a.ln2.out.data(), b.ln2.out.data());
}
