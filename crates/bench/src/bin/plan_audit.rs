//! Static data-movement audit of execution plans — no kernel ever runs.
//!
//! For each schedule (Reference encoder, Fused encoder, Fused decoder, and
//! a recipe-selected plan lowered from simulator sweeps) this prints the
//! report of `xform_core::analyze`: the dependency DAG's parallel waves,
//! peak resident bytes, per-operator-class byte volumes (Table I style),
//! the plan-level static MUE (`Q/D · B/B̂`), and every lint the analyzer
//! raises. The audited set includes the GEMM-epilogue mega-kernel plans,
//! which must beat their unfused counterparts on the static account:
//! `D` strictly lower with `Q` unchanged and a strictly smaller serial
//! arena slab — violations fail the audit. With `--check` it exits
//! non-zero if any plan carries an error-severity lint or any plan's
//! static MUE regresses below the checked-in floor in
//! `crates/bench/baseline_static_mue.txt` — CI uses this to fail the
//! build on a lint-dirty or MUE-regressed canned plan. With `--cache`
//! (composable with `--check`) every plan is additionally pushed through
//! the reuse-distance cache model (`xform_core::cachemodel`) under the
//! modelled device's hierarchy (or the `XFORM_CACHE_GEOM` override):
//! the cache-corrected MUE must be at least the flat one on every plan
//! with `Q` untouched, the GEMM-epilogue plans must stay strictly ahead
//! of their unfused counterparts on the corrected account, and each
//! plan's corrected MUE must hold the floor pinned in
//! `crates/bench/baseline_cache_mue.txt`. With `--json` it writes
//! `BENCH_plan_audit.json` — the machine-readable mirror of the full
//! audit (flat and cache-corrected MUE, predicted DRAM bytes, arena slab
//! bytes, and every lint) — so the static account is tracked across PRs
//! like `plan_profile --json` tracks the measured one. With `--certify`
//! it runs the full race certifier
//! (`xform_core::sanitize::certify`) on every plan and prints each
//! certificate's fingerprint and wave partition, exiting non-zero if any
//! plan cannot be certified for wave-parallel execution. With `--access`
//! it runs the access-path certifier (`xform_core::access`) at the
//! logical level and at both arena granularities, printing each plan's
//! unit-stride step count and every access lint, exiting non-zero if any
//! plan fails certification (error-severity access lints). Strided inner
//! loops are warnings — those steps run their kernels' strided general
//! path — and do not fail the audit.

use std::collections::HashMap;

use xform_bench::cli::{Cli, Flag, CHECK, JSON};
use xform_core::access::{certify_access, certify_access_arena};
use xform_core::analyze::{
    analyze, assign_arena, audit, cross_call_high_water, lint_selection, render_report,
    ArenaGranularity, Severity,
};
use xform_core::cachemodel::{cache_audit, CacheGeometry, CACHE_GEOM_ENV};
use xform_core::plan::ExecutionPlan;
use xform_core::sanitize::{certify, env_setting};
use xform_core::selection::select_forward;
use xform_core::sweep::{sweep_all, SimulatorSource, SweepOptions, SweepResult};
use xform_dataflow::{EncoderDims, Graph, NodeId};
use xform_gpusim::mue::Mue;
use xform_gpusim::DeviceSpec;
use xform_transformer::interp;

/// Checked-in static-MUE floor per canned plan. `--check` fails when any
/// plan's audited static MUE regresses below its pinned value; re-pin by
/// editing the file when a change legitimately raises a floor.
const BASELINE: &str = include_str!("../../baseline_static_mue.txt");

/// Checked-in cache-corrected MUE floor per canned plan, gated by
/// `--cache --check` under the deterministic device hierarchy.
const CACHE_BASELINE: &str = include_str!("../../baseline_cache_mue.txt");

/// Tolerance (MUE points) when comparing against the pinned baseline,
/// absorbing float-summation noise across platforms.
const BASELINE_TOL: f64 = 0.05;

struct Audited {
    title: &'static str,
    /// Stable key into the static-MUE baseline file; empty when the plan
    /// is not baselined.
    key: &'static str,
    errors: usize,
    steps: usize,
    warnings: usize,
    /// The audited static plan MUE (None in certify/access modes).
    mue: Option<Mue>,
    /// Serial arena slab bytes (None in certify/access modes).
    slab_bytes: Option<u64>,
    /// Every analyzer lint, rendered (kept for the JSON mirror).
    lints: Vec<(Severity, String)>,
    /// Cache-corrected account (None unless `--cache` / `--json`).
    cache: Option<CacheSummary>,
}

/// The cache-corrected slice of one plan's audit.
struct CacheSummary {
    mue: Mue,
    dram_bytes: u64,
    flat_bytes: u64,
    hit_words: Vec<u64>,
    compulsory_words: u64,
    lints: Vec<String>,
}

fn parse_baseline(text: &'static str) -> HashMap<&'static str, f64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.split_once(char::is_whitespace)?;
            Some((key, value.trim().parse().ok()?))
        })
        .collect()
}

/// The hierarchy `--cache` audits under: the `XFORM_CACHE_GEOM` override
/// when parsable, else the modelled device's own hierarchy — never the
/// host's, so CI results are machine-independent.
fn audit_geometry(device: &DeviceSpec) -> CacheGeometry {
    env_setting(CACHE_GEOM_ENV)
        .and_then(|v| CacheGeometry::parse(&v))
        .unwrap_or_else(|| CacheGeometry::for_device(device))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Full rendered report per plan.
    Full,
    /// Lint summary only, non-zero exit on error lints.
    Check,
    /// Machine-readable mirror written to `BENCH_plan_audit.json`.
    Json,
    /// Race certification, non-zero exit on an uncertifiable plan.
    Certify,
    /// Access-path certification at the logical level and both arena
    /// granularities, non-zero exit on error-severity access lints.
    Access,
}

/// Runs the access-path certifier on one plan: logically and embedded
/// into the arena coloring at both granularities. Returns the number of
/// error lints across the three passes.
fn report_access(title: &str, graph: &Graph, plan: &ExecutionPlan) -> usize {
    let analysis = analyze(graph, plan);
    let mut errors = 0usize;
    let logical = certify_access(graph, plan).map(|c| (c, "logical".to_string()));
    let passes = [ArenaGranularity::Serial, ArenaGranularity::Waves]
        .into_iter()
        .map(|gran| {
            let arena = assign_arena(&analysis, gran);
            certify_access_arena(graph, plan, &arena).map(|c| (c, format!("arena/{gran:?}")))
        });
    for outcome in std::iter::once(logical).chain(passes) {
        match outcome {
            Ok((cert, tag)) => {
                println!(
                    "{title} [{tag}]: certified {:#018x} — {}/{} steps unit-stride, {} warnings",
                    cert.plan_hash,
                    cert.steps.iter().filter(|p| p.unit_stride).count(),
                    cert.steps.len(),
                    cert.lints.len()
                );
                for lint in &cert.lints {
                    println!("  [warning] {lint}");
                }
            }
            Err(lints) => {
                let fatal = lints
                    .iter()
                    .filter(|l| l.severity() == Severity::Error)
                    .count();
                println!("{title}: access certification FAILED, {fatal} error lints");
                for lint in &lints {
                    println!("  [{:?}] {lint}", lint.severity());
                }
                errors += fatal;
            }
        }
    }
    errors
}

#[allow(clippy::too_many_arguments)]
fn report(
    title: &'static str,
    key: &'static str,
    graph: &Graph,
    plan: &ExecutionPlan,
    sweeps: Option<&HashMap<NodeId, SweepResult>>,
    device: &DeviceSpec,
    mode: Mode,
    cache_on: bool,
) -> Audited {
    let quiet = Audited {
        title,
        key,
        errors: 0,
        steps: plan.steps.len(),
        warnings: 0,
        mue: None,
        slab_bytes: None,
        lints: Vec::new(),
        cache: None,
    };
    if mode == Mode::Access {
        let errors = report_access(title, graph, plan);
        return Audited { errors, ..quiet };
    }
    if mode == Mode::Certify {
        return match certify(graph, plan) {
            Ok(cert) => {
                let widest = cert.waves.iter().map(Vec::len).max().unwrap_or(0);
                println!(
                    "{title}: certified {:#018x} — {} steps in {} waves (widest {widest})",
                    cert.plan_hash,
                    plan.steps.len(),
                    cert.waves.len()
                );
                quiet
            }
            Err(lints) => {
                println!("{title}: NOT certifiable, {} error lints", lints.len());
                for lint in &lints {
                    println!("  [error] {lint}");
                }
                Audited {
                    errors: lints.len(),
                    ..quiet
                }
            }
        };
    }
    let mut analysis = analyze(graph, plan);
    if let Some(sweeps) = sweeps {
        analysis.lints.extend(lint_selection(graph, plan, sweeps));
    }
    // arena coloring rides the audit: any fragmentation divergence between
    // the colored slab and the liveness peak becomes a typed (warning)
    // lint alongside the analyzer's own findings
    let arena_serial = assign_arena(&analysis, ArenaGranularity::Serial);
    let arena_waves = assign_arena(&analysis, ArenaGranularity::Waves);
    analysis.lints.extend(arena_serial.lints.iter().cloned());
    analysis.lints.extend(arena_waves.lints.iter().cloned());
    let errors = analysis.errors().len();
    let movement = audit(graph, plan, device);
    let cache = cache_on.then(|| {
        let ca = cache_audit(graph, plan, device, &audit_geometry(device));
        analysis.lints.extend(ca.lints.iter().cloned());
        CacheSummary {
            mue: ca.plan_mue,
            dram_bytes: ca.dram_words * device.word_bytes as u64,
            flat_bytes: movement.total_bytes(),
            hit_words: ca.hit_words.clone(),
            compulsory_words: ca.compulsory_words,
            lints: ca.lints.iter().map(|l| l.to_string()).collect(),
        }
    });
    let warnings = analysis
        .lints
        .iter()
        .filter(|l| l.severity() == Severity::Warning)
        .count();
    if mode == Mode::Check {
        println!(
            "{title}: {} steps, {errors} errors, {warnings} warnings, static MUE {:.4}{}",
            plan.steps.len(),
            movement.plan_mue.value,
            cache
                .as_ref()
                .map(|c| format!(
                    ", cache MUE {:.4} ({:.1} MiB DRAM vs {:.1} MiB flat)",
                    c.mue.value,
                    c.dram_bytes as f64 / (1024.0 * 1024.0),
                    c.flat_bytes as f64 / (1024.0 * 1024.0),
                ))
                .unwrap_or_default(),
        );
        for lint in analysis
            .lints
            .iter()
            .filter(|l| l.severity() == Severity::Error)
        {
            println!("  [error] {lint}");
        }
    } else if mode == Mode::Full {
        print!("{}", render_report(title, &analysis, &movement, device));
        for (tag, a) in [("serial", &arena_serial), ("waves", &arena_waves)] {
            println!(
                "arena ({tag}): slab {:.1} KiB vs {:.1} KiB peak-resident{}",
                a.slab_bytes(4) as f64 / 1024.0,
                (a.target_words * 4) as f64 / 1024.0,
                if a.lints.is_empty() {
                    " — exact"
                } else {
                    " — FRAGMENTED"
                },
            );
        }
        if let Some(c) = &cache {
            println!(
                "cache-corrected: MUE {:.4} (flat {:.4}), predicted DRAM {:.1} MiB \
                 of {:.1} MiB flat, hits/level {:?} words, {} compulsory words",
                c.mue.value,
                movement.plan_mue.value,
                c.dram_bytes as f64 / (1024.0 * 1024.0),
                c.flat_bytes as f64 / (1024.0 * 1024.0),
                c.hit_words,
                c.compulsory_words,
            );
            for lint in &c.lints {
                println!("  [cache] {lint}");
            }
        }
        println!();
    }
    Audited {
        errors,
        warnings,
        mue: Some(movement.plan_mue),
        slab_bytes: Some(arena_serial.slab_bytes(4)),
        lints: analysis
            .lints
            .iter()
            .map(|l| (l.severity(), l.to_string()))
            .collect(),
        cache,
        ..quiet
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cli = Cli::parse(
        "plan_audit",
        "static data-movement audit of every canned execution plan (no kernel runs)",
        &[
            CHECK,
            JSON,
            Flag {
                name: "--cache",
                doc: "additionally audit through the reuse-distance cache model",
            },
            Flag {
                name: "--certify",
                doc: "race-certify every plan for wave-parallel execution",
            },
            Flag {
                name: "--access",
                doc: "access-path-certify every plan, logically and at both arena granularities",
            },
        ],
    );
    let mode = if cli.has("--access") {
        Mode::Access
    } else if cli.has("--certify") {
        Mode::Certify
    } else if cli.has("--json") {
        Mode::Json
    } else if cli.has("--check") {
        Mode::Check
    } else {
        Mode::Full
    };
    // the JSON mirror always carries the cache-corrected account
    let cache_on = cli.has("--cache") || mode == Mode::Json;
    let dims = EncoderDims::bert_large();
    let device = DeviceSpec::v100();

    let reference = interp::cached_plan(&dims, interp::PlanKind::EncoderReference)?;
    let fused = interp::cached_plan(&dims, interp::PlanKind::EncoderFused)?;
    let epilogue = interp::cached_plan(&dims, interp::PlanKind::EncoderEpilogue)?;
    let decoder = interp::cached_plan(&dims, interp::PlanKind::DecoderFused)?;
    let dec_epilogue = interp::cached_plan(&dims, interp::PlanKind::DecoderEpilogue)?;

    // the streaming-decode plan family: prefill at the full sequence, one
    // project step (token column → q/k/v columns), and one attend step
    // over a cache sized to the full sequence
    let prefill = interp::cached_plan(&dims, interp::PlanKind::DecoderPrefill)?;
    let step_dims = EncoderDims {
        j: 1,
        k: dims.j,
        ..dims
    };
    let project_dims = EncoderDims { j: 1, k: 1, ..dims };
    let project = interp::cached_plan(&project_dims, interp::PlanKind::DecoderStepProject)?;
    let step = interp::cached_plan(&step_dims, interp::PlanKind::DecoderStep)?;

    // the recipe: simulator sweeps over the fused graph, SSSP layout
    // selection, lowered to a schedule — audited statically like the rest
    let fwd: Vec<NodeId> = fused.plan.steps.iter().map(|s| s.op).collect();
    let sweeps = sweep_all(
        &SimulatorSource::default(),
        &fused.graph,
        SweepOptions {
            max_configs: Some(2000),
            ..SweepOptions::default()
        },
    )?;
    let sel = select_forward(&fused.graph, &device, &fwd, &sweeps)?;
    let selected = ExecutionPlan::lower(&fused.graph, &sel)?;

    let results = [
        report(
            "Reference (unfused, natural layouts)",
            "encoder-reference",
            &reference.graph,
            &reference.plan,
            None,
            &device,
            mode,
            cache_on,
        ),
        report(
            "Fused (natural layouts)",
            "encoder-fused",
            &fused.graph,
            &fused.plan,
            None,
            &device,
            mode,
            cache_on,
        ),
        report(
            "Encoder (GEMM-epilogue mega-kernels)",
            "encoder-epilogue",
            &epilogue.graph,
            &epilogue.plan,
            None,
            &device,
            mode,
            cache_on,
        ),
        report(
            "Decoder (fused, natural layouts)",
            "decoder-fused",
            &decoder.graph,
            &decoder.plan,
            None,
            &device,
            mode,
            cache_on,
        ),
        report(
            "Decoder (GEMM-epilogue mega-kernels)",
            "decoder-epilogue",
            &dec_epilogue.graph,
            &dec_epilogue.plan,
            None,
            &device,
            mode,
            cache_on,
        ),
        report(
            "Recipe-selected (simulator sweeps + SSSP layouts)",
            "recipe-selected",
            &fused.graph,
            &selected,
            Some(&sweeps),
            &device,
            mode,
            cache_on,
        ),
        report(
            "Decoder prefill (forward-only, KV projections saved)",
            "decoder-prefill",
            &prefill.graph,
            &prefill.plan,
            None,
            &device,
            mode,
            cache_on,
        ),
        report(
            "Decode step: project (token column -> q/k/v columns)",
            "decoder-step-project",
            &project.graph,
            &project.plan,
            None,
            &device,
            mode,
            cache_on,
        ),
        report(
            "Decode step: attend (one query column over the KV cache)",
            "decoder-step",
            &step.graph,
            &step.plan,
            None,
            &device,
            mode,
            cache_on,
        ),
    ];

    if mode == Mode::Json {
        write_json(&results, &audit_geometry(&device))?;
    }

    let mut failures = 0usize;
    for r in results.iter().filter(|r| r.errors > 0) {
        eprintln!("{}: {} error-severity lints", r.title, r.errors);
        failures += 1;
    }

    if matches!(mode, Mode::Full | Mode::Check | Mode::Json) {
        failures += check_epilogue_invariants(&results);
        failures += check_baseline(&results);
        failures += decode_section(&step.graph, &step.plan, &results, &dims, &device);
        if cache_on {
            failures += check_cache_invariants(&results, mode == Mode::Check);
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    match mode {
        Mode::Check if cache_on => println!(
            "all plans are error-clean, at or above both MUE baselines, \
             and cache-corrected MUE dominates flat"
        ),
        Mode::Check => {
            println!("all plans are error-clean and at or above the static-MUE baseline")
        }
        Mode::Json => println!("wrote BENCH_plan_audit.json"),
        Mode::Certify => println!("all plans certified for wave-parallel execution"),
        Mode::Access => println!("all plans earn access certificates at every granularity"),
        Mode::Full => {}
    }
    Ok(())
}

/// The streaming-decode data-movement signature and the cross-call
/// residency audit:
///
/// * the attend step's static account must be GEMV-like — one query
///   column against the whole resident cache means essentially every
///   moved word (`D`) is weight/cache streaming with a tiny useful
///   minimum (`Q`), the signature that makes decode bandwidth-bound;
///   `--check` gates `D > Q`;
/// * the per-call peak-resident account is extended to the cross-call
///   high-water mark: cache containers are live-in/live-out, so the real
///   steady-state footprint scales their columns to the configured
///   horizon (`XFORM_DECODE_MAX_SEQ`, defaulting to the audited sequence
///   length). The high-water mark must exceed the per-call peak whenever
///   the horizon exceeds the compiled capacity.
///
/// Returns the number of violated invariants.
fn decode_section(
    graph: &Graph,
    plan: &ExecutionPlan,
    results: &[Audited],
    dims: &EncoderDims,
    device: &DeviceSpec,
) -> usize {
    let mut failures = 0usize;
    let find = |key: &str| results.iter().find(|r| r.key == key);
    let (Some(step), Some(prefill)) = (find("decoder-step"), find("decoder-prefill")) else {
        return 0;
    };
    let (Some(m), Some(pm)) = (&step.mue, &prefill.mue) else {
        return 0;
    };
    // a decode step produces `b` tokens; the prefill produces `b·j`
    let step_d_per_token = m.d_words / dims.b as f64;
    let prefill_d_per_token = pm.d_words / (dims.b * dims.j) as f64;
    let ratio = step_d_per_token / prefill_d_per_token.max(1.0);
    println!(
        "\ndecode step (cache capacity {}): Q {:.0} words, D {:.0} words, static MUE {:.4}",
        dims.j, m.q_words, m.d_words, m.value
    );
    println!(
        "decode D/token {:.0} words vs prefill D/token {:.0} words — {ratio:.0}x \
         (GEMV-like signature: every weight and cache word re-streams per generated \
         token, where the prefill amortizes them over {} positions)",
        step_d_per_token, prefill_d_per_token, dims.j
    );
    if step_d_per_token <= 4.0 * prefill_d_per_token {
        eprintln!(
            "FAIL: decoder-step: per-token D must dwarf the prefill's \
             (GEMV-like decode signature)"
        );
        failures += 1;
    }

    let max_seq = xform_core::env::decode_max_seq().unwrap_or(dims.j);
    let analysis = analyze(graph, plan);
    let hw = cross_call_high_water(graph, &analysis, max_seq);
    let mib = |w: u64| w as f64 * device.word_bytes as f64 / (1024.0 * 1024.0);
    println!(
        "decode residency: per-call peak {:.1} MiB ({:.1} MiB KV cache at capacity {}), \
         cross-call high-water {:.1} MiB at max_seq {} ({:.1} MiB cache)",
        mib(hw.peak_words),
        mib(hw.cache_words),
        dims.j,
        mib(hw.high_water_words),
        hw.max_seq,
        mib(hw.cache_words_at_max_seq),
    );
    let _ = plan;
    if hw.cache_words == 0 {
        eprintln!("FAIL: decoder-step: no cache containers in the liveness account");
        failures += 1;
    }
    if hw.max_seq > dims.j && hw.high_water_words <= hw.peak_words {
        eprintln!("FAIL: decoder-step: high-water mark must grow with the residency horizon");
        failures += 1;
    }
    failures
}

/// The tentpole's static acceptance gate: each GEMM-epilogue plan must
/// show `D` strictly lower with `Q` unchanged (hence strictly higher
/// static MUE) and a strictly smaller serial arena slab than its unfused
/// counterpart. Returns the number of violated invariants.
fn check_epilogue_invariants(results: &[Audited]) -> usize {
    let find = |key: &str| results.iter().find(|r| r.key == key);
    let mut failures = 0usize;
    for (unfused_key, epilogue_key) in [
        ("encoder-fused", "encoder-epilogue"),
        ("decoder-fused", "decoder-epilogue"),
    ] {
        let (Some(f), Some(e)) = (find(unfused_key), find(epilogue_key)) else {
            continue;
        };
        let (Some(fm), Some(em)) = (&f.mue, &e.mue) else {
            continue;
        };
        let (Some(fs), Some(es)) = (f.slab_bytes, e.slab_bytes) else {
            continue;
        };
        println!(
            "{epilogue_key} vs {unfused_key}: Q {:+.1} words, D {:+.1} words, \
             MUE {:.2} → {:.2}, serial slab {:.1} → {:.1} MiB",
            em.q_words - fm.q_words,
            em.d_words - fm.d_words,
            fm.value,
            em.value,
            fs as f64 / (1024.0 * 1024.0),
            es as f64 / (1024.0 * 1024.0),
        );
        for (ok, what) in [
            ((em.q_words - fm.q_words).abs() < 0.5, "Q must be unchanged"),
            (em.d_words < fm.d_words, "D must strictly drop"),
            (em.value > fm.value, "static MUE must strictly rise"),
            (es < fs, "serial arena slab must strictly shrink"),
        ] {
            if !ok {
                eprintln!("FAIL: {epilogue_key} vs {unfused_key}: {what}");
                failures += 1;
            }
        }
    }
    failures
}

/// The cache model's acceptance gates, active under `--cache`:
///
/// * every plan's cache-corrected MUE is at least its flat MUE, with `Q`
///   untouched by the correction;
/// * each GEMM-epilogue plan stays *strictly* ahead of its unfused
///   counterpart on the corrected account, still at `ΔQ = 0`;
/// * when `gate_floor`, every baselined plan's corrected MUE holds the
///   floor pinned in `baseline_cache_mue.txt`.
///
/// Returns the number of violations.
fn check_cache_invariants(results: &[Audited], gate_floor: bool) -> usize {
    let mut failures = 0usize;
    for r in results {
        let (Some(flat), Some(c)) = (&r.mue, &r.cache) else {
            continue;
        };
        println!(
            "{}: cache-corrected MUE {:.4} vs flat {:.4}",
            r.key, c.mue.value, flat.value
        );
        for (ok, what) in [
            (
                c.mue.value + 1e-9 >= flat.value,
                "cache-corrected MUE must not drop below flat",
            ),
            (
                (c.mue.q_words - flat.q_words).abs() < 0.5,
                "the cache correction must not touch Q",
            ),
            (
                c.mue.d_words <= flat.d_words + 0.5,
                "the cache correction must not raise D",
            ),
        ] {
            if !ok {
                eprintln!("FAIL: {}: {what}", r.key);
                failures += 1;
            }
        }
    }
    let find = |key: &str| results.iter().find(|r| r.key == key);
    for (unfused_key, epilogue_key) in [
        ("encoder-fused", "encoder-epilogue"),
        ("decoder-fused", "decoder-epilogue"),
    ] {
        let pair = (find(unfused_key), find(epilogue_key));
        let (Some(Some(f)), Some(Some(e))) = (
            pair.0.map(|r| r.cache.as_ref()),
            pair.1.map(|r| r.cache.as_ref()),
        ) else {
            continue;
        };
        for (ok, what) in [
            (
                e.mue.value > f.mue.value,
                "cache-corrected MUE must strictly rise under epilogue fusion",
            ),
            (
                (e.mue.q_words - f.mue.q_words).abs() < 0.5,
                "Q must be unchanged on the corrected account",
            ),
        ] {
            if !ok {
                eprintln!("FAIL: {epilogue_key} vs {unfused_key}: {what}");
                failures += 1;
            }
        }
    }
    if gate_floor {
        let floors = parse_baseline(CACHE_BASELINE);
        for r in results {
            let (Some(c), Some(&floor)) = (&r.cache, floors.get(r.key)) else {
                if !r.key.is_empty() && r.cache.is_some() {
                    eprintln!("FAIL: {} has no pinned cache-MUE baseline", r.key);
                    failures += 1;
                }
                continue;
            };
            if c.mue.value < floor - BASELINE_TOL {
                eprintln!(
                    "FAIL: {} cache-corrected MUE {:.4} regressed below the pinned \
                     baseline {floor:.4}",
                    r.key, c.mue.value
                );
                failures += 1;
            }
        }
    }
    failures
}

/// Compares every baselined plan's static MUE against the checked-in
/// floor. Returns the number of regressions.
fn check_baseline(results: &[Audited]) -> usize {
    let floors = parse_baseline(BASELINE);
    let mut failures = 0usize;
    for r in results {
        let (Some(mue), Some(&floor)) = (&r.mue, floors.get(r.key)) else {
            if !r.key.is_empty() && r.mue.is_some() {
                eprintln!("FAIL: {} has no pinned static-MUE baseline", r.key);
                failures += 1;
            }
            continue;
        };
        if mue.value < floor - BASELINE_TOL {
            eprintln!(
                "FAIL: {} static MUE {:.4} regressed below the pinned baseline {floor:.4}",
                r.key, mue.value
            );
            failures += 1;
        }
    }
    failures
}

fn jstr(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Writes `BENCH_plan_audit.json`: the machine-readable mirror of the
/// static audit — per-plan flat and cache-corrected MUE (value, `Q`,
/// `D`), predicted DRAM and flat bytes, per-level hit words, serial slab
/// bytes, and every lint with its severity — alongside the geometry it
/// was computed under.
fn write_json(
    results: &[Audited],
    geometry: &CacheGeometry,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut out = String::from("{\n  \"bench\": \"plan_audit\",\n");
    out.push_str("  \"geometry\": [");
    let levels: Vec<String> = geometry
        .levels
        .iter()
        .map(|l| {
            format!(
                "{{\"name\": {}, \"size_bytes\": {}, \"line_bytes\": {}, \"assoc\": {}}}",
                jstr(&l.name),
                l.size_bytes,
                l.line_bytes,
                l.assoc
            )
        })
        .collect();
    out.push_str(&levels.join(", "));
    out.push_str("],\n  \"plans\": [\n");
    let plans: Vec<String> = results
        .iter()
        .map(|r| {
            let mut fields = vec![
                format!("      \"key\": {}", jstr(r.key)),
                format!("      \"title\": {}", jstr(r.title)),
                format!("      \"steps\": {}", r.steps),
                format!("      \"errors\": {}", r.errors),
                format!("      \"warnings\": {}", r.warnings),
            ];
            if let Some(m) = &r.mue {
                fields.push(format!(
                    "      \"static_mue\": {{\"value\": {:.6}, \"q_words\": {:.1}, \"d_words\": {:.1}}}",
                    m.value, m.q_words, m.d_words
                ));
            }
            if let Some(s) = r.slab_bytes {
                fields.push(format!("      \"serial_slab_bytes\": {s}"));
            }
            if let Some(c) = &r.cache {
                fields.push(format!(
                    "      \"cache_mue\": {{\"value\": {:.6}, \"q_words\": {:.1}, \"d_words\": {:.1}}}",
                    c.mue.value, c.mue.q_words, c.mue.d_words
                ));
                fields.push(format!("      \"predicted_dram_bytes\": {}", c.dram_bytes));
                fields.push(format!("      \"flat_bytes\": {}", c.flat_bytes));
                let hits: Vec<String> = c.hit_words.iter().map(u64::to_string).collect();
                fields.push(format!("      \"hit_words\": [{}]", hits.join(", ")));
                fields.push(format!(
                    "      \"compulsory_words\": {}",
                    c.compulsory_words
                ));
            }
            let lints: Vec<String> = r
                .lints
                .iter()
                .map(|(sev, l)| {
                    format!(
                        "{{\"severity\": {}, \"message\": {}}}",
                        jstr(&format!("{sev:?}")),
                        jstr(l)
                    )
                })
                .collect();
            fields.push(format!("      \"lints\": [{}]", lints.join(", ")));
            format!("    {{\n{}\n    }}", fields.join(",\n"))
        })
        .collect();
    out.push_str(&plans.join(",\n"));
    out.push_str("\n  ]\n}\n");
    std::fs::write("BENCH_plan_audit.json", out)?;
    Ok(())
}
