//! The paper's contribution: a recipe for globally optimizing data
//! movement in transformer training.
//!
//! This crate implements Sections III–VI of *Ivanov et al., "Data Movement
//! Is All You Need" (MLSys 2021)* on top of the dataflow IR
//! (`xform-dataflow`) and the device model (`xform-gpusim`):
//!
//! * [`itspace`] — iteration spaces and the fusion-compatibility rules of
//!   Sec. IV, including the four structural patterns of Fig. 3;
//! * [`fusion`] — automatic fusion-group detection plus the paper's exact
//!   encoder fusion plan (AIB, SM, DRLN, BRD, BDRLN, BSB, BLNRD, BDRB,
//!   EBSB, BAOB, BS, BAIB, BEI);
//! * [`algebraic`] — the stacked Q/K/V projection variants of Table II;
//! * [`sweep`] — exhaustive per-operator configuration sweeps behind the
//!   [`sweep::PerfSource`] trait (simulator or real measurements);
//! * [`selection`] — the shortest-path global configuration selection of
//!   Sec. VI-A / Fig. 6;
//! * [`plan`] — lowering a fusion plan plus a layout selection into an
//!   executable, layout-annotated schedule ([`plan::ExecutionPlan`]) and
//!   the schedule interpreter ([`plan::execute_plan`]) that runs it
//!   against the real CPU kernels;
//! * [`arena`] — the static-arena interpreter: certified plans lowered
//!   onto one preallocated slab via the liveness coloring of
//!   [`analyze::assign_arena`], executing through the zero-allocation
//!   `*_into` kernels so steady-state forwards touch the heap not at all;
//! * [`access`] — the access-path certifier: symbolic abstract
//!   interpretation deriving every operand's index-affine access path per
//!   step and proving in-bounds, alias-free access
//!   ([`access::certify_access`]); a clean pass yields an
//!   [`access::AccessCertificate`], which the arena requires, and flags
//!   every step whose inner loop strides (it runs its kernel's strided
//!   general path);
//! * [`sanitize`] — the footprint sanitizer and race certifier: a static
//!   certifier cross-checking declared operands against derived kernel
//!   footprints ([`sanitize::certify`]), a dynamic shadow-access
//!   interpreter ([`sanitize::execute_plan_sanitized`]), and the
//!   certificate-gated wave-parallel interpreter
//!   ([`sanitize::execute_plan_parallel`]);
//! * [`cachemodel`] — the static cache-hierarchy analyzer: reuse-distance
//!   abstract interpretation of each step's access paths through a
//!   parameterized L1/L2/LLC geometry ([`cachemodel::CacheGeometry`]),
//!   predicting per-level hit words and DRAM-interface traffic and
//!   yielding a cache-corrected static MUE ([`cachemodel::cache_audit`])
//!   alongside `analyze::audit`'s flat one, plus the tile-overflow /
//!   cache-thrash / layout-conflict lints;
//! * [`profile`] — the runtime plan profiler ([`profile::PlanProfiler`]):
//!   measured per-step time/bytes/bandwidth and measured MUE riding the
//!   interpreters via [`plan::ExecOptions::profiler`], plus
//!   profile-guided re-selection ([`profile::ProfiledSource`],
//!   [`profile::reselect`]);
//! * [`recipe`] — the end-to-end driver assembling the optimized encoder;
//! * [`report`] — Table-III-style per-operator comparisons.
//!
//! # Examples
//!
//! ```no_run
//! use xform_core::recipe::{optimize_encoder, RecipeOptions};
//! use xform_dataflow::EncoderDims;
//! use xform_gpusim::DeviceSpec;
//! # fn main() -> xform_tensor::Result<()> {
//! let plan = optimize_encoder(
//!     &DeviceSpec::v100(),
//!     &EncoderDims::bert_large(),
//!     &RecipeOptions::default(),
//! )?;
//! println!("forward {:.2} ms", plan.forward_us / 1000.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod access;
pub mod algebraic;
pub mod analyze;
pub mod arena;
pub mod cachemodel;
pub mod cpusource;
pub mod env;
pub mod fusion;
pub mod itspace;
pub mod plan;
pub mod profile;
pub mod recipe;
pub mod report;
pub mod sanitize;
pub mod selection;
pub mod sweep;
