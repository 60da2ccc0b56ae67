//! Shared helpers for the per-figure benches.
#![allow(dead_code, reason = "each bench binary uses a subset of these helpers")]

use ssfa_bench::ExpContext;
use ssfa_core::Study;

/// The scale used by benches: small enough for tight iteration times,
/// large enough that every figure is populated.
pub const BENCH_SCALE: f64 = 0.004;

/// A fresh context at bench scale.
pub fn ctx() -> ExpContext {
    ExpContext {
        scale: BENCH_SCALE,
        seed: 1988,
    }
}

/// A study built once, for benchmarking the analysis step in isolation.
pub fn prebuilt_study() -> Study {
    ctx().study()
}
