//! The engine grid's golden fleet: every execution-path configuration —
//! the monolithic reference, the streaming engine across threads × chunk
//! policies, and the checkpoint legs through both disk-backed sources —
//! must reproduce the *pre-refactor* golden Table 1 byte for byte.
//!
//! The golden file (`tests/golden/table1.txt`) was committed before the
//! engine existed and is deliberately NOT regenerated here: this test is
//! the proof that dismantling the root crate into `ssfa-pipeline`'s stage
//! seams changed no observable output. The harness, and what each grid
//! run is compared with, is in `tests/grid/mod.rs`.

mod grid;

use grid::{cross, run_grid, Case};

/// The golden fleet: scale 0.002, seed 7, the default cascade style.
fn golden() -> Case {
    Case::new(0.002, 7)
}

/// The streaming engine over the simulator source at {1, 4} threads ×
/// {chunk-1, auto}.
#[test]
fn streaming_grid_matches_the_pre_refactor_golden() {
    run_grid(&[Case {
        sim: cross(&[1, 4], &[Some(1), None]),
        ..golden()
    }]);
}

/// The engine-hosted monolithic configuration alone.
#[test]
fn monolithic_oracles_match_the_pre_refactor_golden() {
    run_grid(&[golden()]);
}

/// Persistent fold epochs: a cold checkpointed run, runs resumed from a
/// checkpoint truncated to its first and to its middle epoch (the latter
/// merges delta epochs), and a resume over a fully covered checkpoint,
/// through both disk-backed sources at {1, 4} threads × {chunk-1, auto}.
#[test]
fn checkpoint_resume_matches_the_golden_across_the_grid() {
    run_grid(&[Case {
        checkpoint: cross(&[1, 4], &[Some(1), None]),
        ..golden()
    }]);
}
