// Fixture: exactly one violation of each token rule — hash-order
// iteration and a partial float ordering (the crate missing from the
// policy is crates/stray). Never compiled.
use std::collections::HashMap;

pub fn total(by_disk: &HashMap<u32, f64>) -> f64 {
    by_disk.values().sum()
}

pub fn rank(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
