// Fixture: unsuppressed violations of both token rules (crates/stray is
// the contract-sync one). Never compiled; scanned by tests/scanner.rs.
use std::collections::HashMap;

pub struct Tally {
    pub by_disk: HashMap<u32, f64>,
}

pub fn total(t: &Tally) -> f64 {
    let mut sum = 0.0;
    for (_, v) in t.by_disk.iter() {
        sum += v;
    }
    for k in &t.by_disk {
        sum += *k.1;
    }
    sum
}

pub fn rank(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
