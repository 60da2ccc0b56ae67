// Fixture: hash-order iteration in a deterministic path — flagged.
use std::collections::HashMap;

pub struct Tally {
    pub by_disk: HashMap<u32, f64>,
}

pub fn total(t: &Tally) -> f64 {
    t.by_disk.values().sum()
}
