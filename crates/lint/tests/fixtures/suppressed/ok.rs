// Fixture: the token-rule patterns of violations/bad.rs, every one carrying
// a justification comment (on its own line above, or trailing on the same
// line) — the scanner must report zero findings here and route each site
// through `allowed` instead.
use std::collections::HashMap;

pub struct Tally {
    pub by_disk: HashMap<u32, f64>,
}

pub fn total(t: &Tally) -> f64 {
    let mut sum = 0.0;
    // lint: sorted summation is compensated downstream; order provably irrelevant
    for (_, v) in t.by_disk.iter() {
        sum += v;
    }
    sum
}

pub fn rank(xs: &mut [f64]) {
    // lint: allow(no-float-keys) input is validated NaN-free at parse time
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn rank_desc(xs: &mut [f64]) {
    xs.sort_by(|a, b| b.partial_cmp(a).unwrap()); // lint: allow(no-float-keys) same-line form
}
