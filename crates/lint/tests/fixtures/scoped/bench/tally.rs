// Fixture: the same iteration outside deterministic_paths — not flagged.
pub fn report(t: &Tally) -> f64 {
    t.by_disk.values().sum()
}
