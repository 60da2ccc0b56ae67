// Fixture: exactly one violation of each seeded contract — a hot-path
// allocation and a fast path with no general counterpart (bench/baseline
// drift lives in bench.rs). Never compiled.

// lint: zero-alloc
pub fn hot(id: u32) -> String {
    id.to_string()
}

// lint: fast-path(decode_general)
pub fn decode_fast(s: &str) -> Option<u32> {
    s.strip_prefix('v')?.len().try_into().ok()
}
