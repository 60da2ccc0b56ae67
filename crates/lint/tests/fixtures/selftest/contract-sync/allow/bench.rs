// Fixture bench source: `ghost` drifts, but an inline allow blesses it.
pub fn register() {
    run_config(
        "smoke",
        true,
    );
    run_config(
        // lint: allow(contract-sync) fixture: ghost is gated manually while the baseline migrates
        "ghost",
        false,
    );
}
