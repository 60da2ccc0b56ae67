// Fixture schema source: bumped ahead of its doc, blessed inline. Never compiled.
// lint: allow(contract-sync) fixture: the layout doc lands with the reader change
pub const SNAPSHOT_VERSION: u32 = 2;
