// Fixture schema source, documented in DESIGN.md. Never compiled.
pub const SNAPSHOT_VERSION: u32 = 2;
