// Fixture schema source: bumped to 2 without a doc update. Never compiled.
pub const SNAPSHOT_VERSION: u32 = 2;
