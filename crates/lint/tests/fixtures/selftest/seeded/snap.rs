// Fixture schema source: version 3 is undocumented. Never compiled.
pub const SNAPSHOT_VERSION: u32 = 3;
