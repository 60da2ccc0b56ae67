// Fixture schema source for contract-sync: version 2 is undocumented.
// Never compiled.
pub const SNAPSHOT_VERSION: u32 = 2;
