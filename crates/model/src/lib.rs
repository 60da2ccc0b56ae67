//! Domain model for storage subsystem failure analysis.
//!
//! This crate defines the vocabulary shared by the whole `ssfa` workspace: the
//! four-way failure taxonomy of the FAST'08 study ("Are Disks the Dominant
//! Contributor for Storage Failures?"), typed identifiers for every component
//! of a storage subsystem (systems, shelf enclosures, disk slots, disks, FC
//! loops, RAID groups), catalogs of disk and shelf-enclosure models with their
//! reliability characteristics, and a fleet configuration + builder that
//! materializes a synthetic fleet mirroring the composition of the study's
//! Table 1.
//!
//! # Example
//!
//! ```
//! use ssfa_model::{FleetConfig, Fleet};
//!
//! // A 1%-scale replica of the fleet studied in the paper.
//! let config = FleetConfig::paper().scaled(0.01);
//! let fleet = Fleet::build(&config, 42);
//! assert!(fleet.systems().len() > 300);
//! assert!(fleet.disk_count() > 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class;
pub mod config;
pub mod disk;
pub mod failure;
pub mod fleet;
pub mod hash_index;
pub mod id;
pub mod layout;
mod ordered;
pub mod raid;
pub mod shelf;
pub mod time;

pub use class::{PathConfig, SystemClass};
pub use config::{ClassConfig, FleetConfig};
pub use disk::{DiskCatalog, DiskFamily, DiskModelId, DiskModelSpec, DiskType};
pub use failure::{FailureCounts, FailureRecord, FailureType};
pub use fleet::{DiskInstall, FcLoop, Fleet, FleetClassStats, RaidGroup, Shelf, StorageSystem};
pub use hash_index::HashIndex;
pub use id::{DeviceAddr, DiskInstanceId, LoopId, RaidGroupId, ShelfId, SlotAddr, SystemId};
pub use layout::LayoutPolicy;
pub use ordered::run_ordered;
#[cfg(feature = "model-check")]
pub use ordered::{Buffer, Claims, Counter, Monitor, Pool};
pub use raid::RaidType;
pub use shelf::{ShelfCatalog, ShelfModel, ShelfModelSpec};
pub use time::{CivilDateTime, SimDuration, SimTime};
