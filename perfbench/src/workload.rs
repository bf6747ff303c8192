//! The three workloads. Each one stresses a different layer and leaves
//! the others as they are, so a change to one layer should move the
//! numbers of its own workload and leave the rest flat. Every workload
//! serves one shard, bulk-built into one sealed segment.

use gph::{GphConfig, SegmentConfig, StorageMode};

/// `tau_max` of every index: the `GphConfig::new(suggested_m, 16)`
/// default the serving stack is built with.
pub const TAU_MAX: usize = 16;

/// Distinct planted queries the read workloads cycle through: four times
/// the default `ServiceConfig`'s 1024-entry result cache, so a query
/// comes back only after the LRU has evicted it and the cache is never
/// hit.
const POOL_STATIC: usize = 4096;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Stored rows (ids `0..rows`).
    pub rows: usize,
    /// Range-search threshold.
    pub tau: u32,
    /// Segment thresholds: the writes of `mixed-rw` seal and compact
    /// under them; the read workloads never write.
    pub seal_rows: usize,
    pub max_sealed: usize,
    /// Serve sealed segments from the snapshot through a page cache of
    /// half the snapshot's bytes.
    pub cold: bool,
    /// The ordered read/write stream of one caller instead of the read
    /// loops.
    pub mixed: bool,
    /// Open-loop offered rate in requests per second: about half the
    /// lowest closed-loop capacity measured on a 2-vCPU host when the
    /// benchmark was written.
    pub rate: f64,
    /// Distinct planted queries.
    pub pool: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    // Enumerate and CSR probe are ~90% of a query here: engine work.
    Workload {
        name: "probe-heavy",
        rows: 100_000,
        tau: 16,
        seal_rows: 4096,
        max_sealed: 6,
        cold: false,
        mixed: false,
        rate: 400.0,
        pool: POOL_STATIC,
    },
    // Writes beside cheap, often cached reads; seals and compactions
    // run inline on the mutation calls: from the second seal on, every
    // seal also compacts.
    Workload {
        name: "mixed-rw",
        rows: 20_000,
        tau: 12,
        seal_rows: 256,
        max_sealed: 2,
        cold: false,
        mixed: true,
        rate: 0.0,
        pool: 256,
    },
    // The only workload larger than the program's own cache.
    Workload {
        name: "cold",
        rows: 20_000,
        tau: 12,
        seal_rows: 4096,
        max_sealed: 6,
        cold: true,
        mixed: false,
        rate: 60.0,
        pool: POOL_STATIC,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn config(&self) -> GphConfig {
        GphConfig::new(GphConfig::suggested_m(crate::gen::DIM), TAU_MAX)
    }

    pub fn segments(&self) -> SegmentConfig {
        SegmentConfig {
            seal_rows: self.seal_rows,
            max_sealed: self.max_sealed,
            storage: StorageMode::Resident,
        }
    }
}
