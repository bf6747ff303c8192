//! Building, snapshotting and serving the stack a workload runs on:
//! `ShardedIndex` -> `QueryService` (default config) -> loopback
//! `NetServer`, plus the one-node fleet the traced run calls through.

use crate::workload::Workload;
use gph::StorageMode;
use gph_net::{
    FleetClient, FleetConfig, FleetManifest, FleetNode, GphClient, MetastoreServer, NetServer,
    ServerConfig,
};
use gph_serve::{QueryService, ServiceConfig, ShardedIndex};
use hamming_core::Dataset;
use std::path::Path;
use std::sync::Arc;

pub type Result<T> = std::result::Result<T, String>;

/// Builds the workload's index over `data` (ids = row numbers): one
/// shard, bulk-built into one sealed segment.
pub fn build_index(w: &Workload, data: &Dataset) -> Result<ShardedIndex> {
    ShardedIndex::build_with_segments(data, 1, &w.config(), w.segments())
        .map_err(|e| format!("index build: {e}"))
}

/// Bytes of every file of the snapshot in `dir`.
pub fn snapshot_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        total += entry.metadata().map_err(|e| format!("stat snapshot file: {e}"))?.len();
    }
    Ok(total)
}

/// Writes a fresh snapshot of `index` to `dir`.
pub fn snapshot(index: &ShardedIndex, dir: &Path) -> Result<()> {
    std::fs::remove_dir_all(dir).ok();
    index.snapshot(dir).map(|_| ()).map_err(|e| format!("snapshot: {e}"))
}

/// The storage mode the workload serves its snapshot in: cold pages
/// sealed segments through a cache of half the snapshot's bytes.
pub fn storage(w: &Workload, dir: &Path) -> Result<StorageMode> {
    Ok(if w.cold {
        StorageMode::FileBacked { budget_bytes: (snapshot_bytes(dir)? / 2).max(1) }
    } else {
        StorageMode::Resident
    })
}

/// The service config every stack serves with: the defaults (one
/// worker per core, 1024-entry result cache, no admission limit, no
/// trace sampling), storage aside.
pub fn service_config(storage: StorageMode) -> ServiceConfig {
    ServiceConfig { storage, ..ServiceConfig::default() }
}

/// `QueryService::warm_start` of the snapshot in `dir`.
pub fn warm_start(dir: &Path, storage: StorageMode) -> Result<QueryService> {
    QueryService::warm_start(dir, service_config(storage)).map_err(|e| format!("warm start: {e}"))
}

/// A service behind a loopback `NetServer` with default knobs.
pub struct Node {
    pub service: Arc<QueryService>,
    pub server: NetServer,
}

impl Node {
    /// Serves `service` on an ephemeral loopback port, owning `slots`
    /// when it is a fleet node.
    pub fn serve(service: QueryService, slots: Vec<u32>) -> Result<Node> {
        let service = Arc::new(service);
        let server = NetServer::bind_with_slots(
            "127.0.0.1:0",
            Arc::clone(&service),
            ServerConfig::default(),
            slots,
        )
        .map_err(|e| format!("bind: {e}"))?;
        Ok(Node { service, server })
    }

    /// A client with one connection to this node.
    pub fn client(&self) -> Result<GphClient> {
        GphClient::connect(self.server.local_addr()).map_err(|e| format!("connect: {e}"))
    }

    /// Stops the server (draining in-flight work), then the service.
    pub fn shutdown(self) {
        self.server.shutdown();
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
    }
}

/// A one-node fleet: an in-process metastore whose manifest gives
/// every shard slot to one node, and a `FleetClient` routing by it.
pub struct Fleet {
    node: Node,
    metastore: MetastoreServer,
    pub client: FleetClient,
}

impl Fleet {
    pub fn start(service: QueryService) -> Result<Fleet> {
        let slots: Vec<u32> = (0..service.index().num_shards() as u32).collect();
        let n_shards = slots.len() as u32;
        let node = Node::serve(service, slots.clone())?;
        let metastore = MetastoreServer::bind("127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("metastore bind: {e}"))?;
        let manifest = FleetManifest {
            version: 1,
            n_shards,
            nodes: vec![FleetNode { slots, addrs: vec![node.server.local_addr().to_string()] }],
        };
        GphClient::connect(metastore.local_addr())
            .and_then(|c| c.publish_manifest(&manifest))
            .map_err(|e| format!("publish manifest: {e}"))?;
        let client =
            FleetClient::connect(&metastore.local_addr().to_string(), FleetConfig::default())
                .map_err(|e| format!("fleet connect: {e}"))?;
        Ok(Fleet { node, metastore, client })
    }

    pub fn shutdown(self) {
        drop(self.client);
        self.metastore.shutdown();
        self.node.shutdown();
    }
}
