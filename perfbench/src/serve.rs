//! Set-up: the inventory, the hosted tenants and the listening server.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mpq_net::{Server, ServerConfig, TenantConfig, TenantRegistry};
use mpq_rtree::PointSet;

use crate::workload::{Workload, DIM, OBJECTS};

/// Seed of the inventory. It is fixed, so `--seed` varies the request
/// streams only: across inventory seeds the skyline of a uniform
/// inventory, and with it the cost of every evaluation, moved
/// `match_p50_ms` by about ±8%, more than the metric's bound.
const INVENTORY_SEED: u64 = 1;

/// The 3-d independent inventory of `OBJECTS` objects every workload
/// serves.
pub fn inventory() -> PointSet {
    mpq_datagen::objects::independent(OBJECTS, DIM, INVENTORY_SEED)
}

/// Runtime files (disk-backed tenants, span dumps) live under this
/// directory of the working directory.
pub const OUT_DIR: &str = ".perfbench";

/// A fresh directory for disk-backed tenants, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `.perfbench/tmp-<pid>` afresh.
    pub fn new() -> std::io::Result<TempDir> {
        let path = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The shipped tenant configuration, with the workload's shard count.
pub fn tenant_config(workload: Workload) -> TenantConfig {
    TenantConfig {
        shards: workload.shards(),
        ..TenantConfig::default()
    }
}

/// Build one tenant per name over `objects` and bind a server on an
/// ephemeral local port. Disk-backed tenants get a fresh directory
/// `<dir>/<tag>-<name>`.
pub fn serve(
    workload: Workload,
    objects: &PointSet,
    names: &[&str],
    dir: &Path,
    tag: usize,
) -> Result<Server, String> {
    let mut registry = TenantRegistry::new();
    for name in names {
        let config = tenant_config(workload);
        let added = if workload.persistent() {
            let data = dir.join(format!("{tag}-{name}"));
            registry.add_persistent(name, Some(objects), data, config)
        } else {
            registry.add_objects(name, objects, config)
        };
        added.map_err(|e| format!("tenant {name}: {e}"))?;
    }
    Server::bind("127.0.0.1:0", registry, ServerConfig::default()).map_err(|e| format!("bind: {e}"))
}

/// Set up `times` times, keeping the last server; returns it with the
/// set-up time of each attempt in seconds. Earlier servers are shut
/// down and their directories removed before the next attempt.
pub fn serve_timed(
    workload: Workload,
    objects: &PointSet,
    names: &[&str],
    dir: &Path,
    times: usize,
) -> Result<(Server, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for tag in 0..times {
        if let Some(server) = last.take() {
            drop(server);
            remove_tag(dir, tag - 1)?;
        }
        let t0 = Instant::now();
        let server = serve(workload, objects, names, dir, tag)?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(server);
    }
    Ok((last.expect("times >= 1"), secs))
}

fn remove_tag(dir: &Path, tag: usize) -> Result<(), String> {
    let prefix = format!("{tag}-");
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            std::fs::remove_dir_all(entry.path())
                .map_err(|e| format!("remove {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}
