//! Partitioned engine: `K` per-shard R-trees evaluated as one tree.
//!
//! A [`ShardedEngine`] splits the inventory into `K` shards with a
//! [`Partitioner`] (hash-by-oid by default, grid/space partitioning via
//! [`GridPartitioner`]). Each shard is a full [`Engine`]: its own
//! bulk-loaded R-tree, buffer pool, WAL segment and epoch snapshots. Every
//! shard indexes **global** object ids natively, so leaves need no id
//! translation.
//!
//! ## Evaluation over a shard union
//!
//! SB only ever works on the skyline of the remaining objects, and the
//! skyline of a partitioned set is not the union of the shards' local
//! skylines. So sharding stays out of the algorithms altogether: a
//! [`ShardUnion`] pins one [`IoSession`] per shard and presents the `K`
//! trees as **one** [`NodeSource`] under a synthetic in-memory root,
//! whose entries are the non-empty shards' root MBRs. The unsharded
//! evaluators then run over the union unchanged — one BBS, one
//! [`SkylineMaintainer`](mpq_skyline::SkylineMaintainer) over the global
//! skyline, one reverse top-1 index — so a sharded SB evaluation does
//! exactly the unsharded engine's loops and reverse top-1 calls, and BF,
//! Chain, capacities and the rescan ablation come along for free. The
//! canonical matching is unique, so the result is bit-identical to the
//! unsharded engine's for every algorithm (asserted by
//! `tests/shard_identity.rs`).
//!
//! Page ids inside the union carry their shard in the top
//! `32 - PAGE_BITS` bits: inner nodes read through the union have their
//! children re-tagged, leaves pass through untouched. The tag bounds the
//! shape of a sharded engine: at most [`MAX_SHARDS`] shards, each with
//! fewer than `2^24` pages. A shard count past the bound fails at build
//! or open, a page file past it when an evaluation opens the union, both
//! with [`MpqError::ShardLimit`] — never a panic or an aliased page. A
//! `K = 1` union is the single shard session verbatim, with no synthetic
//! root and no tags.
//!
//! ## Versioning under sharding
//!
//! A single global [`Engine::inventory_version`] stamp would invalidate
//! cached results for *every* shard on *any* mutation. The sharded
//! engine instead exposes [`ShardedEngine::version_vector`] — one
//! version component per shard — and the [`crate::ResultCache`] stamps
//! entries with the whole vector: a mutation on shard A leaves a cached
//! result's shard-B components untouched, and the per-shard
//! [`MutationLog`]s prove irrelevant shard-A mutations harmless
//! component-wise (see [`crate::ResultCache::get_with_logs`]). An
//! [`EvalSeed`] captured over the union is one skyline snapshot stamped
//! with the whole vector, so a mutation on any shard declines it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use mpq_rtree::{InnerNode, IoSession, IoStats, Node, NodeSource, PageId, PointSet};
use mpq_ta::FunctionSet;

use crate::cache::{MutationLog, RequestKey};
use crate::engine::{
    evaluate_on, run_batch, sb_config_of, validate_options_shape, Algorithm, BatchOutcome, Engine,
    RequestOptions,
};
use crate::error::MpqError;
use crate::matching::{IndexConfig, Matching};
use crate::sb::{stream_on, SbStream, ScratchLease};
use crate::scratch::Scratch;
use crate::seed::EvalSeed;
use crate::service::{EngineService, ServiceConfig};

/// Manifest file name inside a sharded data directory.
const MANIFEST_FILE: &str = "shards.mpq";
/// First line of a sharded data-dir manifest.
const MANIFEST_MAGIC: &str = "mpq-shard-manifest/1";

/// Lock a mutex, ignoring poisoning (same policy as the engine: every
/// critical section leaves the state consistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Assigns every object to exactly one of `k` shards.
///
/// The contract is a *true partition*: for a fixed `k`, every
/// `(oid, point)` maps to exactly one shard in `0..k`, deterministically
/// — the same inputs must map to the same shard across processes and
/// reopens (asserted by a proptest). Implementations must be cheap:
/// the router runs under the mutation lock.
pub trait Partitioner: Send + Sync {
    /// The shard (`0..k`) that owns object `oid` at `point`.
    fn shard_of(&self, oid: u64, point: &[f64], k: usize) -> usize;

    /// Stable identifier round-tripped through the data-dir manifest so
    /// [`ShardedEngine::open`] can reconstruct the partitioner.
    fn id(&self) -> String;
}

/// The default partitioner: shard by a fixed 64-bit mix of the object
/// id (SplitMix64). Id-based routing is *placement-stable*: an object's
/// shard never changes when its point moves, so updates never migrate
/// between shards and every mutation touches exactly one WAL.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

/// SplitMix64 finalizer — a fixed, documented mix so the partition is
/// stable across processes, platforms and reopens.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Partitioner for HashPartitioner {
    fn shard_of(&self, oid: u64, _point: &[f64], k: usize) -> usize {
        (splitmix64(oid) % k.max(1) as u64) as usize
    }

    fn id(&self) -> String {
        "hash".to_string()
    }
}

/// Space partitioner: slice the `[0, 1]` preference space into `k`
/// equal-width slabs along one axis (`shard = floor(point[axis] * k)`,
/// clamped). Clusters spatially close objects into the same shard, so
/// the shard roots' MBRs in the union overlap less than under hashing.
///
/// Point-based routing means [`ShardedEngine::update_object`] may
/// *migrate* an object between shards (a remove in one WAL plus an
/// insert in another — two durable operations, not one atomic record;
/// a crash between them can leave the object present in both shards
/// until the stale copy is removed). Deployments that mutate under
/// crash risk should prefer [`HashPartitioner`].
#[derive(Debug, Clone, Copy)]
pub struct GridPartitioner {
    /// The axis (dimension index) the space is sliced along.
    pub axis: usize,
}

impl Partitioner for GridPartitioner {
    fn shard_of(&self, _oid: u64, point: &[f64], k: usize) -> usize {
        let k = k.max(1);
        let v = point.get(self.axis).copied().unwrap_or(0.0).clamp(0.0, 1.0);
        ((v * k as f64) as usize).min(k - 1)
    }

    fn id(&self) -> String {
        format!("grid:{}", self.axis)
    }
}

/// Reconstruct a partitioner from its manifest [`Partitioner::id`].
fn partitioner_from_id(id: &str) -> Result<Arc<dyn Partitioner>, MpqError> {
    if id == "hash" {
        return Ok(Arc::new(HashPartitioner));
    }
    if let Some(axis) = id.strip_prefix("grid:") {
        if let Ok(axis) = axis.parse::<usize>() {
            return Ok(Arc::new(GridPartitioner { axis }));
        }
    }
    Err(MpqError::Io(format!(
        "shard manifest names unknown partitioner '{id}'"
    )))
}

/// Builder for [`ShardedEngine`]: configure the partition count, the
/// partitioner and the per-shard index, then split and bulk-load once.
pub struct ShardedEngineBuilder<'o> {
    index: IndexConfig,
    objects: Option<&'o PointSet>,
    shards: usize,
    partitioner: Arc<dyn Partitioner>,
    data_dir: Option<PathBuf>,
}

impl Default for ShardedEngineBuilder<'_> {
    fn default() -> Self {
        ShardedEngineBuilder {
            index: IndexConfig::default(),
            objects: None,
            shards: 1,
            partitioner: Arc::new(HashPartitioner),
            data_dir: None,
        }
    }
}

impl<'o> ShardedEngineBuilder<'o> {
    /// Index construction/buffering parameters, applied to every shard.
    pub fn index(mut self, config: IndexConfig) -> ShardedEngineBuilder<'o> {
        self.index = config;
        self
    }

    /// The object inventory to partition and index. Object `i` of the
    /// set gets global id `i`, exactly as in the unsharded engine.
    pub fn objects(mut self, objects: &'o PointSet) -> ShardedEngineBuilder<'o> {
        self.objects = Some(objects);
        self
    }

    /// Number of shards, `1 <= K <=` [`MAX_SHARDS`] (default 1 — a
    /// degenerate but valid partition that evaluates over its single
    /// shard's tree directly).
    pub fn shards(mut self, k: usize) -> ShardedEngineBuilder<'o> {
        self.shards = k;
        self
    }

    /// The partitioner assigning objects to shards (default
    /// [`HashPartitioner`]).
    pub fn partitioner(mut self, p: Arc<dyn Partitioner>) -> ShardedEngineBuilder<'o> {
        self.partitioner = p;
        self
    }

    /// Persist every shard under `dir`: shard `i` lives in
    /// `dir/shard-i/` as a full engine data directory (its own
    /// `pages.mpq` + `wal.mpq`), and a manifest records the shard count
    /// and partitioner so [`ShardedEngine::open`] can reassemble the
    /// partition.
    pub fn data_dir(mut self, dir: impl AsRef<Path>) -> ShardedEngineBuilder<'o> {
        self.data_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Validate, partition and bulk-load all `K` per-shard R-trees.
    pub fn build(self) -> Result<ShardedEngine, MpqError> {
        if self.shards == 0 {
            return Err(MpqError::UnsupportedRequest(
                "a sharded engine needs at least one shard",
            ));
        }
        check_shard_count(self.shards)?;
        let objects = self.objects.ok_or(MpqError::EmptyObjects)?;
        if objects.is_empty() {
            return Err(MpqError::EmptyObjects);
        }
        let k = self.shards;
        // Route every object, building one (points, oids) pair per shard.
        let mut parts: Vec<PointSet> = (0..k).map(|_| PointSet::new(objects.dim())).collect();
        let mut oids: Vec<Vec<u64>> = vec![Vec::new(); k];
        for (i, p) in objects.iter() {
            let oid = i as u64;
            let s = self.partitioner.shard_of(oid, p, k).min(k - 1);
            parts[s].push(p);
            oids[s].push(oid);
        }
        if let Some(dir) = &self.data_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut shards = Vec::with_capacity(k);
        for (s, (part, ids)) in parts.iter().zip(&oids).enumerate() {
            let mut b = Engine::builder()
                .index(self.index.clone())
                .objects(part)
                .explicit_oids(ids)
                .allow_empty();
            if let Some(dir) = &self.data_dir {
                b = b.data_dir(shard_dir(dir, s));
            }
            let shard = b.build()?;
            check_shard_pages(&shard)?;
            shards.push(shard);
        }
        if let Some(dir) = &self.data_dir {
            write_manifest(dir, k, &*self.partitioner)?;
        }
        Ok(ShardedEngine {
            dim: objects.dim(),
            partitioner: self.partitioner,
            shards,
            next_oid: AtomicU64::new(objects.len() as u64),
            data_dir: self.data_dir,
            evaluations: AtomicU64::new(0),
            mutator: Mutex::new(()),
        })
    }
}

/// The data directory of shard `s` under a sharded root.
fn shard_dir(root: &Path, s: usize) -> PathBuf {
    root.join(format!("shard-{s}"))
}

/// Write the sharded data-dir manifest (idempotent, overwrites).
fn write_manifest(dir: &Path, k: usize, partitioner: &dyn Partitioner) -> Result<(), MpqError> {
    let body = format!(
        "{MANIFEST_MAGIC}\nshards={k}\npartitioner={}\n",
        partitioner.id()
    );
    std::fs::write(dir.join(MANIFEST_FILE), body)?;
    Ok(())
}

/// Parse a sharded data-dir manifest into `(k, partitioner)`.
fn read_manifest(dir: &Path) -> Result<(usize, Arc<dyn Partitioner>), MpqError> {
    let body = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
    let mut lines = body.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(MpqError::Io(format!(
            "not a shard manifest: {}",
            dir.join(MANIFEST_FILE).display()
        )));
    }
    let mut k = None;
    let mut partitioner = None;
    for line in lines {
        if let Some(v) = line.strip_prefix("shards=") {
            k = v.parse::<usize>().ok();
        } else if let Some(v) = line.strip_prefix("partitioner=") {
            partitioner = Some(partitioner_from_id(v)?);
        }
    }
    match (k, partitioner) {
        (Some(k), Some(p)) if k >= 1 => Ok((k, p)),
        _ => Err(MpqError::Io(format!(
            "malformed shard manifest: {}",
            dir.join(MANIFEST_FILE).display()
        ))),
    }
}

/// A partitioned matching engine: `K` independent [`Engine`] shards
/// (each with its own R-tree, buffer pool, WAL segment and epoch
/// snapshots) behind the familiar evaluation surface, evaluated as one
/// tree over a [`ShardUnion`] (see the [module docs](self)).
///
/// `ShardedEngine` is `Sync` exactly like [`Engine`]: share it behind
/// an `Arc` and evaluate requests concurrently; mutations are
/// serialized internally and route to exactly one shard's WAL (two for
/// a migrating [`GridPartitioner`] update).
pub struct ShardedEngine {
    dim: usize,
    partitioner: Arc<dyn Partitioner>,
    shards: Vec<Engine>,
    /// Global id mint: ids `>= next_oid` have never been assigned, in
    /// any shard. Removal never recycles an id.
    next_oid: AtomicU64,
    data_dir: Option<PathBuf>,
    /// Evaluations actually run over the shard union.
    evaluations: AtomicU64,
    /// Serializes mutations (id minting + routing must be atomic).
    mutator: Mutex<()>,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("dim", &self.dim)
            .field("shards", &self.shards.len())
            .field("objects", &self.n_objects())
            .field("partitioner", &self.partitioner.id())
            .field("data_dir", &self.data_dir)
            .finish()
    }
}

impl ShardedEngine {
    /// Start building a sharded engine.
    pub fn builder<'o>() -> ShardedEngineBuilder<'o> {
        ShardedEngineBuilder::default()
    }

    /// Dimensionality of the indexed preference space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shards `K`.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines, in shard order (read access for metrics
    /// and tests; mutate through the sharded engine only, so routing
    /// and id minting stay consistent).
    pub fn shards(&self) -> &[Engine] {
        &self.shards
    }

    /// Total live objects across all shards.
    pub fn n_objects(&self) -> usize {
        self.shards.iter().map(Engine::n_objects).sum()
    }

    /// One past the highest global object id ever assigned (ids are
    /// never recycled — the same contract as [`Engine::oid_bound`]).
    #[inline]
    pub fn oid_bound(&self) -> u64 {
        self.next_oid.load(AtomicOrdering::Acquire)
    }

    /// The point currently stored for `oid`, searching all shards.
    pub fn object_point(&self, oid: u64) -> Option<Box<[f64]>> {
        self.shards.iter().find_map(|s| s.object_point(oid))
    }

    /// The shard currently holding `oid`, if any. For a
    /// [`HashPartitioner`] this is a direct computation; point-routed
    /// partitioners scan (an updated point may have migrated the
    /// object), which is `O(K log n)`.
    fn owner_of(&self, oid: u64) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.object_point(oid).is_some())
    }

    /// The per-shard inventory version vector, in shard order. This is
    /// the sharded replacement for [`Engine::inventory_version`]: stamp
    /// cache entries with the whole vector, and a mutation on one shard
    /// leaves every other component — and thus the cache soundness
    /// proof for unaffected entries — intact.
    pub fn version_vector(&self) -> Vec<u64> {
        self.shards.iter().map(Engine::inventory_version).collect()
    }

    /// The per-shard [`MutationLog`]s, in shard order (component-wise
    /// companions to [`ShardedEngine::version_vector`] for
    /// [`crate::ResultCache::get_with_logs`]).
    pub fn mutation_logs(&self) -> Vec<&MutationLog> {
        self.shards.iter().map(Engine::mutation_log).collect()
    }

    /// Evaluations actually run over the shard union (cache hits
    /// served by a fronting service do not count).
    #[inline]
    pub fn evaluation_count(&self) -> u64 {
        self.evaluations.load(AtomicOrdering::Relaxed)
    }

    /// Retired: always 0. It counted shard probes that the old
    /// per-shard best-pair merge skipped by a score bound; evaluation
    /// over a [`ShardUnion`] has no per-shard probes to skip. Kept, with
    /// [`ServiceMetrics::skipped_shards`](crate::ServiceMetrics) and the
    /// `/metrics` field, until the metrics schema version is bumped.
    #[inline]
    pub fn skipped_shards(&self) -> u64 {
        0
    }

    /// True iff the shards persist to a data directory.
    #[inline]
    pub fn is_persistent(&self) -> bool {
        self.data_dir.is_some()
    }

    /// The sharded data directory, if disk-backed.
    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// Does `dir` hold a persisted *sharded* engine — i.e. would
    /// [`ShardedEngine::open`] find a manifest to load?
    pub fn persisted_at(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(MANIFEST_FILE).is_file()
    }

    /// Reopen a persisted sharded engine with the default
    /// [`IndexConfig`] (shorthand for [`ShardedEngine::open_with`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<ShardedEngine, MpqError> {
        ShardedEngine::open_with(dir, IndexConfig::default())
    }

    /// Reopen a persisted sharded engine: read the manifest, then
    /// recover every shard independently (each shard replays its own
    /// WAL past its own checkpoint — crash recovery is per-shard, and
    /// the reopened engine serves matchings bit-identical to the
    /// pre-crash engine over the surviving inventory).
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: IndexConfig,
    ) -> Result<ShardedEngine, MpqError> {
        let dir = dir.as_ref();
        let (k, partitioner) = read_manifest(dir)?;
        check_shard_count(k)?;
        let mut shards = Vec::with_capacity(k);
        for s in 0..k {
            let shard = Engine::open_shard(&shard_dir(dir, s), config.clone())?;
            check_shard_pages(&shard)?;
            shards.push(shard);
        }
        if shards.iter().all(|s| s.n_objects() == 0) {
            return Err(MpqError::EmptyObjects);
        }
        let next_oid = shards.iter().map(Engine::oid_bound).max().unwrap_or(0);
        Ok(ShardedEngine {
            dim: shards[0].dim(),
            partitioner,
            shards,
            next_oid: AtomicU64::new(next_oid),
            data_dir: Some(dir.to_path_buf()),
            evaluations: AtomicU64::new(0),
            mutator: Mutex::new(()),
        })
    }

    /// Checkpoint every shard: fold each shard's WAL into its page file
    /// (see [`Engine::checkpoint`]).
    pub fn checkpoint(&self) -> Result<(), MpqError> {
        for s in &self.shards {
            s.checkpoint()?;
        }
        Ok(())
    }

    /// Summed write-ahead-log size across all shards.
    pub fn wal_bytes(&self) -> u64 {
        self.shards.iter().map(Engine::wal_bytes).sum()
    }

    /// Summed storage-level I/O across all shards.
    pub fn storage_stats(&self) -> IoStats {
        self.shards
            .iter()
            .map(Engine::storage_stats)
            .fold(IoStats::default(), |a, b| a + b)
    }

    /// Per-shard operator gauges, in shard order (surfaced by
    /// `/metrics` so partition skew is visible).
    pub fn shard_gauges(&self) -> Vec<ShardGauges> {
        self.shards
            .iter()
            .map(|s| ShardGauges {
                objects: s.n_objects(),
                tree_height: s.tree().height(),
                buffer_hit_rate: s.tree().io_stats().hit_ratio(),
                wal_bytes: s.wal_bytes(),
            })
            .collect()
    }

    /// Insert a new object: mint the next global id, route it through
    /// the partitioner, and apply it to exactly one shard (one WAL
    /// record, one version-vector component bumped).
    pub fn insert_object(&self, point: &[f64]) -> Result<u64, MpqError> {
        let _m = lock(&self.mutator);
        let oid = self.next_oid.load(AtomicOrdering::Relaxed);
        let k = self.shards.len();
        let s = self.partitioner.shard_of(oid, point, k).min(k - 1);
        self.shards[s].insert_object_at(oid, point)?;
        self.next_oid.store(oid + 1, AtomicOrdering::Release);
        Ok(oid)
    }

    /// Remove an object from whichever shard holds it. Refuses to empty
    /// the *global* inventory (a shard may legally drain to zero).
    pub fn remove_object(&self, oid: u64) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        let owner = self.owner_of(oid).ok_or(MpqError::UnknownObject { oid })?;
        if self.n_objects() == 1 {
            return Err(MpqError::UnsupportedRequest(
                "removing the last object would empty the inventory",
            ));
        }
        self.shards[owner].remove_object_allow_empty(oid)
    }

    /// Move an object to a new point. With an id-routed partitioner the
    /// owner shard updates in place (one WAL record); with a
    /// point-routed partitioner the object may *migrate* — an insert
    /// into the new home shard followed by a remove from the old owner
    /// (two WAL records in two segments, insert first so a crash
    /// between them never loses the object; see [`GridPartitioner`]).
    pub fn update_object(&self, oid: u64, point: &[f64]) -> Result<(), MpqError> {
        let _m = lock(&self.mutator);
        let owner = self.owner_of(oid).ok_or(MpqError::UnknownObject { oid })?;
        let k = self.shards.len();
        let home = self.partitioner.shard_of(oid, point, k).min(k - 1);
        if home == owner {
            return self.shards[owner].update_object(oid, point);
        }
        self.shards[home].insert_object_at(oid, point)?;
        self.shards[owner].remove_object_allow_empty(oid)
    }

    /// Build a [`FunctionSet`] from raw weight rows (same contract as
    /// [`Engine::functions_from_rows`]).
    pub fn functions_from_rows(&self, rows: &[Vec<f64>]) -> Result<FunctionSet, MpqError> {
        FunctionSet::try_from_rows(self.dim, rows)
            .map_err(|(index, source)| MpqError::InvalidFunction { index, source })
    }

    /// Start a [`ShardedMatchRequest`] for `functions` with default
    /// options.
    pub fn request<'e, 'f>(&'e self, functions: &'f FunctionSet) -> ShardedMatchRequest<'e, 'f> {
        ShardedMatchRequest {
            engine: self,
            functions,
            options: RequestOptions::default(),
        }
    }

    /// Evaluate `functions` with default options (shorthand for
    /// [`ShardedMatchRequest::evaluate`]).
    pub fn evaluate(&self, functions: &FunctionSet) -> Result<Matching, MpqError> {
        self.request(functions).evaluate()
    }

    /// Progressive SB evaluation with default options: stable pairs are
    /// yielded per loop, in exactly the unsharded stream's order.
    /// Shorthand for [`ShardedMatchRequest::stream`].
    pub fn stream<'e>(&'e self, functions: &FunctionSet) -> Result<ShardedStream<'e>, MpqError> {
        self.request(functions).stream()
    }

    /// Evaluate independent requests on a scoped worker pool, returning
    /// matchings **in input order** plus aggregated
    /// [`BatchMetrics`](crate::BatchMetrics) — the same batch runner as
    /// [`Engine::evaluate_batch`]. `threads == 0` means one worker per
    /// available core.
    pub fn evaluate_batch(
        &self,
        requests: &[ShardedMatchRequest<'_, '_>],
        threads: usize,
    ) -> Result<BatchOutcome, MpqError> {
        let wall_start = Instant::now();
        for request in requests {
            if !std::ptr::eq(request.engine, self) {
                return Err(MpqError::UnsupportedRequest(
                    "request was built against a different engine than this batch's",
                ));
            }
            request.validate()?;
        }
        let parts: Vec<_> = requests.iter().map(|r| (r.functions, &r.options)).collect();
        run_batch(
            crate::service::BackendRef::Sharded(self),
            &parts,
            threads,
            wall_start,
        )
    }

    /// Start a long-lived [`EngineService`] over this sharded engine —
    /// the same worker pool, bounded queue, tickets and result cache as
    /// [`Engine::serve`], with cache entries stamped by the per-shard
    /// version vector.
    pub fn serve(self: Arc<Self>, config: ServiceConfig) -> EngineService {
        EngineService::spawn_sharded(self, config)
    }

    /// Shared function validation (mirrors the unsharded engine's).
    fn validate_functions(&self, functions: &FunctionSet) -> Result<(), MpqError> {
        if functions.n_alive() == 0 {
            return Err(MpqError::EmptyFunctions);
        }
        if functions.dim() != self.dim {
            return Err(MpqError::DimensionMismatch {
                engine: self.dim,
                functions: functions.dim(),
            });
        }
        Ok(())
    }
}

/// Request-shape checks for the sharded path — the same contract as the
/// unsharded [`validate_options_shape`], against the sharded engine's
/// global `oid_bound`.
pub(crate) fn validate_sharded_options(
    engine: &ShardedEngine,
    functions: &FunctionSet,
    options: &RequestOptions,
) -> Result<(), MpqError> {
    engine.validate_functions(functions)?;
    validate_options_shape(engine.oid_bound() as usize, options)
}

/// The sharded evaluation path — the mirror of
/// [`crate::engine::evaluate_options_seeded`]: validate, pin every shard
/// in one [`ShardUnion`], and run the unsharded evaluator over it. The
/// version vector is read on both sides of the pin; if a mutation
/// straddled it, the run declines `seed` and captures nothing. A seed
/// captured here is one skyline snapshot stamped with the whole vector.
pub(crate) fn evaluate_sharded_options_seeded(
    engine: &ShardedEngine,
    functions: &FunctionSet,
    options: &RequestOptions,
    scratch: &mut Scratch,
    seed: Option<&EvalSeed>,
    capture: Option<&mut Option<EvalSeed>>,
) -> Result<Matching, MpqError> {
    validate_sharded_options(engine, functions, options)?;
    engine.evaluations.fetch_add(1, AtomicOrdering::Relaxed);
    let versions_before = engine.version_vector();
    let union = ShardUnion::open(&engine.shards)?;
    let versions = engine.version_vector();
    let pinned = (versions == versions_before).then_some(&versions[..]);
    Ok(evaluate_on(
        &union,
        engine.shards[0].index_config(),
        functions,
        options,
        scratch,
        pinned,
        seed,
        capture,
    ))
}

/// One evaluation against a prepared [`ShardedEngine`], configured
/// fluently — the sharded mirror of [`crate::MatchRequest`]. The
/// selected algorithm runs over the [`ShardUnion`] exactly as it runs
/// over one unsharded tree.
#[derive(Debug)]
pub struct ShardedMatchRequest<'e, 'f> {
    engine: &'e ShardedEngine,
    functions: &'f FunctionSet,
    options: RequestOptions,
}

impl<'e> ShardedMatchRequest<'e, '_> {
    /// Select the algorithm (default [`Algorithm::Sb`]). All three
    /// produce the identical canonical matching.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.options.algorithm = algorithm;
        self
    }

    /// Mask out objects (same contract as [`crate::MatchRequest::exclude`]).
    pub fn exclude<I: IntoIterator<Item = u64>>(mut self, oids: I) -> Self {
        self.options.exclude.extend(oids);
        self
    }

    /// Per-object capacities, indexed by global object id up to
    /// [`ShardedEngine::oid_bound`] (same contract as
    /// [`crate::MatchRequest::capacities`]).
    pub fn capacities(mut self, caps: &[u32]) -> Self {
        self.options.capacities = Some(caps.to_vec());
        self
    }

    /// The engine this request was built against.
    pub(crate) fn engine(&self) -> &'e ShardedEngine {
        self.engine
    }

    /// Detach into owned parts for the service queue (mirrors
    /// [`crate::MatchRequest`]'s pathway).
    pub(crate) fn owned_parts(&self) -> (FunctionSet, RequestOptions) {
        (self.functions.clone(), self.options.clone())
    }

    /// The canonical cache identity of this request — computed by the
    /// same keying function as the unsharded path, so a sharded
    /// service's cache behaves identically.
    pub fn cache_key(&self) -> RequestKey {
        crate::cache::request_key(self.functions, &self.options)
    }

    /// All the request-shape checks evaluation can fail on.
    pub(crate) fn validate(&self) -> Result<(), MpqError> {
        validate_sharded_options(self.engine, self.functions, &self.options)
    }

    /// Validate and evaluate the request over the shard union. The
    /// matching is bit-identical to the unsharded engine's canonical
    /// result.
    pub fn evaluate(&self) -> Result<Matching, MpqError> {
        evaluate_sharded_options_seeded(
            self.engine,
            self.functions,
            &self.options,
            &mut Scratch::new(),
            None,
            None,
        )
    }

    /// Seed-capable [`ShardedMatchRequest::evaluate`] — the sharded
    /// mirror of [`crate::MatchRequest::evaluate_seeded`]: primes the
    /// run from `seed` when the seed is still pinned to the engine's
    /// current version vector (cold otherwise) and returns the
    /// [`EvalSeed`] this evaluation captured. Seeded and cold evaluation
    /// are score-bit-identical.
    pub fn evaluate_seeded(
        &self,
        seed: Option<&EvalSeed>,
    ) -> Result<(Matching, Option<EvalSeed>), MpqError> {
        let mut captured = None;
        let matching = evaluate_sharded_options_seeded(
            self.engine,
            self.functions,
            &self.options,
            &mut Scratch::new(),
            seed,
            Some(&mut captured),
        )?;
        Ok((matching, captured))
    }

    /// Progressive SB evaluation over the shard union: the unsharded
    /// [`SbStream`], yielding each loop's stable pairs in canonical
    /// order. Mirrors [`crate::MatchRequest::stream`]'s shape
    /// requirements.
    pub fn stream(&self) -> Result<ShardedStream<'e>, MpqError> {
        self.validate()?;
        if self.options.algorithm != Algorithm::Sb {
            return Err(MpqError::UnsupportedRequest(
                "streaming is only supported with Algorithm::Sb",
            ));
        }
        if self.options.capacities.is_some() {
            return Err(MpqError::UnsupportedRequest(
                "streaming does not support capacities",
            ));
        }
        let union = ShardUnion::open(&self.engine.shards)?;
        self.engine
            .evaluations
            .fetch_add(1, AtomicOrdering::Relaxed);
        Ok(stream_on(
            &sb_config_of(self.engine.shards[0].index_config(), &self.options),
            union,
            self.functions,
            &self.options.exclude,
            ScratchLease::fresh(),
        ))
    }
}

/// Per-shard operator gauges (object count, tree height, buffer hit
/// rate, WAL bytes) surfaced by
/// [`ServiceMetrics`](crate::service::ServiceMetrics) and `/metrics` so
/// partition skew is visible.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardGauges {
    /// Live objects in the shard.
    pub objects: usize,
    /// Height of the shard's R-tree (levels; 1 = root leaf).
    pub tree_height: u32,
    /// Buffer-pool hit ratio of the shard's tree, in `[0, 1]`.
    pub buffer_hit_rate: f64,
    /// Current WAL segment size in bytes (0 for in-memory shards).
    pub wal_bytes: u64,
}

/// Progressive sharded evaluation: the unsharded [`SbStream`] over a
/// [`ShardUnion`], so a `K`-shard stream yields the same pairs in the
/// same per-loop canonical order as a `K = 1` one.
pub type ShardedStream<'e> = SbStream<'static, ShardUnion<'e>>;

/// Bits of a union page id that address a page inside its shard; the
/// bits above them carry the shard.
const PAGE_BITS: u32 = 24;
/// Pages one shard may span for its ids to fit the union's page-id tag.
const MAX_SHARD_PAGES: u64 = 1 << PAGE_BITS;
/// Most shards a [`ShardedEngine`] may have: one shard tag per value of
/// the top `32 - 24` page-id bits, less the synthetic root's tag.
pub const MAX_SHARDS: usize = (1 << (32 - PAGE_BITS)) - 1;
/// The synthetic root's page id: the one tag no shard uses, page 0
/// (never [`PageId::INVALID`], which is page `2^24 - 1` of that tag).
const ROOT_PID: PageId = PageId((MAX_SHARDS as u32) << PAGE_BITS);

/// The union page id of page `pid` of shard `shard`.
fn tag(shard: usize, pid: PageId) -> PageId {
    PageId(((shard as u32) << PAGE_BITS) | pid.0)
}

/// Split a union page id into its shard and its page inside the shard.
fn untag(pid: PageId) -> (usize, PageId) {
    (
        (pid.0 >> PAGE_BITS) as usize,
        PageId(pid.0 & (MAX_SHARD_PAGES as u32 - 1)),
    )
}

/// Refuse a shard count the union's page-id tag cannot address.
fn check_shard_count(k: usize) -> Result<(), MpqError> {
    if k > MAX_SHARDS {
        return Err(MpqError::ShardLimit {
            what: "shards",
            value: k as u64,
            max: MAX_SHARDS as u64,
        });
    }
    Ok(())
}

/// Refuse a shard whose page ids no longer fit the union's page-id tag.
fn check_shard_pages(shard: &Engine) -> Result<(), MpqError> {
    check_page_bound(u64::from(shard.tree().page_bound()))
}

fn check_page_bound(page_bound: u64) -> Result<(), MpqError> {
    if page_bound > MAX_SHARD_PAGES {
        return Err(MpqError::ShardLimit {
            what: "pages in one shard",
            value: page_bound,
            max: MAX_SHARD_PAGES,
        });
    }
    Ok(())
}

/// The `K` shard trees of a [`ShardedEngine`], pinned at one epoch each
/// and presented as a single [`NodeSource`]: the unsharded evaluators
/// run over it unchanged (see the [module docs](self)).
///
/// The root is synthetic and lives in memory: one entry per non-empty
/// shard, holding that shard's root MBR and shard-tagged root page.
/// Reading a tagged page reads it through the shard's own
/// [`IoSession`]; an inner node's children are re-tagged on the way
/// out, a leaf passes through (its object ids are already global).
/// [`NodeSource::io_snapshot`] sums the shard sessions. With one shard
/// the union is that shard's session verbatim.
pub struct ShardUnion<'e> {
    sessions: Vec<IoSession<'e>>,
    /// The synthetic root; `None` for a single shard.
    root: Option<Arc<Node>>,
}

impl<'e> ShardUnion<'e> {
    /// Pin every shard's current epoch and join the trees under one
    /// synthetic root. Fails with [`MpqError::ShardLimit`] if a
    /// non-empty shard's pages outgrew the page-id tag.
    fn open(shards: &'e [Engine]) -> Result<ShardUnion<'e>, MpqError> {
        let sessions: Vec<IoSession<'e>> =
            shards.iter().map(|s| IoSession::new(s.tree())).collect();
        if sessions.len() == 1 {
            return Ok(ShardUnion {
                sessions,
                root: None,
            });
        }
        let mut entries = Vec::with_capacity(sessions.len());
        let mut level = 1;
        for (s, (shard, session)) in shards.iter().zip(&sessions).enumerate() {
            if session.is_empty() {
                continue;
            }
            check_shard_pages(shard)?;
            let pid = session.root_page();
            let node = session.read_node(pid);
            level = level.max(node.level() + 1);
            entries.push((node.mbr(), tag(s, pid)));
        }
        let mut root = InnerNode::new(shards[0].dim(), level);
        for (mbr, pid) in &entries {
            root.push(&mbr.lo, &mbr.hi, *pid);
        }
        Ok(ShardUnion {
            sessions,
            root: Some(Arc::new(Node::Inner(root))),
        })
    }
}

impl NodeSource for ShardUnion<'_> {
    #[inline]
    fn dim(&self) -> usize {
        self.sessions[0].dim()
    }

    #[inline]
    fn root_page(&self) -> PageId {
        match self.root {
            Some(_) => ROOT_PID,
            None => self.sessions[0].root_page(),
        }
    }

    fn len(&self) -> u64 {
        self.sessions.iter().map(NodeSource::len).sum()
    }

    fn read_node(&self, pid: PageId) -> Arc<Node> {
        let Some(root) = &self.root else {
            return self.sessions[0].read_node(pid);
        };
        if pid == ROOT_PID {
            return Arc::clone(root);
        }
        let (s, local) = untag(pid);
        let node = self.sessions[s].read_node(local);
        match &*node {
            Node::Leaf(_) => node,
            Node::Inner(inner) => {
                let mut inner = inner.clone();
                for i in 0..inner.len() {
                    inner.set_child(i, tag(s, inner.child(i)));
                }
                Arc::new(Node::Inner(inner))
            }
        }
    }

    fn io_snapshot(&self) -> IoStats {
        self.sessions
            .iter()
            .map(IoSession::stats)
            .fold(IoStats::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::Pair;
    use mpq_datagen::WorkloadBuilder;

    fn workload(objects: usize, functions: usize, seed: u64) -> (PointSet, FunctionSet) {
        let w = WorkloadBuilder::new()
            .objects(objects)
            .functions(functions)
            .dim(3)
            .seed(seed)
            .build();
        (w.objects, w.functions)
    }

    #[test]
    fn hash_partitioner_is_stable_and_in_range() {
        let p = HashPartitioner;
        for oid in 0..500u64 {
            for k in [1usize, 2, 4, 8] {
                let s = p.shard_of(oid, &[0.5, 0.5], k);
                assert!(s < k);
                assert_eq!(s, p.shard_of(oid, &[0.1, 0.9], k), "point-independent");
            }
        }
    }

    #[test]
    fn grid_partitioner_slices_the_axis() {
        let p = GridPartitioner { axis: 0 };
        assert_eq!(p.shard_of(0, &[0.0, 0.5], 4), 0);
        assert_eq!(p.shard_of(0, &[0.99, 0.5], 4), 3);
        assert_eq!(p.shard_of(0, &[1.0, 0.5], 4), 3, "1.0 clamps into range");
        assert_eq!(p.shard_of(1, &[0.3, 0.5], 1), 0);
    }

    #[test]
    fn partitioner_ids_round_trip() {
        for p in [
            Box::new(HashPartitioner) as Box<dyn Partitioner>,
            Box::new(GridPartitioner { axis: 2 }),
        ] {
            let rebuilt = partitioner_from_id(&p.id()).unwrap();
            for oid in 0..64u64 {
                let pt = [0.25, 0.5, 0.75];
                assert_eq!(p.shard_of(oid, &pt, 8), rebuilt.shard_of(oid, &pt, 8));
            }
        }
        assert!(partitioner_from_id("mystery").is_err());
    }

    #[test]
    fn builder_rejects_zero_shards_and_empty_objects() {
        let (objects, _) = workload(10, 4, 1);
        let err = ShardedEngine::builder()
            .objects(&objects)
            .shards(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, MpqError::UnsupportedRequest(_)));
        let empty = PointSet::new(3);
        let err = ShardedEngine::builder()
            .objects(&empty)
            .shards(2)
            .build()
            .unwrap_err();
        assert_eq!(err, MpqError::EmptyObjects);
    }

    #[test]
    fn shards_cover_all_objects_disjointly() {
        let (objects, _) = workload(200, 8, 7);
        for k in [1usize, 3, 8] {
            let sharded = ShardedEngine::builder()
                .objects(&objects)
                .shards(k)
                .build()
                .unwrap();
            assert_eq!(sharded.shard_count(), k);
            assert_eq!(sharded.n_objects(), 200);
            let mut seen = std::collections::HashSet::new();
            for s in sharded.shards() {
                for oid in 0..200u64 {
                    if s.object_point(oid).is_some() && !seen.insert((oid, s as *const Engine)) {
                        panic!("oid {oid} indexed twice in one shard");
                    }
                }
            }
            for oid in 0..200u64 {
                let holders = sharded
                    .shards()
                    .iter()
                    .filter(|s| s.object_point(oid).is_some())
                    .count();
                assert_eq!(holders, 1, "oid {oid} held by {holders} shards");
            }
        }
    }

    #[test]
    fn sharded_matches_unsharded_canonical_result() {
        let (objects, functions) = workload(300, 24, 11);
        let unsharded = Engine::builder().objects(&objects).build().unwrap();
        let want = unsharded
            .request(&functions)
            .evaluate()
            .unwrap()
            .sorted_pairs();
        for k in [1usize, 2, 4, 8] {
            let sharded = ShardedEngine::builder()
                .objects(&objects)
                .shards(k)
                .build()
                .unwrap();
            let got = sharded.evaluate(&functions).unwrap().sorted_pairs();
            assert_eq!(got, want, "K={k} diverged from unsharded");
        }
    }

    #[test]
    fn grid_partitioner_matches_too() {
        let (objects, functions) = workload(180, 16, 23);
        let unsharded = Engine::builder().objects(&objects).build().unwrap();
        let want = unsharded
            .request(&functions)
            .evaluate()
            .unwrap()
            .sorted_pairs();
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(4)
            .partitioner(Arc::new(GridPartitioner { axis: 1 }))
            .build()
            .unwrap();
        assert_eq!(sharded.evaluate(&functions).unwrap().sorted_pairs(), want);
    }

    #[test]
    fn stream_yields_the_matching_progressively() {
        let (objects, functions) = workload(120, 10, 31);
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(3)
            .build()
            .unwrap();
        let eager = sharded.evaluate(&functions).unwrap();
        let streamed: Vec<Pair> = sharded.stream(&functions).unwrap().collect();
        assert_eq!(streamed, eager.pairs().to_vec());
    }

    #[test]
    fn mutations_route_to_exactly_one_shard() {
        let (objects, _) = workload(50, 4, 41);
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(4)
            .build()
            .unwrap();
        let before = sharded.version_vector();
        let oid = sharded.insert_object(&[0.5, 0.5, 0.5]).unwrap();
        assert_eq!(oid, 50);
        let after = sharded.version_vector();
        let bumped = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert_eq!(bumped, 1, "an insert must bump exactly one component");
        assert_eq!(sharded.n_objects(), 51);
        sharded.remove_object(oid).unwrap();
        assert_eq!(sharded.n_objects(), 50);
        assert!(matches!(
            sharded.remove_object(999),
            Err(MpqError::UnknownObject { oid: 999 })
        ));
    }

    #[test]
    fn sharded_sb_does_unsharded_work() {
        let (objects, functions) = workload(400, 32, 53);
        let unsharded = Engine::builder().objects(&objects).build().unwrap();
        let exclude = [5u64, 17, 60, 111, 250, 399];
        let work = |m: &Matching| (m.metrics().loops, m.metrics().reverse_top1_calls);
        let want_plain = work(&unsharded.request(&functions).evaluate().unwrap());
        let want_excluded = work(
            &unsharded
                .request(&functions)
                .exclude(exclude)
                .evaluate()
                .unwrap(),
        );
        for k in [2usize, 4, 8] {
            let sharded = ShardedEngine::builder()
                .objects(&objects)
                .shards(k)
                .build()
                .unwrap();
            let plain = work(&sharded.request(&functions).evaluate().unwrap());
            assert_eq!(plain, want_plain, "plain, K={k}: (loops, rtop1 calls)");
            let excluded = work(
                &sharded
                    .request(&functions)
                    .exclude(exclude)
                    .evaluate()
                    .unwrap(),
            );
            assert_eq!(
                excluded, want_excluded,
                "excluded, K={k}: (loops, rtop1 calls)"
            );
            assert_eq!(sharded.skipped_shards(), 0, "retired counter");
        }
    }

    #[test]
    fn shard_counts_past_the_tag_are_typed_errors() {
        let (objects, _) = workload(10, 4, 3);
        let err = ShardedEngine::builder()
            .objects(&objects)
            .shards(MAX_SHARDS + 1)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, MpqError::ShardLimit { what: "shards", value, .. } if value == MAX_SHARDS as u64 + 1),
            "{err:?}"
        );
        // A manifest naming too many shards is refused before any shard
        // directory is touched.
        let dir = std::env::temp_dir().join(format!(
            "mpq-shard-limit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        write_manifest(&dir, MAX_SHARDS + 1, &HashPartitioner).unwrap();
        let err = ShardedEngine::open(&dir).unwrap_err();
        assert!(
            matches!(err, MpqError::ShardLimit { what: "shards", .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn page_ids_tag_without_aliasing() {
        let last_page = PageId(MAX_SHARD_PAGES as u32 - 1);
        for shard in [0, 1, MAX_SHARDS - 1] {
            for page in [PageId(0), PageId(12_345), last_page] {
                let pid = tag(shard, page);
                assert_eq!(untag(pid), (shard, page));
                assert_ne!(pid, ROOT_PID);
                assert_ne!(pid, PageId::INVALID);
            }
        }
        assert_ne!(ROOT_PID, PageId::INVALID);
        assert!(check_page_bound(MAX_SHARD_PAGES).is_ok());
        let err = check_page_bound(MAX_SHARD_PAGES + 1).unwrap_err();
        assert!(
            matches!(
                err,
                MpqError::ShardLimit {
                    what: "pages in one shard",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn sharded_engine_persists_and_reopens() {
        let dir = std::env::temp_dir().join(format!(
            "mpq-shard-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (objects, functions) = workload(90, 12, 67);
        let want = {
            let sharded = ShardedEngine::builder()
                .objects(&objects)
                .shards(3)
                .data_dir(&dir)
                .build()
                .unwrap();
            assert!(ShardedEngine::persisted_at(&dir));
            sharded.insert_object(&[0.4, 0.4, 0.4]).unwrap();
            sharded.evaluate(&functions).unwrap().sorted_pairs()
        };
        let reopened = ShardedEngine::open(&dir).unwrap();
        assert_eq!(reopened.shard_count(), 3);
        assert_eq!(reopened.n_objects(), 91);
        assert_eq!(reopened.oid_bound(), 91);
        assert_eq!(reopened.evaluate(&functions).unwrap().sorted_pairs(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gauges_cover_every_shard() {
        let (objects, _) = workload(64, 4, 71);
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(4)
            .build()
            .unwrap();
        let gauges = sharded.shard_gauges();
        assert_eq!(gauges.len(), 4);
        assert_eq!(gauges.iter().map(|g| g.objects).sum::<usize>(), 64);
        assert!(gauges.iter().all(|g| g.tree_height >= 1));
    }
}
