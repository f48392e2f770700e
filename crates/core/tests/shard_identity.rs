//! Partitioned-engine acceptance: a [`ShardedEngine`] must be an
//! invisible optimization. For every algorithm, shard count, exclusion
//! set, capacity vector and interleaved mutation schedule, the
//! shard-union evaluation must produce matchings **bit-identical** to an
//! unsharded [`Engine`] over the same objects — and a sharded data
//! directory must reopen (per-shard WAL replay included) to the same
//! state. The result cache is stamped with a per-shard version vector,
//! so a mutation on one shard must not evict entries whose matching
//! only other shards' mutations could change.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpq_core::{
    Algorithm, Engine, GridPartitioner, IndexConfig, MpqError, ServiceConfig, ShardedEngine,
    SubmitOptions,
};
use mpq_rtree::PointSet;
use mpq_ta::FunctionSet;
use proptest::prelude::*;

/// A fresh per-test scratch directory (unique per call so parallel
/// tests never collide).
fn tmp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mpq_shard_{tag}_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seeded_points(n: usize, dim: usize, seed: u64) -> PointSet {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut points = PointSet::new(dim);
    let mut p = vec![0.0; dim];
    for _ in 0..n {
        for v in p.iter_mut() {
            *v = next();
        }
        points.push(&p);
    }
    points
}

fn functions(dim: usize, n: usize, seed: u64) -> FunctionSet {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        0.05 + 0.9 * ((state >> 11) as f64 / (1u64 << 53) as f64)
    };
    let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect();
    FunctionSet::from_rows(dim, &rows)
}

const ALGORITHMS: [Algorithm; 3] = [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain];

/// Bit-exact pair comparison: scores via `to_bits`, not epsilon.
fn exact(pairs: &[mpq_core::Pair]) -> Vec<(u32, u64, u64)> {
    pairs
        .iter()
        .map(|p| (p.fid, p.oid, p.score.to_bits()))
        .collect()
}

/// The tentpole acceptance matrix: SB/BF/Chain × K ∈ {1, 2, 4, 8} ×
/// {plain, exclusions, capacities}. Every cell must be bit-identical to
/// the unsharded engine's answer.
#[test]
fn sharded_matches_unsharded_for_all_algorithms_and_options() {
    let objects = seeded_points(240, 3, 0xA11CE);
    let fs = functions(3, 24, 0xB0B);
    let single = Engine::builder().objects(&objects).build().unwrap();
    let exclude: Vec<u64> = vec![3, 17, 42, 99, 140];
    let capacities: Vec<u32> = (0..objects.len() as u64)
        .map(|oid| (oid % 3) as u32)
        .collect();

    for k in [1usize, 2, 4, 8] {
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(k)
            .build()
            .unwrap();
        for alg in ALGORITHMS {
            // Plain.
            let want = single.request(&fs).algorithm(alg).evaluate().unwrap();
            let got = sharded.request(&fs).algorithm(alg).evaluate().unwrap();
            assert_eq!(
                exact(&got.sorted_pairs()),
                exact(&want.sorted_pairs()),
                "plain, K={k}, {alg:?}"
            );

            // Exclusions.
            let want = single
                .request(&fs)
                .algorithm(alg)
                .exclude(exclude.iter().copied())
                .evaluate()
                .unwrap();
            let got = sharded
                .request(&fs)
                .algorithm(alg)
                .exclude(exclude.iter().copied())
                .evaluate()
                .unwrap();
            assert_eq!(
                exact(&got.sorted_pairs()),
                exact(&want.sorted_pairs()),
                "excluded, K={k}, {alg:?}"
            );
        }

        // Capacities (SB only, same restriction as the unsharded engine).
        let want = single
            .request(&fs)
            .capacities(&capacities)
            .evaluate()
            .unwrap();
        let got = sharded
            .request(&fs)
            .capacities(&capacities)
            .evaluate()
            .unwrap();
        assert_eq!(
            exact(&got.sorted_pairs()),
            exact(&want.sorted_pairs()),
            "capacities, K={k}"
        );
        let err = sharded
            .request(&fs)
            .algorithm(Algorithm::BruteForce)
            .capacities(&capacities)
            .evaluate()
            .unwrap_err();
        assert!(matches!(err, MpqError::UnsupportedRequest(_)), "{err:?}");
    }
}

/// A spatial partitioner slices differently but must still be
/// invisible: the union only assumes disjoint-and-covering shards.
#[test]
fn grid_partitioned_shards_are_bit_identical_too() {
    let objects = seeded_points(180, 2, 0xCAFE);
    let fs = functions(2, 15, 0xF00D);
    let single = Engine::builder().objects(&objects).build().unwrap();
    let sharded = ShardedEngine::builder()
        .objects(&objects)
        .shards(5)
        .partitioner(Arc::new(GridPartitioner { axis: 1 }))
        .build()
        .unwrap();
    for alg in ALGORITHMS {
        let want = single.request(&fs).algorithm(alg).evaluate().unwrap();
        let got = sharded.request(&fs).algorithm(alg).evaluate().unwrap();
        assert_eq!(exact(&got.sorted_pairs()), exact(&want.sorted_pairs()));
    }
}

/// Every algorithm, with and without exclusions, plus capacities: the
/// sharded engine must answer bit-identically to `single`, an unsharded
/// engine over the same live inventory and id space.
fn assert_identical_everywhere(sharded: &ShardedEngine, single: &Engine, fs: &FunctionSet) {
    assert_eq!(sharded.oid_bound(), single.oid_bound(), "same id space");
    let exclude: Vec<u64> = (0..single.oid_bound()).step_by(7).collect();
    for alg in ALGORITHMS {
        let want = single.request(fs).algorithm(alg).evaluate().unwrap();
        let got = sharded.request(fs).algorithm(alg).evaluate().unwrap();
        assert_eq!(
            exact(&got.sorted_pairs()),
            exact(&want.sorted_pairs()),
            "plain, {alg:?}"
        );
        let want = single
            .request(fs)
            .algorithm(alg)
            .exclude(exclude.iter().copied())
            .evaluate()
            .unwrap();
        let got = sharded
            .request(fs)
            .algorithm(alg)
            .exclude(exclude.iter().copied())
            .evaluate()
            .unwrap();
        assert_eq!(
            exact(&got.sorted_pairs()),
            exact(&want.sorted_pairs()),
            "excluded, {alg:?}"
        );
    }
    let capacities: Vec<u32> = (0..single.oid_bound())
        .map(|oid| (oid % 3) as u32)
        .collect();
    let want = single
        .request(fs)
        .capacities(&capacities)
        .evaluate()
        .unwrap();
    let got = sharded
        .request(fs)
        .capacities(&capacities)
        .evaluate()
        .unwrap();
    assert_eq!(
        exact(&got.sorted_pairs()),
        exact(&want.sorted_pairs()),
        "capacities"
    );
}

/// 256-byte pages: small fanouts give even small shards inner nodes, so
/// the union's child-id re-tagging is exercised.
fn small_pages() -> IndexConfig {
    IndexConfig {
        page_size: 256,
        ..IndexConfig::default()
    }
}

/// A grid partition over a sub-range of its axis leaves whole shards
/// empty at build; the union's synthetic root simply has no entry for
/// them.
#[test]
fn union_with_empty_shards_is_bit_identical() {
    let mut objects = PointSet::new(3);
    for (_, p) in seeded_points(200, 3, 0xE417).iter() {
        objects.push(&[p[0] * 0.5, p[1], p[2]]);
    }
    let fs = functions(3, 20, 0x51);
    let single = Engine::builder()
        .index(small_pages())
        .objects(&objects)
        .build()
        .unwrap();
    let sharded = ShardedEngine::builder()
        .index(small_pages())
        .objects(&objects)
        .shards(4)
        .partitioner(Arc::new(GridPartitioner { axis: 0 }))
        .build()
        .unwrap();
    let empty = sharded
        .shard_gauges()
        .iter()
        .filter(|g| g.objects == 0)
        .count();
    assert_eq!(empty, 2, "axis 0 spans [0, 0.5): shards 2 and 3 stay empty");
    assert_identical_everywhere(&sharded, &single, &fs);
}

/// Removing every object of one shard drains it to an empty tree while
/// the other shards keep serving.
#[test]
fn union_after_draining_one_shard_is_bit_identical() {
    let objects = seeded_points(160, 3, 0xD8A1);
    let fs = functions(3, 18, 0x52);
    let single = Engine::builder()
        .index(small_pages())
        .objects(&objects)
        .build()
        .unwrap();
    let sharded = ShardedEngine::builder()
        .index(small_pages())
        .objects(&objects)
        .shards(4)
        .build()
        .unwrap();
    let drained: Vec<u64> = (0..objects.len() as u64)
        .filter(|&oid| sharded.shards()[1].object_point(oid).is_some())
        .collect();
    assert!(!drained.is_empty());
    for &oid in &drained {
        single.remove_object(oid).unwrap();
        sharded.remove_object(oid).unwrap();
    }
    assert_eq!(sharded.shards()[1].n_objects(), 0);
    assert_identical_everywhere(&sharded, &single, &fs);
}

/// Shards of very different sizes have trees of different heights, so
/// the synthetic root's children sit at different levels.
#[test]
fn union_over_trees_of_different_heights_is_bit_identical() {
    let mut objects = PointSet::new(3);
    for (i, p) in seeded_points(400, 3, 0x4E16).iter() {
        // 392 objects in [0, 0.5) on axis 0, 8 in [0.5, 1].
        let x = if i % 50 == 0 {
            0.5 + p[0] * 0.5
        } else {
            p[0] * 0.5
        };
        objects.push(&[x, p[1], p[2]]);
    }
    let fs = functions(3, 24, 0x53);
    let single = Engine::builder()
        .index(small_pages())
        .objects(&objects)
        .build()
        .unwrap();
    let sharded = ShardedEngine::builder()
        .index(small_pages())
        .objects(&objects)
        .shards(2)
        .partitioner(Arc::new(GridPartitioner { axis: 0 }))
        .build()
        .unwrap();
    let heights: Vec<u32> = sharded
        .shard_gauges()
        .iter()
        .map(|g| g.tree_height)
        .collect();
    assert!(heights[0] > heights[1], "heights {heights:?}");
    assert_identical_everywhere(&sharded, &single, &fs);
}

/// The same interleaved mutation schedule applied to both engines:
/// both mint the same oids (insertion order fixes them), so every
/// intermediate inventory must produce the same matchings.
#[test]
fn interleaved_mutations_preserve_bit_identity() {
    let objects = seeded_points(120, 3, 0x5EED);
    let fs = functions(3, 18, 0x1234);
    let single = Engine::builder().objects(&objects).build().unwrap();
    let sharded = ShardedEngine::builder()
        .objects(&objects)
        .shards(4)
        .build()
        .unwrap();

    let compare = |step: &str| {
        for alg in ALGORITHMS {
            let want = single.request(&fs).algorithm(alg).evaluate().unwrap();
            let got = sharded.request(&fs).algorithm(alg).evaluate().unwrap();
            assert_eq!(
                exact(&got.sorted_pairs()),
                exact(&want.sorted_pairs()),
                "{step}, {alg:?}"
            );
        }
    };

    compare("initial");
    let extra = seeded_points(8, 3, 0xADD);
    for (_, p) in extra.iter() {
        let a = single.insert_object(p).unwrap();
        let b = sharded.insert_object(p).unwrap();
        assert_eq!(a, b, "both engines must mint the same oid");
    }
    compare("after inserts");
    for oid in [2u64, 55, 119, 121] {
        single.remove_object(oid).unwrap();
        sharded.remove_object(oid).unwrap();
    }
    compare("after removes");
    let moved = seeded_points(5, 3, 0x30DE);
    for (i, (_, p)) in moved.iter().enumerate() {
        let oid = 10 + 20 * i as u64;
        single.update_object(oid, p).unwrap();
        sharded.update_object(oid, p).unwrap();
    }
    compare("after updates");
}

/// Crash-shaped recovery: build a persistent sharded engine, mutate it
/// (no checkpoint — the per-shard WAL tails carry everything), drop it
/// without any shutdown grace, and reopen the directory. The reopened
/// engine must match an in-memory unsharded reference that applied the
/// same mutations, bit-for-bit, for all three algorithms.
#[test]
fn sharded_reopen_replays_per_shard_wals_to_bit_identity() {
    let dir = tmp_dir("reopen");
    let objects = seeded_points(150, 3, 0xD15C);
    let fs = functions(3, 20, 0x9);

    let reference = Engine::builder().objects(&objects).build().unwrap();
    let mutate = |insert: &mut dyn FnMut(&[f64]) -> u64,
                  remove: &mut dyn FnMut(u64),
                  update: &mut dyn FnMut(u64, &[f64])| {
        let extra = seeded_points(6, 3, 0xE17A);
        for (_, p) in extra.iter() {
            insert(p);
        }
        remove(3);
        remove(78);
        let moved = seeded_points(2, 3, 0x1B);
        for (i, (_, p)) in moved.iter().enumerate() {
            update(40 + i as u64, p);
        }
    };
    mutate(
        &mut |p| reference.insert_object(p).unwrap(),
        &mut |oid| reference.remove_object(oid).unwrap(),
        &mut |oid, p| reference.update_object(oid, p).unwrap(),
    );

    {
        let disk = ShardedEngine::builder()
            .objects(&objects)
            .shards(4)
            .data_dir(&dir)
            .build()
            .unwrap();
        mutate(
            &mut |p| disk.insert_object(p).unwrap(),
            &mut |oid| disk.remove_object(oid).unwrap(),
            &mut |oid, p| disk.update_object(oid, p).unwrap(),
        );
        assert!(disk.wal_bytes() > 0, "mutations must hit the shard WALs");
        // Dropped here: no checkpoint, recovery is WAL replay alone.
    }

    assert!(ShardedEngine::persisted_at(&dir));
    let reopened = ShardedEngine::open(&dir).unwrap();
    assert_eq!(reopened.shard_count(), 4, "manifest preserves the layout");
    assert_eq!(reopened.n_objects(), reference.n_objects());
    for alg in ALGORITHMS {
        let want = reference.request(&fs).algorithm(alg).evaluate().unwrap();
        let got = reopened.request(&fs).algorithm(alg).evaluate().unwrap();
        assert_eq!(
            exact(&got.sorted_pairs()),
            exact(&want.sorted_pairs()),
            "{alg:?}"
        );
    }
}

/// Which shard holds each oid, by probing every shard's index.
fn membership(sharded: &ShardedEngine) -> Vec<Vec<u64>> {
    (0..sharded.oid_bound())
        .map(|oid| {
            (0..sharded.shard_count())
                .filter(|&s| sharded.shards()[s].object_point(oid).is_some())
                .map(|s| s as u64)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hash partitioner is a true partition: every object lands in
    /// exactly one shard (disjoint + covering), for any object count,
    /// dimensionality and shard count.
    #[test]
    fn hash_partition_is_disjoint_and_covering(
        n in 1usize..160,
        dim in 2usize..5,
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let objects = seeded_points(n, dim, seed);
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(k)
            .build()
            .unwrap();
        prop_assert_eq!(sharded.n_objects(), n);
        let per_shard: usize = sharded.shards().iter().map(Engine::n_objects).sum();
        prop_assert_eq!(per_shard, n, "shard sizes must sum to the total");
        for (oid, owners) in membership(&sharded).iter().enumerate() {
            prop_assert_eq!(
                owners.len(), 1,
                "oid {} must live in exactly one shard, found {:?}", oid, owners
            );
        }
    }
}

/// The partition is a pure function of the oid, so persisting and
/// reopening a sharded store must put every object back in the same
/// shard — otherwise routed mutations would corrupt the layout.
#[test]
fn hash_partition_is_stable_across_reopen() {
    let dir = tmp_dir("stable");
    let objects = seeded_points(90, 3, 0x57AB);
    let before = {
        let sharded = ShardedEngine::builder()
            .objects(&objects)
            .shards(6)
            .data_dir(&dir)
            .build()
            .unwrap();
        membership(&sharded)
    };
    let reopened = ShardedEngine::open(&dir).unwrap();
    assert_eq!(membership(&reopened), before);
}

/// The version-vector cache audit: a mutation that lands on one shard
/// and provably cannot change a cached matching (a dominated insert)
/// must not cost a re-evaluation — the per-shard mutation logs
/// revalidate the entry component-wise. A mutation that *can* change
/// the result must re-evaluate.
#[test]
fn cache_entries_survive_mutations_scoped_to_other_shards() {
    let objects = seeded_points(80, 2, 0xCACE);
    let fs = functions(2, 6, 0x77);
    let sharded = Arc::new(
        ShardedEngine::builder()
            .objects(&objects)
            .shards(4)
            .build()
            .unwrap(),
    );
    let service = Arc::clone(&sharded).serve(ServiceConfig::default().workers(1));
    let client = service.client();

    let submit = || {
        client
            .submit_sharded(sharded.request(&fs))
            .unwrap()
            .wait()
            .unwrap()
    };
    let first = submit();
    let evals_after_first = sharded.evaluation_count();
    assert_eq!(submit().sorted_pairs(), first.sorted_pairs());
    assert_eq!(
        sharded.evaluation_count(),
        evals_after_first,
        "identical resubmission must be a cache hit"
    );

    // A deeply dominated insert bumps exactly one component of the
    // version vector; the logs prove the matching unchanged and the
    // entry is restamped, not evicted.
    let versions_before = sharded.version_vector();
    sharded.insert_object(&[0.001, 0.001]).unwrap();
    let versions_after = sharded.version_vector();
    assert_eq!(
        versions_before
            .iter()
            .zip(&versions_after)
            .filter(|(a, b)| a != b)
            .count(),
        1,
        "one mutation bumps exactly one shard's version"
    );
    assert_eq!(submit().sorted_pairs(), first.sorted_pairs());
    assert_eq!(
        sharded.evaluation_count(),
        evals_after_first,
        "a dominated insert on one shard must not evict the cached matching"
    );

    // A dominating insert can win a greedy round: the entry must fall
    // back to a real re-evaluation (and the result changes).
    sharded.insert_object(&[0.999, 0.999]).unwrap();
    let after = submit();
    assert!(
        sharded.evaluation_count() > evals_after_first,
        "a result-changing mutation must re-evaluate"
    );
    assert_ne!(after.sorted_pairs(), first.sorted_pairs());
}

/// Service submission against a sharded backend: the ticket resolves to
/// the direct sharded result, per-shard gauges surface in the metrics,
/// and requests built against a different engine are refused with the
/// same message the unsharded service uses.
#[test]
fn sharded_service_serves_tickets_and_per_shard_metrics() {
    let objects = seeded_points(100, 3, 0x5E4E);
    let fs = functions(3, 10, 0x42);
    let sharded = Arc::new(
        ShardedEngine::builder()
            .objects(&objects)
            .shards(3)
            .build()
            .unwrap(),
    );
    let direct = sharded.request(&fs).evaluate().unwrap();

    let service = Arc::clone(&sharded).serve(ServiceConfig::default().workers(2));
    assert!(service.sharded().is_some());
    let client = service.client();
    let served = client
        .submit_sharded_with(sharded.request(&fs), SubmitOptions::default())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(exact(&served.sorted_pairs()), exact(&direct.sorted_pairs()));

    let metrics = client.metrics();
    assert_eq!(metrics.shards.len(), 3, "one gauge row per shard");
    assert_eq!(
        metrics.shards.iter().map(|s| s.objects).sum::<usize>(),
        100,
        "gauges cover the whole inventory"
    );
    let json = metrics.to_json();
    assert!(json.get("shards").is_some());
    assert!(json.get("skipped_shards").is_some());

    // A request built against a foreign sharded engine is refused.
    let other = ShardedEngine::builder()
        .objects(&objects)
        .shards(3)
        .build()
        .unwrap();
    let err = client.submit_sharded(other.request(&fs)).unwrap_err();
    assert!(matches!(err, MpqError::UnsupportedRequest(_)), "{err:?}");
}
