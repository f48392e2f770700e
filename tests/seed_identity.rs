//! Property tests for seeded evaluation (PR 10): priming an evaluation
//! from a captured [`EvalSeed`] must be **bit-identical** to running it
//! cold, under random request deltas — exclusion flips and function
//! weight tweaks — on both the unsharded engine (K = 1) and the
//! sharded engine (K = 4), including across interleaved
//! inventory mutations (which stale the seed: the evaluation must
//! detect that and silently fall back cold).
//!
//! Object points are deduplicated at generation so the canonical
//! matching is unique down to object identity — the comparison is full
//! pair equality, stronger than the score-bit equality the contract
//! promises (duplicate points may legally swap representatives).

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;

use mpq::prelude::*;
use mpq::ta::FunctionSet;

/// One randomized refinement step: toggle up to 3 exclusions, maybe
/// rewrite one function row, maybe mutate the inventory.
type Round = (Vec<u64>, Vec<u8>, u64, u64);

/// Deduplicated 2-d points on a fine grid.
fn points(rows: &[Vec<u16>]) -> (PointSet, Vec<u64>) {
    let mut ps = PointSet::new(2);
    let mut seen: HashSet<[u64; 2]> = HashSet::new();
    let mut live = Vec::new();
    for r in rows {
        let p = [r[0] as f64 / 1000.0, r[1] as f64 / 1000.0];
        if seen.insert([p[0].to_bits(), p[1].to_bits()]) {
            live.push(ps.len() as u64);
            ps.push(&p);
        }
    }
    (ps, live)
}

enum Backend {
    One(Box<Engine>),
    Many(ShardedEngine),
}

impl Backend {
    fn evaluate_pair(
        &self,
        functions: &FunctionSet,
        excl: &BTreeSet<u64>,
        seed: Option<&EvalSeed>,
        scratch: &mut Scratch,
    ) -> (Matching, Matching, Option<EvalSeed>) {
        match self {
            Backend::One(e) => {
                let cold = e
                    .request(functions)
                    .exclude(excl.iter().copied())
                    .evaluate()
                    .unwrap();
                let (warm, captured) = e
                    .request(functions)
                    .exclude(excl.iter().copied())
                    .evaluate_seeded(scratch, seed)
                    .unwrap();
                (cold, warm, captured)
            }
            Backend::Many(e) => {
                let cold = e
                    .request(functions)
                    .exclude(excl.iter().copied())
                    .evaluate()
                    .unwrap();
                let (warm, captured) = e
                    .request(functions)
                    .exclude(excl.iter().copied())
                    .evaluate_seeded(seed)
                    .unwrap();
                (cold, warm, captured)
            }
        }
    }

    fn insert(&self, point: &[f64]) -> u64 {
        match self {
            Backend::One(e) => e.insert_object(point).unwrap(),
            Backend::Many(e) => e.insert_object(point).unwrap(),
        }
    }

    fn remove(&self, oid: u64) {
        match self {
            Backend::One(e) => e.remove_object(oid).unwrap(),
            Backend::Many(e) => e.remove_object(oid).unwrap(),
        }
    }
}

fn check(
    obj_rows: &[Vec<u16>],
    fn_rows: &[Vec<u8>],
    rounds: &[Round],
    shards: usize,
) -> Result<(), TestCaseError> {
    let (objects, mut live) = points(obj_rows);
    let mut fn_rows: Vec<Vec<f64>> = fn_rows
        .iter()
        .map(|r| r.iter().map(|&v| v as f64).collect())
        .collect();
    prop_assume!(live.len() > fn_rows.len() + 6);

    let backend = if shards == 1 {
        Backend::One(Box::new(
            Engine::builder().objects(&objects).build().unwrap(),
        ))
    } else {
        Backend::Many(
            ShardedEngine::builder()
                .objects(&objects)
                .shards(shards)
                .build()
                .unwrap(),
        )
    };

    let mut excl: BTreeSet<u64> = BTreeSet::new();
    let mut seed: Option<EvalSeed> = None;
    let mut scratch = Scratch::new();
    let mut point_bits: HashSet<[u64; 2]> = live
        .iter()
        .map(|&o| {
            let p = objects.get(o as usize);
            [p[0].to_bits(), p[1].to_bits()]
        })
        .collect();

    for (step, (flips, tweak_row, tweak_sel, mut_sel)) in rounds.iter().enumerate() {
        // Exclusion flips (≤ 3), bounded so the matching stays total.
        for f in flips {
            let oid = live[(*f as usize) % live.len()];
            if !excl.remove(&oid) && excl.len() + fn_rows.len() + 2 < live.len() {
                excl.insert(oid);
            }
        }
        // Maybe rewrite one function row (a "weight tweak").
        if tweak_sel % 2 == 1 {
            let i = ((tweak_sel / 2) as usize) % fn_rows.len();
            fn_rows[i] = tweak_row.iter().map(|&v| v as f64).collect();
        }
        // Maybe mutate the inventory — this bumps the version vector,
        // so the carried seed goes stale and must be declined.
        match mut_sel % 3 {
            1 => {
                // Denominators coprime to 1000 keep these off the
                // generation grid, so the inventory stays duplicate-free.
                let p = [
                    (1 + mut_sel % 995) as f64 / 997.0,
                    (1 + (mut_sel / 997) % 989) as f64 / 991.0,
                ];
                if point_bits.insert([p[0].to_bits(), p[1].to_bits()]) {
                    live.push(backend.insert(&p));
                }
            }
            2 if live.len() > fn_rows.len() + excl.len() + 8 => {
                let i = ((mut_sel / 3) as usize) % live.len();
                let oid = live.swap_remove(i);
                excl.remove(&oid);
                backend.remove(oid);
            }
            _ => {}
        }

        let functions = FunctionSet::from_rows(2, &fn_rows);
        let (cold, warm, captured) =
            backend.evaluate_pair(&functions, &excl, seed.as_ref(), &mut scratch);

        prop_assert_eq!(
            cold.len(),
            warm.len(),
            "round {}: seeded pair count diverged",
            step
        );
        for (c, w) in cold.sorted_pairs().iter().zip(warm.sorted_pairs()) {
            prop_assert_eq!(c.fid, w.fid, "round {}: fid", step);
            prop_assert_eq!(c.oid, w.oid, "round {}: oid", step);
            prop_assert_eq!(
                c.score.to_bits(),
                w.score.to_bits(),
                "round {}: seeded score must be bit-identical to cold",
                step
            );
        }
        prop_assert!(
            captured.is_some(),
            "round {}: an uncapacitated SB evaluation must capture a seed",
            step
        );
        seed = captured;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn seeded_is_bit_identical_to_cold_under_random_deltas(
        obj_rows in proptest::collection::vec(proptest::collection::vec(0u16..=1000, 2), 28..72),
        fn_rows in proptest::collection::vec(proptest::collection::vec(1u8..=9, 2), 3..8),
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u64>(), 0..=3),
                proptest::collection::vec(1u8..=9, 2),
                any::<u64>(),
                any::<u64>(),
            ),
            1..5,
        ),
    ) {
        check(&obj_rows, &fn_rows, &rounds, 1)?;
        check(&obj_rows, &fn_rows, &rounds, 4)?;
    }
}

/// A K = 4 seed is one skyline snapshot stamped with the whole version
/// vector. A mutation on any one shard bumps one component, so the seed
/// no longer matches and must be declined: here the mutation inserts an
/// object that dominates the whole inventory, which a wrongly honored
/// seed would never see.
#[test]
fn sharded_seed_is_declined_after_a_mutation_on_one_shard() {
    let mut state = 0x5EED_u64;
    let rows: Vec<Vec<u16>> = (0..120)
        .map(|_| {
            (0..2)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 990) as u16
                })
                .collect()
        })
        .collect();
    let (objects, live) = points(&rows);
    let engine = ShardedEngine::builder()
        .objects(&objects)
        .shards(4)
        .build()
        .unwrap();
    let functions = FunctionSet::from_rows(2, &[vec![3.0, 1.0], vec![1.0, 2.0], vec![1.0, 1.0]]);
    let excl: Vec<u64> = live.iter().copied().step_by(9).collect();
    let request = || engine.request(&functions).exclude(excl.iter().copied());

    let (_, seed) = request().evaluate_seeded(None).unwrap();
    let seed = seed.expect("an uncapacitated SB evaluation captures a seed");
    assert_eq!(seed.parts(), 1, "one snapshot over the shard union");
    assert_eq!(seed.versions(), &engine.version_vector()[..]);

    let before = engine.version_vector();
    let top = engine.insert_object(&[0.9995, 0.9995]).unwrap();
    let after = engine.version_vector();
    let bumped = before.iter().zip(&after).filter(|(b, a)| b != a).count();
    assert_eq!(bumped, 1, "the insert touches exactly one shard");
    assert!(!seed.usable_at(&after), "vector mismatch declines the seed");

    let cold = request().evaluate().unwrap();
    let (warm, recaptured) = request().evaluate_seeded(Some(&seed)).unwrap();
    let exact = |m: &Matching| -> Vec<(u32, u64, u64)> {
        m.sorted_pairs()
            .iter()
            .map(|p| (p.fid, p.oid, p.score.to_bits()))
            .collect()
    };
    assert_eq!(exact(&warm), exact(&cold), "seed offered, run stays cold");
    assert!(
        warm.pairs().iter().any(|p| p.oid == top),
        "the new dominating object must be matched"
    );
    let recaptured = recaptured.expect("the cold run captures afresh");
    assert_eq!(recaptured.versions(), &after[..]);
}
