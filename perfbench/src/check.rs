//! Answer checking against a cache-free in-memory engine.
//!
//! Matchings are compared as sets in canonical order (`fid`, `oid`,
//! `score.to_bits()`), never in emission order, which legitimately
//! differs between a sharded and an unsharded engine.

use std::collections::HashMap;
use std::thread;

use mpq_core::{reference_matching_excluding, Engine, IndexConfig, Pair};
use mpq_net::WireMutation;
use mpq_rtree::PointSet;
use mpq_ta::FunctionSet;

use crate::workload::{
    digest, Entry, MatchReq, Op, Reply, RwShared, Stream, Workload, Writer, HOT_SHAPES,
};

/// The oracle: an in-memory engine with no service and no cache. Its
/// buffer holds the whole tree; that changes cost, never answers.
pub fn oracle(objects: &PointSet) -> Result<Engine, String> {
    Engine::builder()
        .objects(objects)
        .index(IndexConfig {
            buffer_fraction: 1.0,
            ..IndexConfig::default()
        })
        .build()
        .map_err(|e| format!("oracle build: {e}"))
}

fn answer(engine: &Engine, req: &MatchReq) -> Result<Vec<Pair>, String> {
    let functions = req.functions();
    engine
        .request(&functions)
        .exclude(req.exclude.iter().copied())
        .evaluate()
        .map(|m| m.sorted_pairs())
        .map_err(|e| format!("oracle evaluation: {e}"))
}

fn same(a: &[Pair], b: &[Pair]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.fid == y.fid && x.oid == y.oid && x.score.to_bits() == y.score.to_bits()
        })
}

/// Check the oracle itself against the exact `reference_matching` on
/// the first two requests of the workload, on the initial inventory.
/// Returns the number of requests compared.
pub fn spot_check(
    workload: Workload,
    seed: u64,
    objects: &PointSet,
    engine: &Engine,
    rw: &RwShared,
) -> Result<usize, String> {
    let mut reqs = Vec::new();
    if workload == Workload::Rw {
        reqs.push(rw.shape(0).clone());
        reqs.push(rw.shape(1).clone());
    } else {
        let mut stream = Stream::new(workload, seed, 0, &RwShared::new(seed));
        for _ in 0..2 {
            let Op::Match(req) = stream.next_op() else {
                return Err("match stream yielded a mutation".into());
            };
            stream.observe(&Reply::Matched(answer(engine, &req)?));
            reqs.push(req);
        }
    }
    for req in &reqs {
        let mut exact = reference_matching_excluding(objects, &req.functions(), &|oid| {
            req.exclude.contains(&oid)
        });
        exact.sort_unstable();
        if !same(&answer(engine, req)?, &exact) {
            return Err("oracle disagrees with reference_matching".into());
        }
    }
    Ok(reqs.len())
}

/// Compare every served matching with the oracle; returns how many
/// were wrong. `entries` holds each connection's ops in send order.
pub fn check(
    workload: Workload,
    seed: u64,
    engine: &Engine,
    entries: &[Vec<Entry>],
    rw: &RwShared,
) -> Result<usize, String> {
    if workload == Workload::Rw {
        return check_rw(engine, seed, entries, rw);
    }
    // Each connection's stream is replayed with the oracle's answers,
    // which regenerates every request it sent.
    thread::scope(|s| {
        let handles: Vec<_> = entries
            .iter()
            .enumerate()
            .map(|(conn, log)| {
                s.spawn(move || -> Result<usize, String> {
                    let mut stream = Stream::new(workload, seed, conn, &RwShared::new(seed));
                    let mut prev: Option<(MatchReq, Vec<Pair>)> = None;
                    let mut wrong = 0;
                    for entry in log {
                        let Op::Match(req) = stream.next_op() else {
                            return Err("match stream yielded a mutation".into());
                        };
                        if entry.failed {
                            stream.observe(&Reply::Failed);
                            continue;
                        }
                        let expect = match prev {
                            Some((ref r, ref a)) if *r == req => a.clone(),
                            _ => answer(engine, &req)?,
                        };
                        if entry.digest != Some(digest(&expect)) {
                            wrong += 1;
                        }
                        stream.observe(&Reply::Matched(expect.clone()));
                        prev = Some((req, expect));
                    }
                    Ok(wrong)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread panicked"))
            .sum()
    })
}

/// `rw`: a match is right if it equals the oracle after some prefix of
/// the mutation order between the mutations acked before it was sent
/// (`lo`) and those sent before it returned (`hi`).
///
/// The oracle's answer for a hot shape is kept across mutations that
/// provably leave it unchanged (see [`unchanged_by`]) and re-evaluated
/// after any other, so the check costs one evaluation per shape and
/// relevant mutation rather than one per match.
fn check_rw(
    engine: &Engine,
    seed: u64,
    entries: &[Vec<Entry>],
    rw: &RwShared,
) -> Result<usize, String> {
    let mut mutations: Vec<&Entry> = entries.iter().flatten().filter(|e| e.mutation).collect();
    mutations.sort_by_key(|e| e.lo);
    let mut writer = Writer::new(seed);
    let functions: Vec<FunctionSet> = (0..HOT_SHAPES).map(|i| rw.shape(i).functions()).collect();
    let mut pending: Vec<&Entry> = entries
        .iter()
        .flatten()
        .filter(|e| !e.mutation && !e.failed)
        .collect();
    pending.sort_by_key(|e| e.lo);
    let mut pending = pending.into_iter().peekable();
    let mut active: Vec<&Entry> = Vec::new();
    let mut known: HashMap<u16, (Vec<Pair>, u64)> = HashMap::new();
    let mut wrong = 0;
    for k in 0..=mutations.len() {
        while let Some(e) = pending.next_if(|e| e.lo as usize <= k) {
            active.push(e);
        }
        let mut still = Vec::with_capacity(active.len());
        for e in active {
            let d = match known.get(&e.shape) {
                Some((_, d)) => *d,
                None => {
                    let pairs = answer(engine, rw.shape(e.shape as usize))?;
                    let d = digest(&pairs);
                    known.insert(e.shape, (pairs, d));
                    d
                }
            };
            if e.digest == Some(d) {
                continue;
            }
            if e.hi as usize <= k {
                wrong += 1;
            } else {
                still.push(e);
            }
        }
        active = still;
        let Some(record) = mutations.get(k) else {
            break;
        };
        if record.failed || record.lo as usize != k {
            // The oracle cannot know whether a failed mutation landed.
            return Ok(wrong + active.len() + pending.count());
        }
        let mutation = writer.next();
        let oid = match &mutation {
            WireMutation::Insert(p) => {
                let oid = engine
                    .insert_object(p)
                    .map_err(|e| format!("oracle insert: {e}"))?;
                if Some(oid) != record.oid {
                    return Err(format!("oracle minted oid {oid}, server {:?}", record.oid));
                }
                writer.inserted(oid);
                oid
            }
            WireMutation::Update(oid, p) => {
                engine
                    .update_object(*oid, p)
                    .map_err(|e| format!("oracle update: {e}"))?;
                *oid
            }
            WireMutation::Remove(oid) => {
                engine
                    .remove_object(*oid)
                    .map_err(|e| format!("oracle remove: {e}"))?;
                *oid
            }
        };
        known.retain(|&shape, (pairs, _)| {
            unchanged_by(pairs, &functions[shape as usize], &mutation, oid)
        });
    }
    Ok(wrong + active.len() + pending.count())
}

/// Whether `mutation` (on object `oid`) provably leaves the stable
/// matching `pairs` of `functions` unchanged.
///
/// The stable matching is the greedy sweep over all pairs in canonical
/// order. Removing an object no function is matched to only removes
/// pairs the sweep skipped. A new point `p` for `oid` changes the
/// sweep iff some function `f` would rank `(f, oid)` before its current
/// pair: the first such pair is reached while both sides are free, and
/// if there is none every `(f, oid)` is reached after `f` was taken.
/// An update is a removal followed by an insertion.
fn unchanged_by(
    pairs: &[Pair],
    functions: &FunctionSet,
    mutation: &WireMutation,
    oid: u64,
) -> bool {
    if pairs.len() != functions.n_alive() {
        return false;
    }
    let matched = pairs.iter().any(|p| p.oid == oid);
    let beaten = |point: &[f64]| {
        pairs.iter().any(|p| {
            let challenger = Pair {
                fid: p.fid,
                oid,
                score: functions.score(p.fid, point),
            };
            challenger.beats(p)
        })
    };
    match mutation {
        WireMutation::Remove(_) => !matched,
        WireMutation::Insert(point) => !beaten(point),
        WireMutation::Update(_, point) => !matched && !beaten(point),
    }
}
