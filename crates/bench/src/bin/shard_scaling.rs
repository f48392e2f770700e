//! Partitioned-engine scaling harness: shard-union evaluation and
//! routed mutations vs. shard count `K`, against the unsharded engine.
//!
//! Emits a self-validating `BENCH_pr9.json` (schema `mpq.bench.shard/1`)
//! that CI archives, extending the perf-trajectory series started by
//! `scaling` (PR 3):
//!
//! ```text
//! cargo run --release -p mpq_bench --bin shard_scaling              # full run
//! cargo run --release -p mpq_bench --bin shard_scaling -- --quick   # CI smoke
//! cargo run --release -p mpq_bench --bin shard_scaling -- --out results.json
//! cargo run -p mpq_bench --bin shard_scaling -- --validate BENCH_pr9.json
//! MPQ_OBJECTS=50000 MPQ_REQUESTS=32 MPQ_SHARDS=1,2,4,8 ...  # env overrides
//! ```
//!
//! Three quantities per shard count:
//!
//! 1. **Evaluation speedup** — wall time of a request stream evaluated
//!    over the `K`-shard union vs. the same stream on the unsharded
//!    engine. Every cell is checked **pair-for-pair, bit-for-bit**
//!    against the unsharded matchings; a mismatch aborts the run.
//! 2. **Shard-skip rate** — retired, always 0: it counted probes the
//!    former per-shard best-pair merge skipped by a score bound, and
//!    stays in the schema (`skipped_shards`, `shard_skip_rate`) until
//!    its version is bumped.
//! 3. **Mutation throughput** — a routed insert/remove/update stream;
//!    each mutation touches exactly one shard's tree + WAL, so smaller
//!    shards mean cheaper incremental maintenance.
//!
//! Speedup is machine-dependent (`host.cores` records the truth); on a
//! single-core host `acceptance.achieved` reports `null` rather than a
//! fake verdict.

use std::time::Instant;

use mpq_bench::json::Json;
use mpq_bench::{env_flag, env_usize};
use mpq_core::{Engine, Matching, ShardedEngine};
use mpq_datagen::{Distribution, WorkloadBuilder};
use mpq_ta::FunctionSet;

const SCHEMA: &str = "mpq.bench.shard/1";
const ACCEPT_SHARDS: usize = 4;
const ACCEPT_SPEEDUP: f64 = 1.2;

struct Config {
    objects: usize,
    requests: usize,
    functions_per_request: usize,
    mutations: usize,
    dim: usize,
    shards: Vec<usize>,
    out: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_pr9.json");
        match validate_file(path) {
            Ok(summary) => println!("{path}: OK ({summary})"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let quick = args.iter().any(|a| a == "--quick") || env_flag("MPQ_QUICK");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pr9.json".to_string());

    let cfg = Config {
        objects: env_usize("MPQ_OBJECTS", if quick { 6_000 } else { 40_000 }),
        requests: env_usize("MPQ_REQUESTS", if quick { 8 } else { 32 }),
        functions_per_request: env_usize("MPQ_FUNCTIONS", if quick { 16 } else { 40 }),
        mutations: env_usize("MPQ_MUTATIONS", if quick { 300 } else { 2_000 }),
        dim: env_usize("MPQ_DIM", 3),
        shards: parse_shards(&std::env::var("MPQ_SHARDS").unwrap_or_default()),
        out,
    };
    run(&cfg);
}

fn parse_shards(spec: &str) -> Vec<usize> {
    let parsed: Vec<usize> = spec
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .filter(|&k| k >= 1)
        .collect();
    if parsed.is_empty() {
        vec![1, 2, 4, 8]
    } else {
        parsed
    }
}

fn identical(a: &Matching, b: &Matching) -> bool {
    let (a, b) = (a.sorted_pairs(), b.sorted_pairs());
    a.len() == b.len()
        && a.iter().zip(&b).all(|(x, y)| {
            x.fid == y.fid && x.oid == y.oid && x.score.to_bits() == y.score.to_bits()
        })
}

fn run(cfg: &Config) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "shard scaling harness: |O|={} requests={} |F|/req={} mutations={} D={} K={:?} cores={}",
        cfg.objects,
        cfg.requests,
        cfg.functions_per_request,
        cfg.mutations,
        cfg.dim,
        cfg.shards,
        cores
    );

    let w = WorkloadBuilder::new()
        .objects(cfg.objects)
        .functions(1)
        .dim(cfg.dim)
        .distribution(Distribution::Independent)
        .seed(2009)
        .build();
    let function_sets: Vec<FunctionSet> = (0..cfg.requests)
        .map(|i| {
            WorkloadBuilder::new()
                .objects(1)
                .functions(cfg.functions_per_request)
                .dim(cfg.dim)
                .seed(90_000 + i as u64)
                .build()
                .functions
        })
        .collect();
    let mutation_points = WorkloadBuilder::new()
        .objects(cfg.mutations)
        .functions(1)
        .dim(cfg.dim)
        .distribution(Distribution::Independent)
        .seed(7_007)
        .build();

    // Unsharded baseline: the same request stream, one tree.
    let baseline = Engine::builder()
        .objects(&w.objects)
        .build()
        .expect("workload objects are valid");
    let base_start = Instant::now();
    let reference: Vec<Matching> = function_sets
        .iter()
        .map(|fs| baseline.request(fs).evaluate().expect("valid request"))
        .collect();
    let base_wall = base_start.elapsed().as_secs_f64();
    let base_rps = cfg.requests as f64 / base_wall;
    println!(
        "  unsharded baseline: {:>8.2} req/s ({:.3}s)",
        base_rps, base_wall
    );

    let mut series: Vec<Json> = Vec::new();
    let mut accept_best: Option<f64> = None;

    for &k in &cfg.shards {
        let build_start = Instant::now();
        let sharded = ShardedEngine::builder()
            .objects(&w.objects)
            .shards(k)
            .build()
            .expect("workload objects are valid");
        let build_secs = build_start.elapsed().as_secs_f64();

        // Evaluation: the request stream, verified bit-for-bit.
        let skipped_before = sharded.skipped_shards();
        let eval_start = Instant::now();
        let matchings: Vec<Matching> = function_sets
            .iter()
            .map(|fs| sharded.request(fs).evaluate().expect("valid request"))
            .collect();
        let eval_wall = eval_start.elapsed().as_secs_f64();
        let all_identical = matchings
            .iter()
            .zip(&reference)
            .all(|(a, b)| identical(a, b));
        assert!(
            all_identical,
            "K={k}: sharded matchings diverged from unsharded — this is a bug"
        );
        let rps = cfg.requests as f64 / eval_wall;
        let speedup = if base_rps > 0.0 { rps / base_rps } else { 0.0 };
        let skipped = sharded.skipped_shards() - skipped_before;
        let pairs: usize = matchings.iter().map(Matching::len).sum();
        let skip_rate = skipped as f64 / (pairs.max(1) * k) as f64;
        if k >= ACCEPT_SHARDS {
            accept_best = Some(accept_best.map_or(speedup, |b: f64| b.max(speedup)));
        }

        // Mutations: routed stream (insert → update → remove thirds).
        let mut_start = Instant::now();
        let mut inserted: Vec<u64> = Vec::new();
        for (i, (_, p)) in mutation_points.objects.iter().enumerate() {
            match i % 3 {
                0 => inserted.push(sharded.insert_object(p).expect("valid point")),
                1 => {
                    let oid = (i as u64 * 7919) % sharded.oid_bound();
                    let _ = sharded.update_object(oid, p);
                }
                _ => {
                    if let Some(oid) = inserted.pop() {
                        sharded.remove_object(oid).expect("inserted above");
                    }
                }
            }
        }
        let mut_wall = mut_start.elapsed().as_secs_f64();
        let mut_rate = cfg.mutations as f64 / mut_wall;

        println!(
            "  K={:<2}: {:>8.2} req/s  speedup {:>5.2}x  skip-rate {:>5.1}%  {:>9.0} mut/s  identical={}",
            k,
            rps,
            speedup,
            100.0 * skip_rate,
            mut_rate,
            all_identical
        );
        series.push(Json::obj([
            ("shards", Json::Num(k as f64)),
            ("build_secs", Json::Num(build_secs)),
            ("requests", Json::Num(cfg.requests as f64)),
            ("wall_secs", Json::Num(eval_wall)),
            ("requests_per_sec", Json::Num(rps)),
            ("speedup_vs_unsharded", Json::Num(speedup)),
            ("skipped_shards", Json::Num(skipped as f64)),
            ("shard_skip_rate", Json::Num(skip_rate)),
            ("mutations", Json::Num(cfg.mutations as f64)),
            ("mutations_per_sec", Json::Num(mut_rate)),
            (
                "mutations_per_sec_per_shard",
                Json::Num(mut_rate / k as f64),
            ),
            ("identical_to_unsharded", Json::Bool(all_identical)),
        ]));
    }

    let acceptance = Json::obj([
        ("threshold_speedup", Json::Num(ACCEPT_SPEEDUP)),
        ("at_shards", Json::Num(ACCEPT_SHARDS as f64)),
        (
            "best_speedup_at_threshold",
            accept_best.map_or(Json::Null, Json::Num),
        ),
        (
            "achieved",
            if cores < 2 {
                Json::Null // a speedup is unmeasurable on one core
            } else {
                Json::Bool(accept_best.unwrap_or(0.0) >= ACCEPT_SPEEDUP)
            },
        ),
    ]);

    let doc = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("host", Json::obj([("cores", Json::Num(cores as f64))])),
        (
            "workload",
            Json::obj([
                ("style", Json::Str("fig2".into())),
                ("distribution", Json::Str("independent".into())),
                ("objects", Json::Num(cfg.objects as f64)),
                ("requests", Json::Num(cfg.requests as f64)),
                (
                    "functions_per_request",
                    Json::Num(cfg.functions_per_request as f64),
                ),
                ("mutations", Json::Num(cfg.mutations as f64)),
                ("dim", Json::Num(cfg.dim as f64)),
                ("baseline_requests_per_sec", Json::Num(base_rps)),
            ]),
        ),
        ("series", Json::Arr(series)),
        ("acceptance", acceptance),
    ]);

    std::fs::write(&cfg.out, doc.render() + "\n").expect("write benchmark artifact");
    println!("wrote {}", cfg.out);
    match validate_file(&cfg.out) {
        Ok(summary) => println!("self-validation: OK ({summary})"),
        Err(e) => {
            eprintln!("self-validation FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// Validate a `BENCH_pr9.json` artifact: parse, check the schema tag and
/// the shape every series entry must have. Returns a one-line summary.
fn validate_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = Json::parse(&text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema'")?;
    if schema != SCHEMA {
        return Err(format!("schema '{schema}' != '{SCHEMA}'"));
    }
    doc.get("host")
        .and_then(|h| h.get("cores"))
        .and_then(Json::as_f64)
        .ok_or("missing 'host.cores'")?;
    let workload = doc.get("workload").ok_or("missing 'workload'")?;
    for key in [
        "objects",
        "requests",
        "functions_per_request",
        "mutations",
        "dim",
        "baseline_requests_per_sec",
    ] {
        workload
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing numeric 'workload.{key}'"))?;
    }
    let series = doc
        .get("series")
        .and_then(Json::as_arr)
        .ok_or("missing 'series' array")?;
    if series.is_empty() {
        return Err("empty 'series'".to_string());
    }
    let mut identical = 0usize;
    for (i, entry) in series.iter().enumerate() {
        for key in [
            "shards",
            "wall_secs",
            "requests_per_sec",
            "speedup_vs_unsharded",
            "skipped_shards",
            "shard_skip_rate",
            "mutations_per_sec",
            "mutations_per_sec_per_shard",
        ] {
            let v = entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("series[{i}]: missing numeric '{key}'"))?;
            if v < 0.0 {
                return Err(format!("series[{i}]: negative '{key}'"));
            }
        }
        if entry
            .get("identical_to_unsharded")
            .and_then(Json::as_bool)
            .ok_or(format!("series[{i}]: missing 'identical_to_unsharded'"))?
        {
            identical += 1;
        }
    }
    if identical != series.len() {
        return Err(format!(
            "{} of {} series entries were not identical to unsharded",
            series.len() - identical,
            series.len()
        ));
    }
    let acceptance = doc.get("acceptance").ok_or("missing 'acceptance'")?;
    acceptance
        .get("threshold_speedup")
        .and_then(Json::as_f64)
        .ok_or("missing 'acceptance.threshold_speedup'")?;
    Ok(format!(
        "{} series entries, all identical to unsharded",
        series.len()
    ))
}
