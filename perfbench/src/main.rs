//! Closed-loop HTTP benchmark of the mpq service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Drives the real `mpq_net::Server` in-process on `127.0.0.1` with two
//! closed-loop keep-alive connections, checks every answer against a
//! cache-free oracle, and prints one JSON object as its last line.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics of a separate sequential traced run. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod check;
mod drive;
mod serve;
mod stats;
mod trace;
mod workload;

use std::time::Duration;

use mpq_core::json::Json;
use mpq_core::CacheMetrics;
use mpq_rtree::IoStats;

use crate::drive::{closed_loop, CONNECTIONS};
use crate::serve::{inventory, serve_timed, TempDir};
use crate::stats::{peak_rss_mb, percentile, ratio};
use crate::workload::{RwShared, Workload, DIM, OBJECTS, ROWS};

/// Set-ups on each side of the closed loop; `setup_s` is the median of
/// all of them. One run's set-ups spread by nearly 2×, and the host's
/// speed drifts over tens of seconds, so half of them come after the
/// loop.
const SETUPS: usize = 12;
/// Ops sent before the timed window opens: sent and checked, not timed.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Parsed command line.
pub struct Args {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of the inventory and every op stream.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: u64,
    /// Run the traced per-layer run instead of the timed one.
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<&str, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let name = get("--workload")?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: u64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(1..=120).contains(&seconds) {
            return Err("--seconds must be in 1..=120".into());
        }
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// One metric as printed.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
pub struct Outcome {
    /// Every op answered `200` and right, and the workload guard held.
    pub correct: bool,
    /// Ops sent.
    pub attempted: usize,
    /// Ops answered non-`200` or wrong.
    pub failed: usize,
    /// The metrics of the final line.
    pub metrics: Vec<Metric>,
    /// Context printed before the final line: sizes, guard readings,
    /// shares.
    pub record: Vec<(&'static str, Json)>,
}

/// The workload's defining property, read from the tenant's cache and
/// storage counters over the run. Returns whether it holds, with the
/// readings.
pub fn guard(
    workload: Workload,
    cache: &CacheMetrics,
    storage: &IoStats,
    mutations_acked: usize,
) -> (bool, Vec<(&'static str, Json)>) {
    let lookups = (cache.hits + cache.misses) as f64;
    let exact = ratio(cache.hits as f64, lookups);
    let seeded = ratio(cache.seeded_hits as f64, lookups);
    let cold = ratio((cache.misses - cache.seeded_hits) as f64, lookups);
    let mut readings = vec![
        ("exact_share", Json::Num(exact)),
        ("seeded_share", Json::Num(seeded)),
        ("cold_share", Json::Num(cold)),
    ];
    let holds = match workload {
        Workload::Cold | Workload::ColdK4 => cache.hits == 0 && cache.seeded_hits == 0,
        Workload::Refine => seeded >= 0.4 && exact >= 0.15,
        Workload::Rw => {
            readings.push(("revalidations", Json::Num(cache.revalidations as f64)));
            readings.push(("fsyncs", Json::Num(storage.fsyncs as f64)));
            readings.push(("mutations_acked", Json::Num(mutations_acked as f64)));
            cache.revalidations > 0 && storage.fsyncs == mutations_acked as u64
        }
    };
    (holds, readings)
}

fn counts(entries: &[Vec<workload::Entry>]) -> (usize, usize, usize) {
    let all = entries.iter().flatten();
    let attempted = all.clone().count();
    let failed = all.clone().filter(|e| e.failed).count();
    let mutations = all.filter(|e| e.mutation && !e.failed).count();
    (attempted, failed, mutations)
}

/// The sizes every result records.
pub fn sizes(args: &Args) -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("connections", Json::Num(CONNECTIONS as f64)),
        ("objects", Json::Num(OBJECTS as f64)),
        ("dim", Json::Num(DIM as f64)),
        ("rows", Json::Num(ROWS as f64)),
        ("shards", Json::Num(args.workload.shards() as f64)),
    ]
}

fn timed(args: &Args) -> Result<Outcome, String> {
    let wl = args.workload;
    let objects = inventory();
    let tmp = TempDir::new().map_err(|e| format!("temp dir: {e}"))?;
    let (server, mut setup) = serve_timed(wl, &objects, &["bench"], tmp.path(), SETUPS)?;
    let setup_rss = peak_rss_mb()?;
    let tenant = std::sync::Arc::clone(server.registry().get("bench").expect("hosted above"));
    let before = tenant.metrics();
    let rw = RwShared::new(args.seed);
    let log = closed_loop(
        server.local_addr(),
        "bench",
        wl,
        args.seed,
        &rw,
        WARMUP,
        Duration::from_secs(args.seconds),
        None,
        tmp.path(),
    )?;
    let after = tenant.metrics();
    drop(tenant);
    server.shutdown();
    // Read before the later set-ups, the oracle and the reference check
    // allocate.
    let rss = peak_rss_mb()?;
    // Another tenant name, so that a disk-backed tenant is created afresh
    // rather than reopened.
    let (later, more) = serve_timed(wl, &objects, &["later"], tmp.path(), SETUPS)?;
    later.shutdown();
    setup.extend(more);

    let run = log.load()?;
    let (attempted, http_failed, mutations) = counts(&run.entries);
    let oracle = check::oracle(&objects)?;
    let spot = check::spot_check(wl, args.seed, &objects, &oracle, &rw)?;
    let wrong = check::check(wl, args.seed, &oracle, &run.entries, &rw)?;
    let storage = after.storage.since(before.storage);
    let (holds, readings) = guard(wl, &after.cache, &storage, mutations);

    setup.sort_by(f64::total_cmp);
    let failed = http_failed + wrong;
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: percentile(&setup, 0.5),
            unit: "s",
        },
        Metric {
            name: "cpu_ms_per_op",
            value: log.server_cpu_s * 1e3 / (run.matches_done + run.mutations_done).max(1) as f64,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MB",
        },
    ];
    let mutate = |v: f64| {
        if wl == Workload::Rw {
            Json::Num(v)
        } else {
            Json::Null
        }
    };
    let mut record = sizes(args);
    record.extend([
        ("setup_peak_rss_mb", Json::Num(setup_rss)),
        (
            "setups_s",
            Json::Arr(setup.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("match_samples", Json::Num(run.match_ms.len() as f64)),
        (
            "match_rps",
            Json::Num(run.matches_done as f64 / log.window_s),
        ),
        ("match_p50_ms", Json::Num(percentile(&run.match_ms, 0.5))),
        ("match_p99_ms", Json::Num(percentile(&run.match_ms, 0.99))),
        ("server_cpu_s", Json::Num(log.server_cpu_s)),
        ("steal_share", Json::Num(log.steal_share)),
        ("mutate_samples", Json::Num(run.mutate_ms.len() as f64)),
        (
            "mutate_rps",
            mutate(run.mutations_done as f64 / log.window_s),
        ),
        ("mutate_p50_ms", mutate(percentile(&run.mutate_ms, 0.5))),
        ("mutate_p99_ms", mutate(percentile(&run.mutate_ms, 0.99))),
        (
            "failed_frac",
            Json::Num(ratio(failed as f64, attempted as f64)),
        ),
        ("wrong_answers", Json::Num(wrong as f64)),
        ("oracle_spot_checks", Json::Num(spot as f64)),
        ("guard_holds", Json::Bool(holds)),
    ]);
    record.extend(readings);
    Ok(Outcome {
        correct: failed == 0 && holds && attempted > 0,
        attempted,
        failed,
        metrics,
        record,
    })
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload cold|cold-k4|refine|rw --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        trace::traced(&args)
    } else {
        timed(&args)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for m in &outcome.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let record: Vec<_> = outcome.record.into_iter().collect();
    println!("{}", Json::obj(record).render());
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if !outcome.correct {
        std::process::exit(1);
    }
}
