//! The traced run: per-layer metrics.
//!
//! First an untraced closed loop on tenant `loop` (the same run as
//! `--trace 0`), which gives the cache and service counters under
//! load. Then the workload's stream is replayed one op at a time: each
//! op goes once over one HTTP connection to tenant `http`, and once
//! in-process to tenant `direct` (same configuration, same op
//! history), where the benchmark calls each layer's public function
//! itself and records a span around the call. Because ops run one at a
//! time, counter deltas around an op belong to that op alone.
//!
//! Spans are kept in memory and written to
//! `.perfbench/trace-<workload>-<seed>.jsonl` at the end.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpq_core::json::Json;
use mpq_core::{Engine, Matching, MpqError, RunMetrics, SubmitOptions};
use mpq_net::{
    decode_match_request, decode_mutation, encode_matching, encode_mutation_ack, ParserLimits,
    RequestParser, Response, Tenant,
};
use mpq_rtree::IoStats;
use mpq_skyline::SkylineMaintainer;
use mpq_ta::ReverseTopOne;

use crate::drive::{closed_loop, connect, send};
use crate::serve::{inventory, serve, TempDir, OUT_DIR};
use crate::stats::{mean, peak_rss_mb, percentile, ratio};
use crate::workload::{digest, Op, Reply, RwShared, Stream};
use crate::{check, guard, sizes, Args, Metric, Outcome, WARMUP};

/// Ops in one traced replay.
const TRACE_OPS: usize = 240;
/// Isolated skyline builds; `skyline.bbs_us` is their median.
const BBS_RUNS: usize = 5;
/// The largest share of an op's wall time its layer spans may leave
/// unaccounted.
const RECONCILE_LIMIT: f64 = 0.05;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    req: u32,
}

/// Spans of one run; the root span of each op is its wall time.
#[derive(Default)]
struct Spans(Vec<Span>);

impl Spans {
    fn open(&mut self, name: &'static str, req: u32) -> usize {
        let now = Instant::now();
        self.0.push(Span {
            name,
            start: now,
            end: now,
            parent: None,
            req,
        });
        self.0.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.0[id].end = Instant::now();
    }

    /// Record a finished child span that started at `start`; returns
    /// its duration.
    fn child(&mut self, name: &'static str, parent: usize, start: Instant) -> Duration {
        let end = Instant::now();
        let req = self.0[parent].req;
        self.0.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            req,
        });
        end - start
    }

    /// Self time of every span: its duration minus what its children
    /// cover (children of one parent never overlap here).
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.0.iter().map(|s| s.end - s.start).collect();
        for s in &self.0 {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let Some(t0) = self.0.first().map(|s| s.start) else {
            return Ok(());
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.0.iter().enumerate() {
            let us = |t: Instant| (t - t0).as_secs_f64() * 1e6;
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("req", Json::Num(s.req as f64)),
                ("name", Json::Str(s.name.into())),
                ("parent", parent),
                ("start_us", Json::Num(us(s.start))),
                ("end_us", Json::Num(us(s.end))),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Counters of a tenant read around one op.
#[derive(Clone, Copy)]
struct Counters {
    hits: u64,
    seeded: u64,
    misses: u64,
    evaluations: u64,
    storage: IoStats,
    wal_bytes: u64,
    skipped: u64,
}

impl Counters {
    fn read(tenant: &Tenant) -> Counters {
        let m = tenant.metrics();
        let (evaluations, wal_bytes) = match tenant.sharded() {
            Some(s) => (s.evaluation_count(), s.wal_bytes()),
            None => (
                tenant.engine().evaluation_count(),
                tenant.engine().wal_bytes(),
            ),
        };
        Counters {
            hits: m.cache.hits,
            seeded: m.cache.seeded_hits,
            misses: m.cache.misses,
            evaluations,
            storage: m.storage,
            wal_bytes,
            skipped: m.skipped_shards,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Hit,
    Seeded,
    Cold,
    Mutation,
}

struct TracedOp {
    class: Class,
    root: usize,
    wall_us: f64,
    http_us: f64,
    wait_us: f64,
    resp_bytes: usize,
    run: Option<RunMetrics>,
    ta_build_us: f64,
    /// `cold-k4`, cold ops: the request's elapsed time on one unsharded
    /// engine, in µs.
    single_us: Option<f64>,
    evaluations: u64,
    disk_reads: u64,
    disk_writes: u64,
    fsyncs: u64,
    wal_growth: u64,
    skipped: u64,
}

/// The exact bytes the benchmark's HTTP client sends for `op`.
fn request_bytes(name: &str, op: &Op) -> Vec<u8> {
    let body = op.body();
    let mut bytes = format!(
        "POST /t/{name}/{} HTTP/1.1\r\nHost: mpq\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        op.route(),
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// What the in-process path served.
enum Served {
    Matched(Box<Matching>),
    Acked(Option<u64>),
}

/// Serve one op in-process through the same calls the server makes,
/// with a span around each layer's call. Returns what was served, the
/// response size and the time spent in `Ticket::wait`.
fn traced_op(
    tenant: &Tenant,
    bytes: &[u8],
    req: u32,
    spans: &mut Spans,
) -> Result<(Served, usize, Duration), String> {
    let root = spans.open("op", req);
    let t = Instant::now();
    let mut parser = RequestParser::new(ParserLimits::default());
    parser.feed(bytes).map_err(|e| format!("parse: {e}"))?;
    let request = parser.take_request().ok_or("incomplete request")?;
    spans.child("net.http.parse", root, t);
    let (body, served, wait) = if request.path.ends_with("/match") {
        let t = Instant::now();
        let wire = decode_match_request(&request.body)?;
        spans.child("net.codec.decode", root, t);
        let t = Instant::now();
        let ticket = tenant
            .submit_match(
                &wire.functions,
                wire.algorithm,
                &wire.exclude,
                wire.capacities.as_deref(),
                SubmitOptions::default().priority(wire.priority),
            )
            .map_err(|e| format!("submit: {e}"))?;
        spans.child("service.submit", root, t);
        let t = Instant::now();
        let matching = ticket.wait().map_err(|e| format!("wait: {e}"))?;
        let wait = spans.child("service.wait", root, t);
        let t = Instant::now();
        let body = encode_matching(&matching).render();
        spans.child("net.codec.encode", root, t);
        (body, Served::Matched(Box::new(matching)), wait)
    } else {
        let t = Instant::now();
        let mutation = decode_mutation(&request.body)?;
        spans.child("net.codec.decode", root, t);
        let t = Instant::now();
        let (oid, version) = tenant
            .mutate(&mutation)
            .map_err(|e: MpqError| format!("mutate: {e}"))?;
        spans.child("wal.mutate", root, t);
        let t = Instant::now();
        let body = encode_mutation_ack(oid, version).render();
        spans.child("net.codec.encode", root, t);
        (body, Served::Acked(oid), Duration::ZERO)
    };
    let t = Instant::now();
    let wire = Response::json(200, body).write_to(request.keep_alive());
    spans.child("net.http.write", root, t);
    spans.close(root);
    Ok((served, wire.len(), wait))
}

fn skyline_build_us(tenant: &Tenant) -> f64 {
    let mut runs: Vec<f64> = (0..BBS_RUNS)
        .map(|_| {
            let t = Instant::now();
            match tenant.sharded() {
                Some(s) => {
                    for shard in s.shards() {
                        std::hint::black_box(SkylineMaintainer::build(shard.tree()));
                    }
                }
                None => {
                    std::hint::black_box(SkylineMaintainer::build(tenant.engine().tree()));
                }
            }
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// The traced run (`--trace 1`).
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let wl = args.workload;
    let objects = inventory();
    let tmp = TempDir::new().map_err(|e| format!("temp dir: {e}"))?;
    let server = serve(wl, &objects, &["loop", "http", "direct"], tmp.path(), 0)?;
    let tenant = |name| Arc::clone(server.registry().get(name).expect("hosted above"));
    let (looped, direct) = (tenant("loop"), tenant("direct"));
    // The isolated re-run that `shard.overhead_us` is measured against:
    // one engine over the same inventory, built as an unsharded
    // tenant's is.
    let single = if wl.shards() > 1 {
        Some(
            Engine::builder()
                .objects(&objects)
                .build()
                .map_err(|e| format!("unsharded engine: {e}"))?,
        )
    } else {
        None
    };

    // Untraced closed loop: service and cache counters under load.
    let before = looped.metrics();
    let rw_loop = RwShared::new(args.seed);
    let log = closed_loop(
        server.local_addr(),
        "loop",
        wl,
        args.seed,
        &rw_loop,
        WARMUP,
        Duration::from_secs(args.seconds),
        Some(&looped),
        tmp.path(),
    )?;
    let after = looped.metrics();

    // Sequential traced replay.
    let rw_trace = RwShared::new(args.seed);
    let mut streams = [
        Stream::new(wl, args.seed, 0, &rw_trace),
        Stream::new(wl, args.seed, 1, &rw_trace),
    ];
    let mut entries = vec![Vec::new(), Vec::new()];
    let mut client = connect(server.local_addr())?;
    let mut spans = Spans(Vec::with_capacity(TRACE_OPS * 8));
    let mut ops = Vec::with_capacity(TRACE_OPS);
    let mut twin_mismatch = 0;
    for i in 0..TRACE_OPS {
        let conn = i % 2;
        let op = streams[conn].next_op();
        // Whichever twin runs second finds the op's data warm in the
        // CPU caches, so the order alternates.
        let http_first = i % 4 < 2;
        let mut http = || send(&mut client, "http", &op);
        let early = http_first.then(&mut http);
        let bytes = request_bytes("direct", &op);
        let c0 = Counters::read(&direct);
        let (served, resp_bytes, wait) = traced_op(&direct, &bytes, i as u32, &mut spans)?;
        let c1 = Counters::read(&direct);
        let (http_reply, _, http_rt) = early.unwrap_or_else(http);
        let (reply, run_metrics) = match served {
            Served::Matched(m) => (Reply::Matched(m.sorted_pairs()), Some(*m.metrics())),
            Served::Acked(oid) => (Reply::Acked(oid), None),
        };
        let root = spans
            .0
            .iter()
            .rposition(|s| s.parent.is_none())
            .expect("op span");
        let wall = spans.0[root].end - spans.0[root].start;
        let class = if matches!(op, Op::Mutate(_)) {
            Class::Mutation
        } else if c1.hits > c0.hits {
            Class::Hit
        } else if c1.seeded > c0.seeded {
            Class::Seeded
        } else if c1.misses > c0.misses {
            Class::Cold
        } else {
            Class::Hit
        };
        let ta_build_us = match &op {
            Op::Match(req) => {
                let functions = req.functions();
                let t = Instant::now();
                std::hint::black_box(ReverseTopOne::build(&functions));
                t.elapsed().as_secs_f64() * 1e6
            }
            Op::Mutate(_) => 0.0,
        };
        let single_us = match (&op, &single, class) {
            (Op::Match(req), Some(engine), Class::Cold) => {
                let matching = engine
                    .request(&req.functions())
                    .exclude(req.exclude.iter().copied())
                    .evaluate()
                    .map_err(|e| format!("unsharded engine: {e}"))?;
                Some(matching.metrics().elapsed.as_secs_f64() * 1e6)
            }
            _ => None,
        };
        let same = match (&http_reply, &reply) {
            (Reply::Matched(a), Reply::Matched(b)) => digest(a) == digest(b),
            (Reply::Acked(a), Reply::Acked(b)) => a == b,
            _ => false,
        };
        if !same {
            twin_mismatch += 1;
        }
        entries[conn].push(streams[conn].observe(&reply));
        let io = c1.storage.since(c0.storage);
        ops.push(TracedOp {
            class,
            root,
            wall_us: wall.as_secs_f64() * 1e6,
            http_us: http_rt.as_secs_f64() * 1e6,
            wait_us: wait.as_secs_f64() * 1e6,
            resp_bytes,
            run: run_metrics,
            ta_build_us,
            single_us,
            evaluations: c1.evaluations - c0.evaluations,
            disk_reads: io.disk_reads,
            disk_writes: io.disk_writes,
            fsyncs: io.fsyncs,
            wal_growth: c1.wal_bytes.saturating_sub(c0.wal_bytes),
            skipped: c1.skipped - c0.skipped,
        });
    }
    let bbs_us = skyline_build_us(&direct);
    let gauges = direct.metrics().shards;
    let service_faults: Vec<u64> = ["loop", "http", "direct"]
        .iter()
        .map(|n| {
            let m = tenant(n).metrics();
            m.rejected + m.expired + m.panicked
        })
        .collect();
    drop((looped, direct));
    server.shutdown();
    let rss = peak_rss_mb()?;
    let run = log.load()?;

    let oracle = check::oracle(&objects)?;
    let spot = check::spot_check(wl, args.seed, &objects, &oracle, &rw_loop)?;
    let wrong_loop = check::check(wl, args.seed, &oracle, &run.entries, &rw_loop)?;
    let oracle = check::oracle(&objects)?;
    let wrong_trace = check::check(wl, args.seed, &oracle, &entries, &rw_trace)?;

    // Reconciliation: the part of each op's wall time no layer span
    // covers (the root span's self time). It must stay within the limit
    // summed over the run and for 99% of ops: a single op can lose tens
    // of microseconds to a preemption that lands between two spans.
    let own = spans.self_times();
    let wall_of = |op: &TracedOp| spans.0[op.root].end - spans.0[op.root].start;
    let gaps: Vec<f64> = ops
        .iter()
        .map(|op| ratio(own[op.root].as_secs_f64(), wall_of(op).as_secs_f64()))
        .collect();
    let gap_total = ratio(
        ops.iter().map(|op| own[op.root].as_secs_f64()).sum(),
        ops.iter().map(|op| wall_of(op).as_secs_f64()).sum(),
    );
    let gap_p99 = percentile(&gaps, 0.99);
    let gap_max = gaps.iter().copied().fold(0.0, f64::max);
    let reconciled = gap_total <= RECONCILE_LIMIT && gap_p99 <= RECONCILE_LIMIT;

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let dump = Path::new(OUT_DIR).join(format!("trace-{}-{}.jsonl", wl.name(), args.seed));
    spans
        .write(&dump)
        .map_err(|e| format!("{}: {e}", dump.display()))?;

    let layer = |name: &str| -> f64 {
        let v: Vec<f64> = spans
            .0
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, d)| d.as_secs_f64() * 1e6)
            .collect();
        mean(&v)
    };
    let of = |classes: &[Class], f: &dyn Fn(&TracedOp) -> f64| -> f64 {
        let v: Vec<f64> = ops
            .iter()
            .filter(|o| classes.contains(&o.class))
            .map(f)
            .collect();
        mean(&v)
    };
    let evaluated = [Class::Seeded, Class::Cold];
    let matches = [Class::Hit, Class::Seeded, Class::Cold];
    let run_of =
        |f: &dyn Fn(&RunMetrics) -> f64| of(&evaluated, &|o| o.run.as_ref().map_or(0.0, f));
    let sky = |f: fn(&mpq_skyline::SkylineStats) -> u64| {
        run_of(&|r| r.skyline.as_ref().map_or(0.0, |s| f(s) as f64))
    };
    let ta =
        |f: fn(&mpq_ta::TaStats) -> u64| run_of(&|r| r.ta.as_ref().map_or(0.0, |s| f(s) as f64));
    let n_evaluated = ops.iter().filter(|o| evaluated.contains(&o.class)).count() as f64;
    let n_matches = ops.iter().filter(|o| matches.contains(&o.class)).count() as f64;
    let n_mutations = ops.iter().filter(|o| o.class == Class::Mutation).count() as f64;
    let sum = |f: &dyn Fn(&TracedOp) -> f64| ops.iter().map(f).sum::<f64>();
    let logical = run_of(&|r| r.io.logical as f64);
    let physical = run_of(&|r| r.io.physical_reads as f64);
    let socket: Vec<f64> = ops.iter().map(|o| o.http_us - o.wall_us).collect();
    let traced_match_ms: Vec<f64> = ops
        .iter()
        .filter(|o| matches.contains(&o.class))
        .map(|o| o.wall_us / 1e3)
        .collect();
    let cache = &after.cache;
    let lookups = (cache.hits + cache.misses) as f64;
    let depth: Vec<f64> = log.queue_depth.iter().map(|&d| d as f64).collect();

    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("net.http.parse_us", layer("net.http.parse"), "us"),
        metric("net.http.write_us", layer("net.http.write"), "us"),
        metric("net.socket_us", mean(&socket), "us"),
        metric("net.codec.decode_us", layer("net.codec.decode"), "us"),
        metric("net.codec.encode_us", layer("net.codec.encode"), "us"),
        metric(
            "net.resp_bytes",
            mean(&ops.iter().map(|o| o.resp_bytes as f64).collect::<Vec<_>>()),
            "bytes",
        ),
        metric("service.submit_us", layer("service.submit"), "us"),
        metric("service.wait_us", layer("service.wait"), "us"),
        metric(
            "service.queue_us",
            of(&evaluated, &|o| {
                o.wait_us
                    - o.run
                        .as_ref()
                        .map_or(0.0, |r| r.elapsed.as_secs_f64() * 1e6)
            }),
            "us",
        ),
        metric("service.queue_depth_mean", mean(&depth), "count"),
        metric(
            "service.rejected",
            (after.rejected - before.rejected) as f64,
            "count",
        ),
        metric(
            "service.expired",
            (after.expired - before.expired) as f64,
            "count",
        ),
        metric(
            "service.panicked",
            (after.panicked - before.panicked) as f64,
            "count",
        ),
        metric("cache.hit_rate", cache.hit_rate(), "ratio"),
        metric(
            "cache.seeded_share",
            ratio(cache.seeded_hits as f64, lookups),
            "ratio",
        ),
        metric(
            "cache.revalidated_share",
            ratio(cache.revalidations as f64, lookups),
            "ratio",
        ),
        metric(
            "cache.attach_share",
            ratio(cache.attaches as f64, after.submitted as f64),
            "ratio",
        ),
        metric(
            "cache.evictions_per_insert",
            ratio(cache.evictions as f64, cache.insertions as f64),
            "ratio",
        ),
        metric(
            "cache.seed_delta_mean",
            ratio(cache.seed_delta as f64, cache.seeded_hits as f64),
            "count",
        ),
        metric("cache.bytes", cache.bytes as f64, "bytes"),
        metric("engine.eval_us", run_of_class(&ops, Class::Cold), "us"),
        metric(
            "engine.seeded_eval_us",
            run_of_class(&ops, Class::Seeded),
            "us",
        ),
        metric(
            "engine.evals_per_match",
            ratio(sum(&|o| o.evaluations as f64), n_matches),
            "ratio",
        ),
        metric("engine.loops", run_of(&|r| r.loops as f64), "count"),
        metric(
            "engine.rtop1_calls",
            run_of(&|r| r.reverse_top1_calls as f64),
            "count",
        ),
        metric(
            "engine.peak_frontier",
            run_of(&|r| r.peak_frontier as f64),
            "count",
        ),
        metric("skyline.bbs_us", bbs_us, "us"),
        metric("skyline.nodes_expanded", sky(|s| s.nodes_expanded), "count"),
        metric(
            "skyline.dominance_checks",
            sky(|s| s.dominance_checks),
            "count",
        ),
        metric(
            "skyline.entries_rehomed",
            sky(|s| s.entries_rehomed),
            "count",
        ),
        metric(
            "skyline.entries_reheaped",
            sky(|s| s.entries_reheaped),
            "count",
        ),
        metric(
            "skyline.points_promoted",
            sky(|s| s.points_promoted),
            "count",
        ),
        metric("ta.build_us", of(&matches, &|o| o.ta_build_us), "us"),
        metric("ta.calls", ta(|s| s.calls), "count"),
        metric("ta.rounds", ta(|s| s.rounds), "count"),
        metric("ta.functions_scored", ta(|s| s.functions_scored), "count"),
        metric(
            "ta.positions_advanced",
            ta(|s| s.positions_advanced),
            "count",
        ),
        metric("rtree.logical_per_eval", logical, "count"),
        metric("rtree.physical_reads_per_eval", physical, "count"),
        metric(
            "rtree.buffer_hit_rate",
            if logical > 0.0 {
                1.0 - physical / logical
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "rtree.disk_reads_per_op",
            ratio(sum(&|o| o.disk_reads as f64), ops.len() as f64),
            "count",
        ),
        metric(
            "rtree.disk_writes_per_mutation",
            ratio(sum(&|o| o.disk_writes as f64), n_mutations),
            "count",
        ),
        metric("wal.mutate_us", layer("wal.mutate"), "us"),
        metric(
            "wal.bytes_per_mutation",
            ratio(sum(&|o| o.wal_growth as f64), n_mutations),
            "bytes",
        ),
        metric(
            "wal.fsyncs_per_mutation",
            ratio(
                sum(&|o| (o.class == Class::Mutation) as u64 as f64 * o.fsyncs as f64),
                n_mutations,
            ),
            "count",
        ),
        metric(
            "shard.overhead_us",
            mean(
                &ops.iter()
                    .filter_map(|o| {
                        Some(o.run.as_ref()?.elapsed.as_secs_f64() * 1e6 - o.single_us?)
                    })
                    .collect::<Vec<_>>(),
            ),
            "us",
        ),
        metric(
            "shard.skipped_per_eval",
            ratio(sum(&|o| o.skipped as f64), n_evaluated),
            "count",
        ),
        metric(
            "shard.buffer_hit_rate_min",
            gauges
                .iter()
                .map(|g| g.buffer_hit_rate)
                .reduce(f64::min)
                .unwrap_or(0.0),
            "ratio",
        ),
        metric("trace.op_p50_ms", percentile(&traced_match_ms, 0.5), "ms"),
        metric(
            "trace.untraced_match_p50_ms",
            percentile(&run.match_ms, 0.5),
            "ms",
        ),
        metric("trace.reconcile_gap_total", gap_total, "ratio"),
        metric("trace.reconcile_gap_p99", gap_p99, "ratio"),
    ];

    let (mut attempted, mut http_failed) = (0, 0);
    for e in run.entries.iter().chain(&entries).flatten() {
        attempted += 1;
        http_failed += e.failed as usize;
    }
    let mutations_acked = run
        .entries
        .iter()
        .flatten()
        .filter(|e| e.mutation && !e.failed)
        .count();
    let (holds, readings) = guard(
        wl,
        &after.cache,
        &after.storage.since(before.storage),
        mutations_acked,
    );
    let failed = http_failed + wrong_loop + wrong_trace + twin_mismatch;
    let faults: u64 = service_faults.iter().sum();
    let mut record = sizes(args);
    record.extend([
        ("trace_ops", Json::Num(ops.len() as f64)),
        (
            "loop_ops",
            Json::Num(run.entries.iter().map(Vec::len).sum::<usize>() as f64),
        ),
        (
            "wrong_answers",
            Json::Num((wrong_loop + wrong_trace) as f64),
        ),
        ("twin_mismatches", Json::Num(twin_mismatch as f64)),
        ("oracle_spot_checks", Json::Num(spot as f64)),
        ("reconciled", Json::Bool(reconciled)),
        ("reconcile_gap_max", Json::Num(gap_max)),
        ("service_faults", Json::Num(faults as f64)),
        ("peak_rss_mb", Json::Num(rss)),
        ("span_dump", Json::Str(dump.display().to_string())),
        ("guard_holds", Json::Bool(holds)),
    ]);
    record.extend(readings);
    Ok(Outcome {
        correct: failed == 0 && holds && reconciled && faults == 0,
        attempted,
        failed,
        metrics,
        record,
    })
}

fn run_of_class(ops: &[TracedOp], class: Class) -> f64 {
    let v: Vec<f64> = ops
        .iter()
        .filter(|o| o.class == class)
        .filter_map(|o| o.run.as_ref())
        .map(|r| r.elapsed.as_secs_f64() * 1e6)
        .collect();
    mean(&v)
}
