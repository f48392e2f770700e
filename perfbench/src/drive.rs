//! The closed loop: a fixed number of keep-alive connections, each
//! sending its next op only after the previous reply has been read.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use mpq_core::json::Json;
use mpq_net::{decode_pairs, HttpClient, HttpResponse, Tenant};

use crate::stats::ratio;
use crate::workload::{Entry, Op, Reply, RwShared, Stream, Workload};

/// Keep-alive connections of the closed loop.
pub const CONNECTIONS: usize = 2;

/// How long a client waits for one reply before counting the op failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// What one closed-loop run observed, once its op log is loaded.
#[derive(Default)]
pub struct LoopRun {
    /// Per connection, every op in send order, warm-up included.
    pub entries: Vec<Vec<Entry>>,
    /// Round-trip of each match sent inside the timed window, in ms.
    pub match_ms: Vec<f64>,
    /// Round-trip of each mutation sent inside the timed window, in ms.
    pub mutate_ms: Vec<f64>,
    /// `200` matches completed inside the timed window.
    pub matches_done: usize,
    /// `200` mutations completed inside the timed window.
    pub mutations_done: usize,
}

/// What a closed loop leaves behind. Each connection streams one
/// fixed-size record per op to a file instead of keeping it, so the
/// benchmark's own memory does not grow with throughput and
/// `peak_rss_mb` stays the server's.
pub struct LoopLog {
    paths: Vec<PathBuf>,
    /// Length of the timed window in seconds.
    pub window_s: f64,
    /// Queue depth of the sampled tenant, one reading per sample.
    pub queue_depth: Vec<usize>,
    /// On-CPU time of the server's threads inside the timed window, in
    /// seconds.
    pub server_cpu_s: f64,
    /// Share of the machine's CPU time inside the timed window that the
    /// hypervisor gave to other guests (steal time).
    pub steal_share: f64,
}

const FAILED: u8 = 1;
const MUTATION: u8 = 2;
const DIGEST: u8 = 4;
const TIMED: u8 = 8;
const DONE: u8 = 16;
const RECORD: usize = 32;

fn record(entry: &Entry, ms: f64, timed: bool, done: bool) -> [u8; RECORD] {
    let flags = [
        (entry.failed, FAILED),
        (entry.mutation, MUTATION),
        (entry.digest.or(entry.oid).is_some(), DIGEST),
        (timed, TIMED),
        (done, DONE),
    ]
    .iter()
    .filter(|(on, _)| *on)
    .fold(0, |acc, (_, bit)| acc | bit);
    let mut out = [0u8; RECORD];
    // A mutation has no digest; its slot carries an insert's oid.
    let word = entry.digest.or(entry.oid).unwrap_or(0);
    out[0..8].copy_from_slice(&word.to_le_bytes());
    out[8..16].copy_from_slice(&ms.to_le_bytes());
    out[16..20].copy_from_slice(&entry.lo.to_le_bytes());
    out[20..24].copy_from_slice(&entry.hi.to_le_bytes());
    out[24..26].copy_from_slice(&entry.shape.to_le_bytes());
    out[26] = flags;
    out
}

impl LoopLog {
    /// Read the op records back.
    pub fn load(&self) -> Result<LoopRun, String> {
        let mut run = LoopRun::default();
        for path in &self.paths {
            let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut entries = Vec::with_capacity(bytes.len() / RECORD);
            for r in bytes.chunks_exact(RECORD) {
                let u32_at =
                    |i: usize| u32::from_le_bytes(r[i..i + 4].try_into().expect("4 bytes"));
                let flags = r[26];
                let word = (flags & DIGEST != 0)
                    .then(|| u64::from_le_bytes(r[0..8].try_into().expect("8 bytes")));
                let mutation = flags & MUTATION != 0;
                let entry = Entry {
                    digest: word.filter(|_| !mutation),
                    oid: word.filter(|_| mutation),
                    failed: flags & FAILED != 0,
                    mutation,
                    shape: u16::from_le_bytes([r[24], r[25]]),
                    lo: u32_at(16),
                    hi: u32_at(20),
                };
                let ms = f64::from_le_bytes(r[8..16].try_into().expect("8 bytes"));
                if flags & TIMED != 0 {
                    if entry.mutation {
                        run.mutate_ms.push(ms);
                    } else {
                        run.match_ms.push(ms);
                    }
                }
                if flags & DONE != 0 {
                    if entry.mutation {
                        run.mutations_done += 1;
                    } else {
                        run.matches_done += 1;
                    }
                }
                entries.push(entry);
            }
            run.entries.push(entries);
        }
        Ok(run)
    }
}

/// Turn an HTTP response to `op` into a [`Reply`].
pub fn reply_of(op: &Op, resp: &HttpResponse) -> Reply {
    if resp.status != 200 {
        return Reply::Failed;
    }
    match op {
        Op::Match(_) => match decode_pairs(&resp.body) {
            Ok(mut pairs) => {
                pairs.sort_unstable();
                Reply::Matched(pairs)
            }
            Err(_) => Reply::Failed,
        },
        Op::Mutate(_) => {
            let ack = std::str::from_utf8(&resp.body)
                .ok()
                .and_then(|text| Json::parse(text).ok());
            match ack {
                Some(ack) => {
                    Reply::Acked(ack.get("oid").and_then(|v| v.as_f64()).map(|v| v as u64))
                }
                None => Reply::Failed,
            }
        }
    }
}

/// Send `op` to tenant `name` and time the round-trip, client send to
/// body read. Returns the reply, the send instant and the round-trip.
/// A transport error reconnects and counts as a failure.
pub fn send(client: &mut HttpClient, name: &str, op: &Op) -> (Reply, Instant, Duration) {
    let body = op.body();
    let path = format!("/t/{name}/{}", op.route());
    let t0 = Instant::now();
    let resp = client.post_json(&path, &body);
    let dt = t0.elapsed();
    match resp {
        Ok(resp) => (reply_of(op, &resp), t0, dt),
        Err(_) => {
            let _ = client.reconnect();
            (Reply::Failed, t0, dt)
        }
    }
}

/// Connect one client with the reply timeout set.
pub fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    Ok(client)
}

/// Drive tenant `name` with [`CONNECTIONS`] closed-loop connections for
/// `warmup` (sent and checked, not timed) and then `seconds`, logging
/// ops under `dir`. With `sample`, a side thread reads that tenant's
/// queue depth every 5 ms.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    name: &str,
    workload: Workload,
    seed: u64,
    rw: &Arc<RwShared>,
    warmup: Duration,
    seconds: Duration,
    sample: Option<&Tenant>,
    dir: &Path,
) -> Result<LoopLog, String> {
    let clients = (0..CONNECTIONS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let paths: Vec<PathBuf> = (0..CONNECTIONS)
        .map(|conn| dir.join(format!("ops-{name}-{conn}.bin")))
        .collect();
    let files = paths
        .iter()
        .map(|p| {
            File::create(p)
                .map(BufWriter::new)
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now() + warmup;
    let end = start + seconds;
    let done = AtomicBool::new(false);
    let metered = Barrier::new(CONNECTIONS + 1);
    let mut log = LoopLog {
        paths,
        window_s: seconds.as_secs_f64(),
        queue_depth: Vec::new(),
        server_cpu_s: 0.0,
        steal_share: 0.0,
    };
    let written = thread::scope(|s| -> std::io::Result<()> {
        let metered = &metered;
        let meter = thread::Builder::new()
            .name("perfbench-meter".into())
            .spawn_scoped(s, move || {
                thread::sleep(start.saturating_duration_since(Instant::now()));
                let (cpu0, ticks0) = (server_cpu_s(), machine_ticks());
                thread::sleep(end.saturating_duration_since(Instant::now()));
                let (cpu, ticks) = (server_cpu_s() - cpu0, machine_ticks());
                metered.wait();
                let (total, steal) = (ticks.0 - ticks0.0, ticks.1 - ticks0.1);
                (cpu, ratio(steal as f64, total as f64))
            })
            .expect("spawn meter thread");
        let sampler = sample.map(|tenant| {
            let done = &done;
            thread::Builder::new()
                .name("perfbench-sampler".into())
                .spawn_scoped(s, move || {
                    let mut depths = Vec::new();
                    while !done.load(Ordering::SeqCst) {
                        depths.push(tenant.metrics().queue_depth);
                        thread::sleep(Duration::from_millis(5));
                    }
                    depths
                })
                .expect("spawn sampler thread")
        });
        let conns: Vec<_> = clients
            .into_iter()
            .zip(files)
            .enumerate()
            .map(|(conn, (mut client, mut file))| {
                thread::Builder::new()
                    .name(format!("perfbench-conn-{conn}"))
                    .spawn_scoped(s, move || -> std::io::Result<HttpClient> {
                        let mut stream = Stream::new(workload, seed, conn, rw);
                        let mut drive = || -> std::io::Result<()> {
                            while Instant::now() < end {
                                let op = stream.next_op();
                                let (reply, sent, dt) = send(&mut client, name, &op);
                                let back = sent + dt;
                                let ok = !matches!(reply, Reply::Failed);
                                let entry = stream.observe(&reply);
                                let timed = sent >= start;
                                let in_window = ok && back >= start && back <= end;
                                let ms = dt.as_secs_f64() * 1e3;
                                file.write_all(&record(&entry, ms, timed, in_window))?;
                            }
                            file.flush()
                        };
                        let driven = drive();
                        // The meter subtracts this thread's CPU time, so
                        // the thread lives until the meter's last reading.
                        metered.wait();
                        driven.map(|()| client)
                    })
                    .expect("spawn connection thread")
            })
            .collect();
        let clients: Vec<_> = conns
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        done.store(true, Ordering::SeqCst);
        (log.server_cpu_s, log.steal_share) = meter.join().expect("meter thread panicked");
        if let Some(handle) = sampler {
            log.queue_depth = handle.join().expect("sampler thread panicked");
        }
        for client in clients {
            client?;
        }
        Ok(())
    });
    written.map_err(|e| format!("op log: {e}"))?;
    Ok(log)
}

/// On-CPU time so far of this process's server threads, in seconds:
/// the whole process, threads that have exited included, minus the
/// benchmark's own live threads (the main thread and those named
/// `perfbench-*`). Short-lived server threads, such as a sharded
/// evaluation's scatter threads, are counted.
///
/// Both readings are the scheduler's `sum_exec_runtime`: the process
/// total from `/proc/self/stat` (whose `utime + stime` the kernel scales
/// to it, in ticks of 1/100 s), a thread's from
/// `/proc/self/task/*/schedstat`. It leaves out time the hypervisor took
/// the virtual CPU away (steal time), so it does not move when a
/// neighbour of the host does. Every thread subtracted must be alive at
/// both readings of a window.
pub fn server_cpu_s() -> f64 {
    process_cpu_s() - own_threads_cpu_s()
}

/// The machine's CPU time so far, all states, and the steal time within
/// it, in ticks: the `cpu` line of `/proc/stat`.
fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user and nice.
    let total = ticks.iter().take(8).sum();
    (total, ticks.get(7).copied().unwrap_or(0))
}

/// `utime + stime` of the whole process, in seconds.
fn process_cpu_s() -> f64 {
    /// Clock ticks per second of `/proc` times (`USER_HZ`).
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name in field 2 may hold spaces; fields 14 and 15
    // (utime, stime) are the 12th and 13th after its closing paren.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    ticks as f64 / USER_HZ
}

/// On-CPU time of the benchmark's own live threads, in seconds.
fn own_threads_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let main = std::process::id().to_string();
    let mut ns = 0u64;
    for task in tasks.flatten() {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if task.file_name().to_str() != Some(main.as_str()) && !comm.starts_with("perfbench-") {
            continue;
        }
        let stat = std::fs::read_to_string(path.join("schedstat")).unwrap_or_default();
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
    }
    ns as f64 / 1e9
}
