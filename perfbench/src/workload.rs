//! The four traffic mixes and their lazily generated op streams.
//!
//! Every connection owns one [`Stream`]. A stream draws its ops from a
//! generator seeded by `(seed, connection)`, one op at a time, and is
//! told each reply through [`Stream::observe`]; nothing is built up
//! front, so the generator's memory stays small and fixed however many
//! ops a run sends. The checker replays the same streams with the
//! oracle's answers to regenerate every request.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use mpq_core::json::Json;
use mpq_core::Pair;
use mpq_datagen::dist::simplex_uniform;
use mpq_net::WireMutation;
use mpq_ta::FunctionSet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Objects in the shared inventory.
pub const OBJECTS: usize = 50_000;
/// Attributes per object and weights per function.
pub const DIM: usize = 3;
/// Weight rows (preference functions) per match request.
pub const ROWS: usize = 48;
/// Steps after the base request in one `refine` session.
pub const SESSION_STEPS: usize = 11;
/// Distinct request shapes the `rw` matches draw from.
pub const HOT_SHAPES: usize = 64;
/// Share of `rw` ops that are mutations.
pub const MUTATION_SHARE: f64 = 0.2;

/// One traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fresh rows on every request: every lookup misses the cache.
    Cold,
    /// The `cold` stream on a tenant with four shards.
    ColdK4,
    /// Sessions of one base request and eleven small refinements.
    Refine,
    /// Matches from a hot set next to mutations on a disk-backed tenant.
    Rw,
}

impl Workload {
    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold" => Some(Workload::Cold),
            "cold-k4" => Some(Workload::ColdK4),
            "refine" => Some(Workload::Refine),
            "rw" => Some(Workload::Rw),
            _ => None,
        }
    }

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::ColdK4 => "cold-k4",
            Workload::Refine => "refine",
            Workload::Rw => "rw",
        }
    }

    /// Shards of the hosted engine.
    pub fn shards(self) -> usize {
        match self {
            Workload::ColdK4 => 4,
            _ => 1,
        }
    }

    /// Whether the tenant is disk-backed.
    pub fn persistent(self) -> bool {
        self == Workload::Rw
    }
}

/// A match request: weight rows plus excluded object ids.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchReq {
    /// One weight row per preference function.
    pub rows: Vec<[f64; DIM]>,
    /// Object ids excluded from this evaluation.
    pub exclude: Vec<u64>,
}

impl MatchReq {
    fn fresh(rng: &mut SmallRng) -> MatchReq {
        MatchReq {
            rows: (0..ROWS).map(|_| weight_row(rng)).collect(),
            exclude: Vec::new(),
        }
    }

    /// The `POST .../match` body. Weights render in shortest
    /// round-trip form, so the server decodes exactly these `f64`s.
    pub fn body(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| Json::Arr(r.iter().map(|&w| Json::Num(w)).collect()))
            .collect();
        let exclude = self
            .exclude
            .iter()
            .map(|&oid| Json::Num(oid as f64))
            .collect();
        Json::obj([
            ("functions", Json::Arr(rows)),
            ("exclude", Json::Arr(exclude)),
        ])
        .render()
    }

    /// The functions as the engine sees them.
    pub fn functions(&self) -> FunctionSet {
        let mut fs = FunctionSet::new(DIM);
        for row in &self.rows {
            fs.push(row);
        }
        fs
    }
}

fn weight_row(rng: &mut SmallRng) -> [f64; DIM] {
    let mut w = Vec::with_capacity(DIM);
    simplex_uniform(rng, DIM, &mut w);
    [w[0], w[1], w[2]]
}

fn point(rng: &mut SmallRng) -> Vec<f64> {
    (0..DIM).map(|_| rng.gen::<f64>()).collect()
}

/// One operation a connection sends.
#[derive(Clone, Debug)]
pub enum Op {
    /// `POST /t/NAME/match`.
    Match(MatchReq),
    /// `POST /t/NAME/mutate`.
    Mutate(WireMutation),
}

impl Op {
    /// The request body.
    pub fn body(&self) -> String {
        match self {
            Op::Match(req) => req.body(),
            Op::Mutate(m) => mutation_body(m),
        }
    }

    /// The route suffix after `/t/NAME/`.
    pub fn route(&self) -> &'static str {
        match self {
            Op::Match(_) => "match",
            Op::Mutate(_) => "mutate",
        }
    }
}

fn mutation_body(m: &WireMutation) -> String {
    let pt = |p: &[f64]| Json::Arr(p.iter().map(|&x| Json::Num(x)).collect());
    match m {
        WireMutation::Insert(p) => {
            Json::obj([("op", Json::Str("insert".into())), ("point", pt(p))])
        }
        WireMutation::Remove(oid) => Json::obj([
            ("op", Json::Str("remove".into())),
            ("oid", Json::Num(*oid as f64)),
        ]),
        WireMutation::Update(oid, p) => Json::obj([
            ("op", Json::Str("update".into())),
            ("oid", Json::Num(*oid as f64)),
            ("point", pt(p)),
        ]),
    }
    .render()
}

/// What came back for one op.
#[derive(Clone, Debug)]
pub enum Reply {
    /// A `200` matching, pairs in canonical order.
    Matched(Vec<Pair>),
    /// A `200` mutation ack, with the oid of an insert.
    Acked(Option<u64>),
    /// Any other status, or a transport error.
    Failed,
}

/// FNV-1a digest of a matching in canonical order, over `fid`, `oid`
/// and the score's bits — what the checker compares, so a run keeps
/// 8 bytes per answer instead of the answer.
pub fn digest(sorted: &[Pair]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(sorted.len() as u64);
    for p in sorted {
        eat(p.fid as u64);
        eat(p.oid);
        eat(p.score.to_bits());
    }
    h
}

/// What the checker needs to know about one completed op.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// `Some(digest)` of a served matching; `None` for a mutation or a
    /// failed op.
    pub digest: Option<u64>,
    /// The op did not come back `200`.
    pub failed: bool,
    /// The op was a mutation.
    pub mutation: bool,
    /// `rw` only: the oid an insert's ack carried.
    pub oid: Option<u64>,
    /// `rw` only: the hot shape a match used.
    pub shape: u16,
    /// `rw` only: for a match, the mutations acked before it was sent;
    /// for a mutation, its place in the mutation order.
    pub lo: u32,
    /// `rw` only: the mutations sent before a match returned.
    pub hi: u32,
}

/// The `rw` mutation generator: insert, update and remove in equal
/// shares on random live oids. Its sequence depends only on the seed
/// and the oids the inserts' acks carry, so the checker regenerates it
/// instead of anyone keeping it.
pub struct Writer {
    rng: SmallRng,
    live: Vec<u64>,
}

impl Writer {
    /// The generator for `seed`, over an inventory with oids
    /// `0..OBJECTS`.
    pub fn new(seed: u64) -> Writer {
        Writer {
            rng: SmallRng::seed_from_u64(mix(seed, u64::MAX, 8)),
            live: (0..OBJECTS as u64).collect(),
        }
    }

    /// The next mutation.
    pub fn next(&mut self) -> WireMutation {
        let Writer { rng, live } = self;
        match rng.gen_range(0..3u32) {
            0 => WireMutation::Insert(point(rng)),
            1 => {
                let oid = live[rng.gen_range(0..live.len())];
                WireMutation::Update(oid, point(rng))
            }
            _ => {
                let i = rng.gen_range(0..live.len());
                WireMutation::Remove(live.swap_remove(i))
            }
        }
    }

    /// Record the oid an insert was given.
    pub fn inserted(&mut self, oid: u64) {
        self.live.push(oid);
    }
}

/// State shared by the `rw` connections: the hot shapes and the single
/// writer. Mutations are serialized on the client side (one in flight
/// at a time), so they have one order and the checker can name, for
/// every match, the prefix of that order it may have seen.
pub struct RwShared {
    hot: Vec<MatchReq>,
    /// The generator, and whether a mutation is in flight.
    writer: Mutex<(Writer, bool)>,
    free: Condvar,
    acked: AtomicUsize,
    sent: AtomicUsize,
}

impl RwShared {
    /// Shapes and writer for `seed`.
    pub fn new(seed: u64) -> Arc<RwShared> {
        let mut rng = SmallRng::seed_from_u64(mix(seed, u64::MAX, 7));
        let hot = (0..HOT_SHAPES).map(|_| MatchReq::fresh(&mut rng)).collect();
        Arc::new(RwShared {
            hot,
            writer: Mutex::new((Writer::new(seed), false)),
            free: Condvar::new(),
            acked: AtomicUsize::new(0),
            sent: AtomicUsize::new(0),
        })
    }

    /// Hot shape `i`.
    pub fn shape(&self, i: usize) -> &MatchReq {
        &self.hot[i]
    }

    /// Wait until no mutation is in flight, then take the next one and
    /// its place in the order.
    fn begin_mutation(&self) -> (u32, WireMutation) {
        let mut w = self.writer.lock().expect("writer lock");
        while w.1 {
            w = self.free.wait(w).expect("writer lock");
        }
        w.1 = true;
        let m = w.0.next();
        let seq = self.sent.fetch_add(1, Ordering::SeqCst);
        (seq as u32, m)
    }

    fn end_mutation(&self, mutation: &WireMutation, reply: &Reply) {
        let mut w = self.writer.lock().expect("writer lock");
        if let (WireMutation::Insert(_), Reply::Acked(Some(oid))) = (mutation, reply) {
            w.0.inserted(*oid);
        }
        w.1 = false;
        self.acked.fetch_add(1, Ordering::SeqCst);
        self.free.notify_all();
    }
}

/// A well-mixed generator seed for one stream of `seed`: a connection
/// number, or `u64::MAX` for the streams the connections share.
fn mix(seed: u64, stream: u64, salt: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One connection's op stream.
pub struct Stream {
    rng: SmallRng,
    kind: Kind,
}

enum Kind {
    Cold,
    Refine {
        current: Option<MatchReq>,
        step: usize,
        last: Vec<Pair>,
    },
    Rw {
        shared: Arc<RwShared>,
        pending: Pending,
    },
}

enum Pending {
    None,
    Match { shape: u16, lo: u32 },
    Mutate(u32, WireMutation),
}

impl Stream {
    /// The stream of connection `conn`. `shared` is used by `rw` only.
    pub fn new(workload: Workload, seed: u64, conn: usize, shared: &Arc<RwShared>) -> Stream {
        let kind = match workload {
            Workload::Cold | Workload::ColdK4 => Kind::Cold,
            Workload::Refine => Kind::Refine {
                current: None,
                step: 0,
                last: Vec::new(),
            },
            Workload::Rw => Kind::Rw {
                shared: Arc::clone(shared),
                pending: Pending::None,
            },
        };
        Stream {
            rng: SmallRng::seed_from_u64(mix(seed, conn as u64, 1)),
            kind,
        }
    }

    /// The next op. On `rw` a mutation waits until no other mutation
    /// is in flight; [`Stream::observe`] releases it.
    pub fn next_op(&mut self) -> Op {
        let rng = &mut self.rng;
        match &mut self.kind {
            Kind::Cold => Op::Match(MatchReq::fresh(rng)),
            Kind::Refine {
                current,
                step,
                last,
            } => {
                match current {
                    Some(req) if *step < SESSION_STEPS => {
                        *step += 1;
                        match (*step - 1) % 3 {
                            // Exclude the object matched to one function.
                            0 if !last.is_empty() => {
                                let oid = last[rng.gen_range(0..last.len())].oid;
                                req.exclude.push(oid);
                            }
                            // Repeat the last request exactly.
                            2 => {}
                            // Replace one weight row.
                            _ => {
                                let i = rng.gen_range(0..req.rows.len());
                                req.rows[i] = weight_row(rng);
                            }
                        }
                    }
                    _ => {
                        *current = Some(MatchReq::fresh(rng));
                        *step = 0;
                    }
                }
                Op::Match(current.clone().expect("session started above"))
            }
            Kind::Rw { shared, pending } => {
                if rng.gen_bool(MUTATION_SHARE) {
                    let (seq, m) = shared.begin_mutation();
                    *pending = Pending::Mutate(seq, m.clone());
                    Op::Mutate(m)
                } else {
                    let shape = rng.gen_range(0..HOT_SHAPES);
                    *pending = Pending::Match {
                        shape: shape as u16,
                        lo: shared.acked.load(Ordering::SeqCst) as u32,
                    };
                    Op::Match(shared.hot[shape].clone())
                }
            }
        }
    }

    /// Feed the reply to the last op back; returns what the checker
    /// needs about it.
    pub fn observe(&mut self, reply: &Reply) -> Entry {
        let mut entry = Entry {
            digest: match reply {
                Reply::Matched(pairs) => Some(digest(pairs)),
                _ => None,
            },
            failed: matches!(reply, Reply::Failed),
            mutation: matches!(reply, Reply::Acked(_)),
            oid: match reply {
                Reply::Acked(oid) => *oid,
                _ => None,
            },
            shape: 0,
            lo: 0,
            hi: 0,
        };
        match &mut self.kind {
            Kind::Cold => {}
            Kind::Refine { current, last, .. } => match reply {
                Reply::Matched(pairs) => last.clone_from(pairs),
                // A failed step ends its session.
                _ => *current = None,
            },
            Kind::Rw { shared, pending } => match std::mem::replace(pending, Pending::None) {
                Pending::Match { shape, lo } => {
                    entry.shape = shape;
                    entry.lo = lo;
                    entry.hi = shared.sent.load(Ordering::SeqCst) as u32;
                }
                Pending::Mutate(seq, m) => {
                    entry.mutation = true;
                    entry.lo = seq;
                    shared.end_mutation(&m, reply);
                }
                Pending::None => {}
            },
        }
        entry
    }
}
