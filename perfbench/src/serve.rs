//! serve-eager and serve-paged: a distance oracle built the way
//! `congest-serve make-snapshot --format v2` builds one, saved, served
//! in-process over TCP, and driven by a closed loop of pipelined batches.

use crate::check::{self, Op, Tally, Verdict};
use crate::report::{median, quantile, Outcome};
use crate::{mix, sys, trace, Args};
use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::NodeId;
use congest_oracle::{
    EngineConfig, Oracle, PagedConfig, PagedOracle, PagedStats, QueryEngine, V2Config,
};
use congest_serve::{BackendMode, Client, Server, ServerConfig, ServerHandle};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 2048;
const EDGES: usize = 8192;
const MAX_WEIGHT: u64 = 100;
/// Rows per v2 block (the `make-snapshot` default).
const BLOCK_ROWS: u32 = 64;
/// Distinct routes the Zipf-skewed pairs are drawn from.
const ZIPF_ROUTES: usize = 1 << 20;
/// `k` of every `k_nearest` request.
const K: u32 = 8;
/// Server set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Closed-loop traffic before the measured window, so that the path
/// cache and the paged resident set fill first (answers still checked).
const WARMUP: Duration = Duration::from_secs(2);
/// Batches per connection the traced run sends at most (keeps its spans
/// inside the telemetry ring); connection 0's are replayed in-process.
const TRACED_BATCHES: usize = 4096;

/// Which backend the server opens the snapshot with.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Fully resident; Zipf(1.0) pairs, batches of 64.
    Eager,
    /// Paged under a resident budget of a quarter of the file; uniform
    /// pairs, batches of 16.
    Paged,
}

impl Mode {
    fn batch(self) -> usize {
        match self {
            Mode::Eager => 64,
            Mode::Paged => 16,
        }
    }

    /// Client connections, one thread each. Two clients plus the two
    /// server handlers oversubscribe a two-core host, which made
    /// serve-eager's throughput swing by ±15% between runs; one client
    /// keeps the ping-pong on its own core. The paged workload's batches
    /// are server-bound, so two clients stay steady there and double the
    /// round-trip samples.
    fn clients(self) -> usize {
        match self {
            Mode::Eager => 1,
            Mode::Paged => sys::parallelism().min(2),
        }
    }

    fn backend(self, file_bytes: u64) -> BackendMode {
        match self {
            Mode::Eager => BackendMode::Eager,
            Mode::Paged => BackendMode::Paged { resident_bytes: (file_bytes / 4) as usize },
        }
    }
}

/// splitmix64: the request streams' generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }
}

/// Cumulative Zipf(s = 1) weights over [`ZIPF_ROUTES`] ranks.
fn zipf_cdf() -> Vec<f64> {
    let mut total = 0.0;
    (1..=ZIPF_ROUTES)
        .map(|r| {
            total += 1.0 / r as f64;
            total
        })
        .collect()
}

/// The request stream of one connection: a pure function of the
/// workload seed and the connection index.
struct Requests<'a> {
    rng: Rng,
    seed: u64,
    zipf: Option<&'a [f64]>,
    batch: usize,
}

impl<'a> Requests<'a> {
    fn new(mode: Mode, seed: u64, conn: usize, zipf: &'a [f64]) -> Self {
        Requests {
            rng: Rng(mix(seed ^ (0xC0DE_0000 + conn as u64))),
            seed,
            zipf: (mode == Mode::Eager).then_some(zipf),
            batch: mode.batch(),
        }
    }

    fn pair(&mut self) -> (NodeId, NodeId) {
        let n = NODES as u64;
        let h = match self.zipf {
            Some(cdf) => {
                let total = cdf[cdf.len() - 1];
                let x = (self.rng.next() >> 11) as f64 / (1u64 << 53) as f64 * total;
                let rank = cdf.partition_point(|&c| c < x).min(cdf.len() - 1);
                mix(self.seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ rank as u64)
            }
            None => self.rng.next(),
        };
        ((h % n) as NodeId, ((h >> 32) % n) as NodeId)
    }

    /// One batch: each group of eight slots is seven `dist` and one
    /// `path`, and slot 0 is a `k_nearest` in place of a `dist` (64 →
    /// 55 dist, 8 path, 1 k-nearest; 16 → 13, 2, 1).
    fn next_batch(&mut self) -> Vec<Op> {
        (0..self.batch)
            .map(|i| {
                let (u, v) = self.pair();
                if i == 0 {
                    Op::KNearest(u, K)
                } else if i % 8 == 7 {
                    Op::Path(u, v)
                } else {
                    Op::Dist(u, v)
                }
            })
            .collect()
    }
}

/// Timings of the calls one set-up makes, seconds.
#[derive(Copy, Clone, Default)]
struct SetupTimes {
    generate: f64,
    reference_apsp: f64,
    build: f64,
    save: f64,
    bind: f64,
    total: f64,
}

/// A bound server and the reference it is checked against.
struct Served {
    server: ServerHandle<u64>,
    reference: Oracle<u64>,
    file_bytes: u64,
    times: SetupTimes,
}

fn timed<R>(slot: &mut f64, name: &str, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = trace::within(name, "bench.setup", f);
    *slot = t.elapsed().as_secs_f64();
    r
}

/// From seed to ready: graph, reference APSP, `Oracle::from_dist`,
/// `save_v2` and `Server::bind_snapshot`.
fn setup(mode: Mode, seed: u64, snapshot: &Path) -> Served {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let g = timed(&mut times.generate, "graph.generate", || {
        gnm_connected(NODES, EDGES, true, WeightDist::Uniform(1, MAX_WEIGHT), seed)
    });
    let dist = timed(&mut times.reference_apsp, "graph.reference_apsp", || apsp_dijkstra(&g));
    let reference = timed(&mut times.build, "oracle.build", || Oracle::from_dist(&g, dist));
    let cfg = V2Config { block_rows: BLOCK_ROWS, drop_successors: false, graph: Some(&g) };
    timed(&mut times.save, "oracle.save", || reference.save_v2(snapshot, &cfg))
        .expect("save the v2 snapshot");
    let file_bytes = std::fs::metadata(snapshot).expect("snapshot written").len();
    let cfg = ServerConfig { backend: mode.backend(file_bytes), ..ServerConfig::default() };
    let server = timed(&mut times.bind, "serve.bind", || {
        Server::bind_snapshot::<u64>("127.0.0.1:0", snapshot, cfg)
    })
    .expect("bind the server");
    times.total = t.elapsed().as_secs_f64();
    Served { server, reference, file_bytes, times }
}

fn stop(server: ServerHandle<u64>) {
    server.shutdown();
    server.join();
}

/// One batch as sent, with its measured round trip.
struct Sent {
    ops: Vec<Op>,
    rtt_ns: u64,
}

/// What one client connection saw.
#[derive(Default)]
struct ConnLoad {
    rtts_ns: Vec<u64>,
    tally: Tally,
    kept: Vec<Sent>,
    error: Option<String>,
}

/// Drives one connection: build a batch, send it, wait for every reply
/// (the round-trip clock), then check the replies. Batches that start
/// before `t0` warm up and are checked but not sampled; with `keep`,
/// the sampled batches are kept for the replay.
fn drive(
    addr: std::net::SocketAddr,
    reference: &Oracle<u64>,
    mut reqs: Requests<'_>,
    t0: Instant,
    budget: Duration,
    max_batches: usize,
    keep: bool,
) -> ConnLoad {
    let mut load = ConnLoad::default();
    let mut client = match Client::<u64>::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            load.error = Some(format!("connect: {e}"));
            return load;
        }
    };
    loop {
        let now = Instant::now();
        let warm = now >= t0;
        if warm && (now - t0 >= budget || load.rtts_ns.len() >= max_batches) {
            break;
        }
        let ops = reqs.next_batch();
        let span = trace::open("serve.batch", "bench.measure");
        let t = Instant::now();
        let mut batch = client.batch();
        for &op in &ops {
            match op {
                Op::Dist(u, v) => batch.dist(u, v),
                Op::Path(u, v) => batch.path(u, v),
                Op::KNearest(u, k) => batch.k_nearest(u, k),
            };
        }
        let replies = batch.send();
        let rtt_ns = t.elapsed().as_nanos() as u64;
        drop(span);
        match replies {
            Ok(replies) => {
                for (&op, r) in ops.iter().zip(&replies) {
                    load.tally.record(check::reply_verdict(reference, op, r));
                }
                load.tally.record_lost(ops.len().saturating_sub(replies.len()) as u64);
            }
            Err(e) => {
                load.tally.record_lost(ops.len() as u64);
                load.error = Some(format!("batch: {e}"));
                break;
            }
        }
        if !warm {
            continue;
        }
        load.rtts_ns.push(rtt_ns);
        if keep {
            load.kept.push(Sent { ops, rtt_ns });
        }
    }
    load
}

/// The closed loop: [`Mode::clients`] client threads, one connection
/// each, for [`WARMUP`] and then `budget`. A `cap` marks the traced
/// run's loops: they skip the warm-up (its traffic would flood the span
/// ring), stop each connection after that many sampled batches, and keep
/// connection 0's batches for the replay.
struct Loop {
    rtts_ns: Vec<u64>,
    tally: Tally,
    wall_s: f64,
    conns: usize,
    kept: Vec<Sent>,
}

fn closed_loop(
    mode: Mode,
    seed: u64,
    served: &Served,
    zipf: &[f64],
    budget: Duration,
    cap: Option<usize>,
    out: &mut Outcome,
) -> Loop {
    let conns = mode.clients();
    let addr = served.server.local_addr();
    let t = Instant::now() + if cap.is_some() { Duration::ZERO } else { WARMUP };
    let loads: Vec<ConnLoad> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let reqs = Requests::new(mode, seed, c, zipf);
                let (max, keep) = (cap.unwrap_or(usize::MAX), c == 0 && cap.is_some());
                let reference = &served.reference;
                s.spawn(move || drive(addr, reference, reqs, t, budget, max, keep))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut lp =
        Loop { rtts_ns: Vec::new(), tally: Tally::default(), wall_s, conns, kept: Vec::new() };
    for (c, load) in loads.into_iter().enumerate() {
        if let Some(e) = load.error {
            out.note(format!("connection {c}: {e}"));
        }
        lp.rtts_ns.extend(load.rtts_ns);
        lp.tally.merge(&load.tally);
        if c == 0 {
            lp.kept = load.kept;
        }
    }
    if lp.tally.wrong > 0 {
        out.fail(format!("{} wrong answers", lp.tally.wrong));
    }
    out.attempted += lp.tally.attempted;
    out.failed += lp.tally.failed();
    lp
}

impl Loop {
    /// Batch round trips, ms.
    fn rtts_ms(&self) -> Vec<f64> {
        self.rtts_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

/// `Health` op counters after a loop.
fn shed_counts(served: &Served) -> (u64, u64) {
    match Client::<u64>::connect(served.server.local_addr()).and_then(|mut c| c.health()) {
        Ok((_, h)) => (h.shed_busy, h.shed_overloaded),
        Err(_) => (0, 0),
    }
}

pub fn run(mode: Mode, args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let dir = args.out_dir();
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    let snapshot = dir.join(format!("{}-seed{}.snap", args.workload, args.seed));
    let zipf = zipf_cdf();
    if args.trace {
        run_traced(mode, args, &snapshot, &zipf, &mut out);
    } else {
        run_untraced(mode, args, &snapshot, &zipf, &mut out);
    }
    let _ = std::fs::remove_file(&snapshot);
    out
}

fn provenance(mode: Mode, args: &Args, served: &Served, out: &mut Outcome) {
    let arena = (NODES * NODES * 12) as u64; // u64 distances + u32 successors
    let llc = sys::llc_bytes();
    out.note(format!(
        "provenance: workload={} seed={} n={NODES} m={EDGES} weights=Uniform(1,{MAX_WEIGHT}) \
         parallelism={} clients={} batch={} pairs={} snapshot_bytes={} eager_arena_bytes={arena} \
         llc_bytes={} arena_fits_llc={} backend={:?}",
        args.workload,
        args.seed,
        sys::parallelism(),
        mode.clients(),
        mode.batch(),
        if mode == Mode::Eager { "Zipf(1.0) over 2^20 routes" } else { "uniform" },
        served.file_bytes,
        llc.map_or("unknown".to_string(), |b| b.to_string()),
        llc.map_or("unknown".to_string(), |b| (arena <= b).to_string()),
        mode.backend(served.file_bytes),
    ));
}

fn run_untraced(mode: Mode, args: &Args, snapshot: &Path, zipf: &[f64], out: &mut Outcome) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut served: Option<Served> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = served.take() {
            stop(prev.server);
        }
        let s = setup(mode, args.seed, snapshot);
        setups.push(s.times.total);
        served = Some(s);
    }
    let served = served.expect("at least one setup");
    provenance(mode, args, &served, out);
    let heap = sys::HeapSampler::start();
    let lp = closed_loop(mode, args.seed, &served, zipf, args.budget(1.0), None, out);
    let (mean_heap, max_heap) = heap.stop();
    let (busy, overloaded) = shed_counts(&served);
    stop(served.server);
    let rtts = lp.rtts_ms();
    // Every batch the window sampled holds exactly `mode.batch()` queries;
    // warm-up batches are checked (and tallied) but not counted here.
    let queries = rtts.len() * mode.batch();
    out.note(format!(
        "samples: {} batches over {} connections in {:.3} s; {queries} queries measured, {} \
         checked; {} beyond p90; shed busy={busy} overloaded={overloaded}; setup: \
         {SETUP_REPS} set-ups {setups:?} s",
        rtts.len(),
        lp.conns,
        lp.wall_s,
        lp.tally.attempted,
        rtts.len() - (rtts.len() as f64 * 0.9).ceil() as usize,
    ));
    out.note(format!(
        "rtt ms: p50={:.4} p90={:.4} p99={:.4} p99.9={:.4} max={:.4}",
        median(&rtts),
        quantile(&rtts, 0.9),
        quantile(&rtts, 0.99),
        quantile(&rtts, 0.999),
        quantile(&rtts, 1.0)
    ));
    out.set("setup_s", median(&setups));
    out.set("latency_p50_ms", median(&rtts));
    out.set("latency_p90_ms", quantile(&rtts, 0.9));
    out.set("throughput_per_s", queries as f64 / lp.wall_s);
    out.set("success_rate", 1.0 - lp.tally.failed() as f64 / lp.tally.attempted.max(1) as f64);
    out.set("mean_heap_mb", mean_heap);
    out.note(format!(
        "memory: heap mean {mean_heap:.3} MiB, sampled max {max_heap:.3} MiB; peak RSS {:.3} MiB",
        sys::peak_rss_mb()
    ));
}

fn run_traced(mode: Mode, args: &Args, snapshot: &Path, zipf: &[f64], out: &mut Outcome) {
    let budget = args.budget(0.4);
    // Untraced baseline for the tracing overhead, with the same batch cap.
    let served = setup(mode, args.seed, snapshot);
    provenance(mode, args, &served, out);
    let base = closed_loop(mode, args.seed, &served, zipf, budget, Some(TRACED_BATCHES), out);
    stop(served.server);
    drop(served.reference);

    congest_telemetry::enable().clear();
    let served = setup(mode, args.seed, snapshot);
    let t = served.times;
    out.set("graph.generate_s", t.generate);
    out.set("graph.reference_apsp_s", t.reference_apsp);
    out.set("oracle.build_s", t.build);
    out.set("oracle.save_s", t.save);
    out.set("serve.bind_s", t.bind);
    let traced = {
        let _measure = trace::open("bench.measure", "");
        closed_loop(mode, args.seed, &served, zipf, budget, Some(TRACED_BATCHES), out)
    };
    let (busy, overloaded) = shed_counts(&served);
    stop(served.server);
    out.set("serve.shed_busy", busy as f64);
    out.set("serve.shed_overloaded", overloaded as f64);
    let replay = {
        let _replay = trace::open("bench.replay", "");
        replay(mode, snapshot, served.file_bytes, &traced.kept, &served.reference, out)
    };
    trace::finish(args, out);

    let p50 = |lp: &Loop| median(&lp.rtts_ms());
    out.set("telemetry.overhead_frac", p50(&traced) / p50(&base) - 1.0);
    out.note(format!(
        "samples: {} untraced and {} traced batches, {} replayed",
        base.rtts_ns.len(),
        traced.rtts_ns.len(),
        traced.kept.len()
    ));
    replay.publish(out);
}

/// In-process replay of connection 0's batches against a `QueryEngine`
/// opened the way the server opened its own.
#[derive(Default)]
struct Replay {
    open_s: f64,
    dist: (f64, u64),
    path: (f64, u64),
    k_nearest: (f64, u64),
    cache_hit_rate: f64,
    paged: Option<PagedStats>,
    wall_ns: f64,
    overhead_ns_per_req: Vec<f64>,
}

impl Replay {
    fn publish(&self, out: &mut Outcome) {
        let per = |(ns, k): (f64, u64)| if k == 0 { 0.0 } else { ns / k as f64 };
        out.set("oracle.open_s", self.open_s);
        out.set("oracle.engine.dist_ns", per(self.dist));
        out.set("oracle.engine.path_ns", per(self.path));
        out.set("oracle.engine.k_nearest_ns", per(self.k_nearest));
        out.set("oracle.engine.path_cache_hit_rate", self.cache_hit_rate);
        out.set("serve.overhead_ns_per_req", median(&self.overhead_ns_per_req));
        if let Some(p) = self.paged {
            let touched = p.hits + p.misses;
            out.set("oracle.paged.block_hit_rate", p.hits as f64 / touched.max(1) as f64);
            out.set("oracle.paged.misses", p.misses as f64);
            out.set("oracle.paged.evictions", p.evictions as f64);
            out.set("oracle.paged.validations", p.validations as f64);
            out.set("oracle.paged.ns_per_miss", self.wall_ns / p.misses.max(1) as f64);
        }
    }
}

fn replay(
    mode: Mode,
    snapshot: &Path,
    file_bytes: u64,
    batches: &[Sent],
    reference: &Oracle<u64>,
    out: &mut Outcome,
) -> Replay {
    let mut r = Replay::default();
    let t = Instant::now();
    let engine = match mode.backend(file_bytes) {
        BackendMode::Eager => Oracle::<u64>::load(snapshot)
            .map(|o| QueryEngine::new(Arc::new(o), EngineConfig::default())),
        BackendMode::Paged { resident_bytes } => {
            PagedOracle::<u64>::open(snapshot, PagedConfig { resident_bytes })
                .map(|p| QueryEngine::new_paged(Arc::new(p), EngineConfig::default()))
        }
    }
    .expect("reopen the snapshot");
    r.open_s = t.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for sent in batches {
        let dists: Vec<(NodeId, NodeId)> = sent
            .ops
            .iter()
            .filter_map(|op| if let Op::Dist(u, v) = *op { Some((u, v)) } else { None })
            .collect();
        let paths: Vec<(NodeId, NodeId)> = sent
            .ops
            .iter()
            .filter_map(|op| if let Op::Path(u, v) = *op { Some((u, v)) } else { None })
            .collect();
        let knns: Vec<(NodeId, u32)> = sent
            .ops
            .iter()
            .filter_map(|op| if let Op::KNearest(u, k) = *op { Some((u, k)) } else { None })
            .collect();
        let span = trace::open("oracle.replay", "bench.replay");
        let t0 = Instant::now();
        let d = engine.dist_batch(&dists);
        let t1 = Instant::now();
        let p = engine.path_batch(&paths);
        let t2 = Instant::now();
        let k: Vec<_> = knns.iter().map(|&(u, k)| engine.k_nearest(u, k as usize)).collect();
        let t3 = Instant::now();
        drop(span);
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
        r.dist.0 += ns(t0, t1);
        r.dist.1 += dists.len() as u64;
        r.path.0 += ns(t1, t2);
        r.path.1 += paths.len() as u64;
        r.k_nearest.0 += ns(t2, t3);
        r.k_nearest.1 += knns.len() as u64;
        let wall = ns(t0, t3);
        r.wall_ns += wall;
        r.overhead_ns_per_req.push((sent.rtt_ns as f64 - wall) / sent.ops.len() as f64);

        for (&(u, v), a) in dists.iter().zip(&d) {
            tally.record(match a {
                Ok(Some(x)) if check::dist_ok(reference, u, v, *x) => Verdict::Right,
                Ok(_) => Verdict::Wrong,
                Err(_) => Verdict::Error,
            });
        }
        for (&(u, v), a) in paths.iter().zip(&p) {
            tally.record(match a {
                Ok(Some(x)) if check::path_ok(reference, u, v, x) => Verdict::Right,
                Ok(_) => Verdict::Wrong,
                Err(_) => Verdict::Error,
            });
        }
        for (&(u, kk), a) in knns.iter().zip(&k) {
            tally.record(match a {
                Ok(x) if check::k_nearest_ok(reference, u, kk, x) => Verdict::Right,
                Ok(_) => Verdict::Wrong,
                Err(_) => Verdict::Error,
            });
        }
    }
    r.cache_hit_rate = engine.cache_stats().hit_rate();
    r.paged = engine.paged().map(|p| p.stats());
    if tally.wrong > 0 {
        out.fail(format!("{} wrong answers in the in-process replay", tally.wrong));
    }
    out.attempted += tally.attempted;
    out.failed += tally.failed();
    r
}
