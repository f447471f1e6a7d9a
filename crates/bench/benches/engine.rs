//! Engine-throughput benchmark: the flat double-buffered message plane vs
//! the pre-refactor boxed engine (`congest_bench::legacy`), on sustained
//! flood and Bellman–Ford workloads at n = 2^12 and n = 2^15 (the larger
//! size answers the ROADMAP question of where the persistent worker pool
//! starts paying off).
//!
//! Run with `cargo bench -p congest_bench --bench engine`. Set
//! `BENCH_ENGINE_JSON=path` to additionally write the measured numbers as
//! JSON (this is how `BENCH_engine.json` at the repo root is produced).
//!
//! Both workloads are implemented twice — once per engine interface — with
//! identical logic, and the harness asserts both engines compute identical
//! (rounds, messages) before timing anything.
//!
//! A third workload times the flood primitive itself in the shape of
//! Algorithm 1 Step 4 (see [`Step4Item`]), with integer and real weights,
//! against the same items hashed by Debug-formatting their distance.

use congest_bench::legacy::{legacy_run, LegacyEnvelope, LegacyLogic, LegacyOutbox};
use congest_graph::generators::{gnm_connected, WeightDist};
use congest_graph::{NodeId, Weight, F64};
use congest_sim::primitives::{all_to_all_broadcast, FloodItem};
use congest_sim::{Engine, Envelope, NodeEnv, NodeLogic, Outbox, RunUntil, SimConfig, Topology};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

const SIZES: &[usize] = &[1 << 12, 1 << 15];
const WAVES: u32 = 64;
const BF_ROUNDS: u64 = 48;

/// Deterministic per-channel weight for the BF workload (both engines see
/// the same function of the endpoint ids).
fn edge_weight(u: NodeId, v: NodeId) -> u64 {
    let x = (u64::from(u.min(v)) << 32) | u64::from(u.max(v));
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    1 + (z % 16)
}

// ---------------------------------------------------------------------
// Wave-flood workload: the root injects WAVES tokens; every node forwards
// each token once on every channel, one token per channel per round —
// sustained ~2m messages per round for ~WAVES + diameter rounds.
// ---------------------------------------------------------------------

struct WaveFlood {
    is_root: bool,
    seen: Vec<bool>,
    queue: VecDeque<u32>,
}

impl WaveFlood {
    fn new(is_root: bool) -> Self {
        WaveFlood { is_root, seen: vec![false; WAVES as usize], queue: VecDeque::new() }
    }

    fn receive(&mut self, wave: u32) {
        if !self.seen[wave as usize] {
            self.seen[wave as usize] = true;
            self.queue.push_back(wave);
        }
    }

    fn inject(&mut self, round: u64) {
        if self.is_root && round < u64::from(WAVES) {
            self.receive(round as u32);
        }
    }

    fn busy(&self) -> bool {
        !self.queue.is_empty() || (self.is_root && !self.seen[WAVES as usize - 1])
    }
}

impl NodeLogic for WaveFlood {
    type Msg = u32;
    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<u32>], out: &mut Outbox<'_, u32>) {
        self.inject(env.round);
        for e in inbox {
            self.receive(e.msg);
        }
        if let Some(w) = self.queue.pop_front() {
            out.broadcast(w);
        }
    }
    fn active(&self) -> bool {
        self.busy()
    }
}

impl LegacyLogic for WaveFlood {
    type Msg = u32;
    fn on_round(
        &mut self,
        _id: NodeId,
        round: u64,
        _neighbors: &[NodeId],
        inbox: &[LegacyEnvelope<u32>],
        out: &mut LegacyOutbox<'_, u32>,
    ) {
        self.inject(round);
        for e in inbox {
            self.receive(e.msg);
        }
        if let Some(w) = self.queue.pop_front() {
            out.broadcast(w);
        }
    }
    fn active(&self) -> bool {
        self.busy()
    }
}

// ---------------------------------------------------------------------
// Bellman–Ford workload: weighted relaxation over the communication graph
// from node 0; a node whose distance improved broadcasts it next round.
// ---------------------------------------------------------------------

struct BfRelax {
    dist: u64,
    dirty: bool,
    rounds_left: u64,
}

impl BfRelax {
    fn new(id: NodeId) -> Self {
        let dist = if id == 0 { 0 } else { u64::MAX };
        BfRelax { dist, dirty: id == 0, rounds_left: BF_ROUNDS }
    }

    fn relax(&mut self, via: u64) {
        if via < self.dist {
            self.dist = via;
            self.dirty = true;
        }
    }

    fn step(&mut self) -> bool {
        self.rounds_left = self.rounds_left.saturating_sub(1);
        let fire = self.dirty && self.rounds_left > 0;
        if fire {
            self.dirty = false;
        }
        fire
    }
}

impl NodeLogic for BfRelax {
    type Msg = u64;
    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<u64>], out: &mut Outbox<'_, u64>) {
        for e in inbox {
            let w = edge_weight(env.id, e.from);
            self.relax(e.msg.saturating_add(w));
        }
        let dist = self.dist;
        if self.step() {
            out.broadcast(dist);
        }
    }
    fn active(&self) -> bool {
        self.rounds_left > 0
    }
}

impl LegacyLogic for BfRelax {
    type Msg = u64;
    fn on_round(
        &mut self,
        id: NodeId,
        _round: u64,
        _neighbors: &[NodeId],
        inbox: &[LegacyEnvelope<u64>],
        out: &mut LegacyOutbox<'_, u64>,
    ) {
        for e in inbox {
            let w = edge_weight(id, e.from);
            self.relax(e.msg.saturating_add(w));
        }
        let dist = self.dist;
        if self.step() {
            out.broadcast(dist);
        }
    }
    fn active(&self) -> bool {
        self.rounds_left > 0
    }
}

// ---------------------------------------------------------------------
// Step-4-shaped flood: Algorithm 1 Step 4 broadcasts the |Q|×|Q| matrix of
// δ_h(c, c′) with the pipelined flood primitive (Lemma A.2). Each of the
// |Q| blockers seeds its row, so every node's log ends with |Q|² items of
// three words each: (from, to, distance).
// ---------------------------------------------------------------------

const STEP4_N: usize = 256;
const STEP4_Q: usize = 42;

/// One δ_h(c, c′) entry, hashed by value (`Weight: Hash`).
#[derive(Clone, PartialEq, Eq, Hash)]
struct Step4Item<W> {
    from: u32,
    to: u32,
    dist: W,
}

/// The same entry hashed by Debug-formatting the distance, as flood
/// payloads were before weights were `Hash`: the comparison point.
#[derive(Clone, PartialEq, Eq)]
struct DebugHashed<W>(Step4Item<W>);

impl<W: Weight> Hash for DebugHashed<W> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.from.hash(state);
        self.0.to.hash(state);
        format!("{:?}", self.0.dist).hash(state);
    }
}

/// Seeds row `i` of the matrix at every `n / |Q|`-th node.
fn step4_initial<T>(dist: impl Fn(u32, u32) -> T) -> Vec<Vec<T>> {
    let mut initial: Vec<Vec<T>> = (0..STEP4_N).map(|_| Vec::new()).collect();
    for i in 0..STEP4_Q as u32 {
        let row = (0..STEP4_Q as u32).map(|j| dist(i, j)).collect();
        initial[i as usize * (STEP4_N / STEP4_Q)] = row;
    }
    initial
}

fn step4_u64(i: u32, j: u32) -> Step4Item<u64> {
    Step4Item { from: i, to: j, dist: 13 * edge_weight(i, j + 1000) }
}

fn step4_f64(i: u32, j: u32) -> Step4Item<F64> {
    Step4Item { from: i, to: j, dist: F64::new(edge_weight(i, j + 1000) as f64 / 3.0) }
}

fn run_step4<T: FloodItem>(topo: &Topology, initial: Vec<Vec<T>>) -> (u64, u64) {
    let (_, report) = all_to_all_broadcast(topo, flat_seq(), initial, 3).unwrap();
    (report.rounds, report.messages)
}

struct Step4Weight {
    weight: &'static str,
    value_hash_ns: f64,
    debug_hash_ns: f64,
}

struct Step4Measured {
    rounds: u64,
    messages: u64,
    weights: Vec<Step4Weight>,
}

fn measure_step4(c: &mut Criterion) -> Step4Measured {
    let topo = workload_topo(STEP4_N);
    let (rounds, messages) = run_step4(&topo, step4_initial(step4_u64));
    for rm in [
        run_step4(&topo, step4_initial(|i, j| DebugHashed(step4_u64(i, j)))),
        run_step4(&topo, step4_initial(step4_f64)),
        run_step4(&topo, step4_initial(|i, j| DebugHashed(step4_f64(i, j)))),
    ] {
        assert_eq!(rm, (rounds, messages), "step4 flood: hashing changed the simulation");
    }

    let group_name = format!("step4-flood-n{STEP4_N}-q{STEP4_Q}");
    let mut group = c.benchmark_group(&group_name);
    group.sample_size(5).measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("u64/value-hash", |b| {
        b.iter(|| run_step4(&topo, step4_initial(step4_u64)))
    });
    group.bench_function("u64/debug-hash", |b| {
        b.iter(|| run_step4(&topo, step4_initial(|i, j| DebugHashed(step4_u64(i, j)))))
    });
    group.bench_function("f64/value-hash", |b| {
        b.iter(|| run_step4(&topo, step4_initial(step4_f64)))
    });
    group.bench_function("f64/debug-hash", |b| {
        b.iter(|| run_step4(&topo, step4_initial(|i, j| DebugHashed(step4_f64(i, j)))))
    });
    group.finish();

    let median = |suffix: &str| -> f64 {
        c.results
            .iter()
            .find(|(name, _)| name.starts_with(&group_name) && name.ends_with(suffix))
            .map_or(0.0, |(_, s)| s.median_ns)
    };
    let weights: Vec<Step4Weight> = ["u64", "f64"]
        .into_iter()
        .map(|weight| Step4Weight {
            weight,
            value_hash_ns: median(&format!("{weight}/value-hash")),
            debug_hash_ns: median(&format!("{weight}/debug-hash")),
        })
        .filter(|w| w.value_hash_ns > 0.0 && w.debug_hash_ns > 0.0)
        .collect();
    for w in &weights {
        println!(
            "step4 flood n={STEP4_N} |Q|={STEP4_Q} {}: rounds={rounds} messages={messages} | value hash {:.2} ms ({:.0} ns/msg) | debug hash {:.2} ms ({:.0} ns/msg)",
            w.weight,
            w.value_hash_ns / 1e6,
            w.value_hash_ns / messages as f64,
            w.debug_hash_ns / 1e6,
            w.debug_hash_ns / messages as f64,
        );
    }
    Step4Measured { rounds, messages, weights }
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn workload_topo(n: usize) -> Topology {
    Topology::from_graph(&gnm_connected(n, 2 * n, false, WeightDist::Unit, 7))
}

/// Sequential flat-plane configuration.
fn flat_seq() -> SimConfig {
    SimConfig { parallel_threshold: usize::MAX, ..Default::default() }
}

/// Parallel flat-plane configuration (auto worker count).
fn flat_par() -> SimConfig {
    SimConfig { parallel_threshold: 1, ..Default::default() }
}

fn run_flat<L: NodeLogic>(
    topo: &Topology,
    cfg: SimConfig,
    mut mk: impl FnMut() -> Vec<L>,
) -> (u64, u64) {
    let engine = Engine::new(topo, cfg);
    let report = engine.run(&mut mk(), RunUntil::Quiesce { max: 100_000 }).unwrap();
    (report.rounds, report.messages)
}

struct MeasuredWorkload {
    name: &'static str,
    rounds: u64,
    messages: u64,
    legacy_ns: f64,
    flat_seq_ns: f64,
    flat_par_ns: f64,
}

struct MeasuredSize {
    n: usize,
    workloads: Vec<MeasuredWorkload>,
}

fn measure_size(c: &mut Criterion, n: usize) -> MeasuredSize {
    let topo = workload_topo(n);

    // -------- cross-check both engines before timing --------
    let mk_flood = || (0..n).map(|i| WaveFlood::new(i == 0)).collect::<Vec<_>>();
    let (fr, fm) = {
        let mut nodes = mk_flood();
        legacy_run(&topo, 1, &mut nodes, 100_000)
    };
    assert_eq!((fr, fm), run_flat(&topo, flat_seq(), mk_flood), "flood: engines disagree");
    assert_eq!((fr, fm), run_flat(&topo, flat_par(), mk_flood), "flood: parallel disagrees");

    let mk_bf = || (0..n).map(|i| BfRelax::new(i as NodeId)).collect::<Vec<_>>();
    let (br, bm) = {
        let mut nodes = mk_bf();
        legacy_run(&topo, 1, &mut nodes, 100_000)
    };
    assert_eq!((br, bm), run_flat(&topo, flat_seq(), mk_bf), "bf: engines disagree");
    assert_eq!((br, bm), run_flat(&topo, flat_par(), mk_bf), "bf: parallel disagrees");

    // -------- timing --------
    let group_name = format!("engine-n{n}");
    let mut group = c.benchmark_group(&group_name);
    group.sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("flood/legacy-boxed", |b| {
        b.iter(|| {
            let mut nodes = mk_flood();
            legacy_run(&topo, 1, &mut nodes, 100_000)
        })
    });
    group.bench_function("flood/flat-seq", |b| b.iter(|| run_flat(&topo, flat_seq(), mk_flood)));
    group.bench_function("flood/flat-par", |b| b.iter(|| run_flat(&topo, flat_par(), mk_flood)));
    group.bench_function("bf/legacy-boxed", |b| {
        b.iter(|| {
            let mut nodes = mk_bf();
            legacy_run(&topo, 1, &mut nodes, 100_000)
        })
    });
    group.bench_function("bf/flat-seq", |b| b.iter(|| run_flat(&topo, flat_seq(), mk_bf)));
    group.bench_function("bf/flat-par", |b| b.iter(|| run_flat(&topo, flat_par(), mk_bf)));
    group.finish();

    let median = |suffix: &str| -> f64 {
        c.results
            .iter()
            .find(|(name, _)| name.starts_with(&group_name) && name.ends_with(suffix))
            .map_or(0.0, |(_, s)| s.median_ns)
    };
    let workloads = vec![
        MeasuredWorkload {
            name: "flood",
            rounds: fr,
            messages: fm,
            legacy_ns: median("flood/legacy-boxed"),
            flat_seq_ns: median("flood/flat-seq"),
            flat_par_ns: median("flood/flat-par"),
        },
        MeasuredWorkload {
            name: "bellman_ford",
            rounds: br,
            messages: bm,
            legacy_ns: median("bf/legacy-boxed"),
            flat_seq_ns: median("bf/flat-seq"),
            flat_par_ns: median("bf/flat-par"),
        },
    ];

    for w in &workloads {
        if w.flat_seq_ns == 0.0 || w.flat_par_ns == 0.0 {
            continue; // filtered out on this run
        }
        println!(
            "n={n} {}: rounds={} messages={} | legacy {:.2} ms | flat-seq {:.2} ms ({:.2}x) | flat-par {:.2} ms ({:.2}x, par-vs-seq {:.2}x)",
            w.name,
            w.rounds,
            w.messages,
            w.legacy_ns / 1e6,
            w.flat_seq_ns / 1e6,
            w.legacy_ns / w.flat_seq_ns,
            w.flat_par_ns / 1e6,
            w.legacy_ns / w.flat_par_ns,
            w.flat_seq_ns / w.flat_par_ns,
        );
    }

    MeasuredSize { n, workloads }
}

fn bench_engine(c: &mut Criterion) {
    let sizes: Vec<MeasuredSize> = SIZES.iter().map(|&n| measure_size(c, n)).collect();
    let step4 = measure_step4(c);

    if let Ok(path) = std::env::var("BENCH_ENGINE_JSON") {
        use congest_telemetry::json::{obj, Json};
        let ms = |ns: f64| Json::F64((ns / 1e6 * 1000.0).round() / 1000.0);
        let ratio = |a: f64, b: f64| Json::F64((a / b * 100.0).round() / 100.0);
        let sizes_json: Vec<Json> = sizes
            .iter()
            .map(|size| {
                // A name filter (`cargo bench ... -- <substring>`) leaves
                // skipped benchmarks with 0.0 medians; emitting those would
                // put NaN/inf ratios in the JSON, so drop them like the
                // console summary does.
                let workloads: Vec<Json> = size
                    .workloads
                    .iter()
                    .filter(|w| w.legacy_ns > 0.0 && w.flat_seq_ns > 0.0 && w.flat_par_ns > 0.0)
                    .map(|w| {
                        obj(vec![
                            ("name", Json::from(w.name)),
                            ("rounds", Json::U64(w.rounds)),
                            ("messages", Json::U64(w.messages)),
                            ("legacy_boxed_ms", ms(w.legacy_ns)),
                            ("flat_seq_ms", ms(w.flat_seq_ns)),
                            ("flat_par_ms", ms(w.flat_par_ns)),
                            ("speedup_flat_seq_vs_legacy", ratio(w.legacy_ns, w.flat_seq_ns)),
                            ("speedup_flat_par_vs_legacy", ratio(w.legacy_ns, w.flat_par_ns)),
                            ("speedup_flat_par_vs_flat_seq", ratio(w.flat_seq_ns, w.flat_par_ns)),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("n", Json::from(size.n)),
                    ("extra_edges", Json::from(2 * size.n)),
                    ("workloads", Json::Arr(workloads)),
                ])
            })
            .collect();
        let step4_json = obj(vec![
            ("n", Json::from(STEP4_N)),
            ("q", Json::from(STEP4_Q)),
            ("log_items", Json::from(STEP4_Q * STEP4_Q)),
            ("item_words", Json::U64(3)),
            ("rounds", Json::U64(step4.rounds)),
            ("messages", Json::U64(step4.messages)),
            (
                "weights",
                Json::Arr(
                    step4
                        .weights
                        .iter()
                        .map(|w| {
                            let per_msg = |ns: f64| {
                                Json::F64((ns / step4.messages as f64 * 10.0).round() / 10.0)
                            };
                            obj(vec![
                                ("weight", Json::from(w.weight)),
                                ("value_hash_ms", ms(w.value_hash_ns)),
                                ("debug_hash_ms", ms(w.debug_hash_ns)),
                                ("value_hash_ns_per_msg", per_msg(w.value_hash_ns)),
                                ("debug_hash_ns_per_msg", per_msg(w.debug_hash_ns)),
                                ("speedup_value_vs_debug", ratio(w.debug_hash_ns, w.value_hash_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        congest_telemetry::Manifest::new("bench-engine")
            .field(
                "benchmark",
                Json::from("engine message plane: legacy boxed vs flat double-buffered"),
            )
            .field(
                "knobs",
                obj(vec![
                    ("waves", Json::from(WAVES)),
                    ("bf_rounds", Json::U64(BF_ROUNDS)),
                    ("graph", Json::from("gnm_connected(n, 2n, unit weights, seed 7)")),
                    ("available_parallelism", Json::from(parallelism)),
                ]),
            )
            .field("sizes", Json::Arr(sizes_json))
            .field("step4_flood", step4_json)
            .write(&path)
            .expect("write BENCH_ENGINE_JSON");
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
