//! solve-sparse and solve-broom: the paper's Algorithm 1 through the
//! public `Solver` facade, in its default (paper) configuration.

use crate::report::{median, Outcome, PHASES};
use crate::{mix, sys, trace, Args};
use congest_apsp::{ApspMeta, ApspOutcome, Solver};
use congest_graph::seq::apsp_dijkstra;
use congest_graph::{DistMatrix, Graph};
use congest_oracle::{successor_derivations, IntoOracle};
use congest_sim::Recorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Which graph family a solve workload runs on.
#[derive(Copy, Clone, Debug)]
pub enum Family {
    /// `sparse_random(256, seed)`: random weighted digraph, m = 2n.
    Sparse,
    /// `hop_deep(384, seed)`: a broom whose long handle gives full
    /// h-hop paths.
    Broom,
}

impl Family {
    fn n(self) -> usize {
        match self {
            Family::Sparse => 256,
            Family::Broom => 384,
        }
    }

    fn graph(self, seed: u64) -> Graph<u64> {
        match self {
            Family::Sparse => congest_bench::workloads::sparse_random(self.n(), seed),
            Family::Broom => congest_bench::workloads::hop_deep(self.n(), seed),
        }
    }
}

/// Graphs per run. Graph 0 is `family.graph(seed)`; graph j ≥ 1 is
/// `family.graph(mix(seed + j))`. On sparse_random(256) one graph's
/// solve time swings by ±25% with its blocker-set size, so a run
/// averages over several graphs to keep its figures from hinging on one.
const GRAPHS: u64 = 4;

/// Set-ups (all graphs generated) per untraced run; `setup_s` is their
/// median.
const SETUP_REPS: usize = 101;

fn graph_seed(seed: u64, j: u64) -> u64 {
    if j == 0 {
        seed
    } else {
        mix(seed.wrapping_add(j))
    }
}

/// A graph and its reference distances.
struct Input {
    seed: u64,
    g: Graph<u64>,
    reference: DistMatrix<u64>,
}

fn inputs(family: Family, seed: u64) -> Vec<Input> {
    (0..GRAPHS)
        .map(|j| {
            let seed = graph_seed(seed, j);
            let g = family.graph(seed);
            let reference = apsp_dijkstra(&g);
            Input { seed, g, reference }
        })
        .collect()
}

/// The last solve of one graph, kept for the per-layer breakdown.
struct Detail {
    recorder: Recorder,
    meta: ApspMeta,
    wall_s: f64,
}

/// The solves of one graph in a pass.
#[derive(Default)]
struct PerGraph {
    walls: Vec<f64>,
    rounds: u64,
    messages: u64,
    last: Option<Detail>,
}

/// One pass: the graphs solved round-robin.
struct Pass {
    graphs: Vec<PerGraph>,
    solves: u64,
    failed: u64,
}

impl Pass {
    /// Per graph, the median solve time; averaged over the graphs.
    fn latency_s(&self) -> f64 {
        self.graphs.iter().map(|p| median(&p.walls)).sum::<f64>() / self.graphs.len() as f64
    }

    fn solve_time_s(&self) -> f64 {
        self.graphs.iter().flat_map(|p| &p.walls).sum()
    }
}

pub fn run(family: Family, args: &Args) -> Outcome {
    let mut out = Outcome::new();
    out.note(format!(
        "provenance: workload={} seed={} n={} graphs={GRAPHS} parallelism={} charging=Quiesce \
         algorithm=Ar20 blocker=Derandomized step6=Pipelined track_successors=true",
        args.workload,
        args.seed,
        family.n(),
        sys::parallelism()
    ));
    if args.trace {
        run_traced(family, args, &mut out);
    } else {
        run_untraced(family, args, &mut out);
    }
    out
}

fn run_untraced(family: Family, args: &Args, out: &mut Outcome) {
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let graphs: Vec<Graph<u64>> =
                (0..GRAPHS).map(|j| family.graph(graph_seed(args.seed, j))).collect();
            let s = t.elapsed().as_secs_f64();
            drop(graphs);
            s
        })
        .collect();
    let inputs = inputs(family, args.seed);
    let heap = sys::HeapSampler::start();
    let pass = solve_pass(&inputs, args.budget(1.0), out);
    let (mean_heap, max_heap) = heap.stop();
    out.note(format!(
        "samples: {} solves over {GRAPHS} graphs, {} s of solving; setup: {SETUP_REPS} set-ups",
        pass.solves,
        pass.solve_time_s()
    ));
    for (i, per) in pass.graphs.iter().enumerate() {
        out.note(format!("solve walls, graph {i}: {:?} s", per.walls));
    }
    out.note(format!(
        "memory: heap mean {mean_heap:.3} MiB, sampled max {max_heap:.3} MiB; peak RSS {:.3} MiB",
        sys::peak_rss_mb()
    ));
    let latency_ms = pass.latency_s() * 1e3;
    out.set("setup_s", median(&setups));
    out.set("latency_p50_ms", latency_ms);
    // A run holds too few solves for any tail percentile to have ten
    // samples beyond it, so the tail metric repeats the median here.
    out.set("latency_p90_ms", latency_ms);
    out.set("throughput_per_s", pass.solves as f64 / pass.solve_time_s());
    out.set("success_rate", 1.0 - pass.failed as f64 / pass.solves as f64);
    out.set("mean_heap_mb", mean_heap);
}

fn run_traced(family: Family, args: &Args, out: &mut Outcome) {
    // Untraced baseline for the tracing overhead: one solve per graph.
    let base = solve_pass(&inputs(family, args.seed), Duration::ZERO, out);

    congest_telemetry::enable().clear();
    let t = Instant::now();
    let graphs: Vec<(u64, Graph<u64>)> = (0..GRAPHS)
        .map(|j| {
            let seed = graph_seed(args.seed, j);
            (seed, trace::within("graph.generate", "bench.setup", || family.graph(seed)))
        })
        .collect();
    out.set("graph.generate_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let inputs: Vec<Input> = graphs
        .into_iter()
        .map(|(seed, g)| {
            let reference =
                trace::within("graph.reference_apsp", "bench.check", || apsp_dijkstra(&g));
            Input { seed, g, reference }
        })
        .collect();
    out.set("graph.reference_apsp_s", t.elapsed().as_secs_f64());
    let traced = {
        let _measure = trace::open("bench.measure", "");
        solve_pass(&inputs, Duration::ZERO, out)
    };
    trace::finish(args, out);

    out.set("telemetry.overhead_frac", traced.latency_s() / base.latency_s() - 1.0);
    out.note(format!("samples: {} untraced and {} traced solves", base.solves, traced.solves));
    layer_metrics(&traced, out);
}

/// Solves the graphs round-robin until `budget` has passed, each at
/// least once, checking every outcome outside the timed region.
fn solve_pass(inputs: &[Input], budget: Duration, out: &mut Outcome) -> Pass {
    let mut pass =
        Pass { graphs: inputs.iter().map(|_| PerGraph::default()).collect(), solves: 0, failed: 0 };
    let start = Instant::now();
    for (i, input) in inputs.iter().enumerate().cycle() {
        if pass.solves >= inputs.len() as u64 && start.elapsed() >= budget {
            break;
        }
        let (result, wall_s) = {
            let _span = trace::open("apsp.solve", "bench.measure");
            let t = Instant::now();
            let r = Solver::builder(&input.g).run();
            (r, t.elapsed().as_secs_f64())
        };
        pass.solves += 1;
        out.attempted += 1;
        let per = &mut pass.graphs[i];
        per.walls.push(wall_s);
        let why = match result {
            Ok(mut outcome) => {
                let counts = (outcome.recorder.total_rounds(), outcome.recorder.total_messages());
                if per.last.is_none() {
                    (per.rounds, per.messages) = counts;
                    out.note(format!(
                        "exact: graph {i} (seed {}, n={}, m={}): rounds={} messages={}",
                        input.seed,
                        input.g.n(),
                        input.g.m(),
                        counts.0,
                        counts.1
                    ));
                } else if counts != (per.rounds, per.messages) {
                    out.fail(format!("graph {i}: rounds/messages changed between solves"));
                }
                per.last = Some(Detail {
                    recorder: std::mem::take(&mut outcome.recorder),
                    meta: std::mem::take(&mut outcome.meta),
                    wall_s,
                });
                check(&input.g, &input.reference, outcome).err()
            }
            Err(e) => Some(format!("solver error: {e}")),
        };
        if let Some(why) = why {
            pass.failed += 1;
            out.failed += 1;
            out.fail(format!("graph {i}: {why}"));
        }
    }
    pass
}

/// Distances must be bit-identical to `apsp_dijkstra`; the successor
/// plane must pass `into_oracle`'s validation and be adopted, not
/// re-derived.
fn check(
    g: &Graph<u64>,
    reference: &DistMatrix<u64>,
    outcome: ApspOutcome<u64>,
) -> Result<(), String> {
    if outcome.dist != *reference {
        return Err("distances differ from apsp_dijkstra".to_string());
    }
    let before = successor_derivations();
    catch_unwind(AssertUnwindSafe(|| outcome.into_oracle(g)))
        .map_err(|_| "into_oracle rejected the successor plane".to_string())?;
    if successor_derivations() != before {
        return Err("outcome carried no successor plane; into_oracle derived one".to_string());
    }
    Ok(())
}

/// The leading token of a phase label: `step2/alg2: publish` → `step2`.
fn phase_token(label: &str) -> &str {
    label.split(['/', ':', '-', ' ', '(']).next().unwrap_or(label)
}

/// Per-layer numbers of the traced pass, summed over its graphs
/// (`sim.peak_in_flight` is the maximum).
fn layer_metrics(pass: &Pass, out: &mut Outcome) {
    let mut phases = vec![(0u64, 0u64, 0u64); PHASES.len()];
    let (mut rounds, mut messages, mut phase_wall_s, mut unattributed_s) = (0, 0, 0.0, 0.0);
    let (mut q_size, mut rr_rounds, mut payload, mut peak) = (0, 0, 0, 0);
    let mut alg2 = [0u64; 4];
    for (i, per) in pass.graphs.iter().enumerate() {
        let Some(d) = &per.last else { continue };
        for p in d.recorder.phases() {
            match PHASES.iter().position(|&t| t == phase_token(&p.name)) {
                Some(k) => {
                    phases[k].0 += p.rounds;
                    phases[k].1 += p.messages;
                    phases[k].2 += p.wall_ns;
                }
                None => out.fail(format!("phase label outside the step map: {}", p.name)),
            }
        }
        rounds += per.rounds;
        messages += per.messages;
        let wall_s = d.recorder.total_wall_ns() as f64 / 1e9;
        phase_wall_s += wall_s;
        unattributed_s += d.wall_s - wall_s;
        q_size += d.meta.q.len() as u64;
        rr_rounds += d.meta.step6.as_ref().map_or(0, |s| s.round_robin_rounds);
        payload += d.recorder.total_payload_words();
        peak = peak.max(d.recorder.phases().iter().map(|p| p.peak_in_flight).max().unwrap_or(0));
        if let Some(b) = &d.meta.blocker_stats {
            let counts =
                [b.selection_steps, b.singleton_picks, b.sample_points_examined, b.fallbacks];
            for (sum, c) in alg2.iter_mut().zip(counts) {
                *sum += c;
            }
            out.note(format!(
                "derand: graph {i}: {} of {} selection steps were singleton picks, {} sample \
                 points examined, |Q| = {}",
                b.singleton_picks,
                b.selection_steps,
                b.sample_points_examined,
                d.meta.q.len()
            ));
        }
    }
    for (name, &(r, m, w)) in PHASES.iter().zip(&phases) {
        out.set(&format!("apsp.{name}.rounds"), r as f64);
        out.set(&format!("apsp.{name}.messages"), m as f64);
        out.set(&format!("apsp.{name}.wall_s"), w as f64 / 1e9);
    }
    let phase_rounds: u64 = phases.iter().map(|p| p.0).sum();
    if phase_rounds != rounds {
        out.fail(format!("per-phase rounds sum to {phase_rounds}, total is {rounds}"));
    }
    out.set("apsp.rounds", rounds as f64);
    out.set("apsp.messages", messages as f64);
    out.set("apsp.unattributed_s", unattributed_s);
    out.set("apsp.blocker.q_size", q_size as f64);
    out.set("apsp.step6.round_robin_rounds", rr_rounds as f64);
    for (name, v) in ["selection_steps", "singleton_picks", "sample_points_examined", "fallbacks"]
        .iter()
        .zip(alg2)
    {
        out.set(&format!("derand.alg2.{name}"), v as f64);
    }
    out.set("sim.messages_per_s", messages as f64 / phase_wall_s);
    out.set("sim.payload_words", payload as f64);
    out.set("sim.peak_in_flight", peak as f64);
}
