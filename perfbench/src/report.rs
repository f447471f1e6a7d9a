//! Metric catalogue and the result line every run ends with.
//!
//! `BENCHMARK.json` names the same metrics; a run prints every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run). A per-layer metric a workload does not exercise reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("success_rate", "fraction"),
    ("mean_heap_mb", "MiB"),
];

/// Leading tokens of the solver's phase labels (`step2/alg2: ...` →
/// `step2`); every Ar20 phase maps to exactly one of them.
pub const PHASES: &[&str] =
    &["step1", "step2", "step3", "step4", "step5", "step6", "step7", "bottleneck"];

/// Spans the benchmark opens around calls into a layer.
pub const LAYER_SPANS: &[&str] = &[
    "graph.generate",
    "graph.reference_apsp",
    "oracle.build",
    "oracle.save",
    "serve.bind",
    "apsp.solve",
    "serve.batch",
    "oracle.replay",
];

/// Per-layer metrics that are not generated from [`PHASES`] or
/// [`LAYER_SPANS`]: `(name, unit)`.
const LAYER_FIXED: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.reference_apsp_s", "s"),
    ("apsp.rounds", "count"),
    ("apsp.messages", "count"),
    ("apsp.unattributed_s", "s"),
    ("apsp.blocker.q_size", "count"),
    ("apsp.step6.round_robin_rounds", "count"),
    ("derand.alg2.selection_steps", "count"),
    ("derand.alg2.singleton_picks", "count"),
    ("derand.alg2.sample_points_examined", "count"),
    ("derand.alg2.fallbacks", "count"),
    ("sim.messages_per_s", "1/s"),
    ("sim.payload_words", "count"),
    ("sim.peak_in_flight", "count"),
    ("oracle.build_s", "s"),
    ("oracle.save_s", "s"),
    ("oracle.open_s", "s"),
    ("serve.bind_s", "s"),
    ("oracle.engine.dist_ns", "ns"),
    ("oracle.engine.path_ns", "ns"),
    ("oracle.engine.k_nearest_ns", "ns"),
    ("oracle.engine.path_cache_hit_rate", "fraction"),
    ("oracle.paged.block_hit_rate", "fraction"),
    ("oracle.paged.misses", "count"),
    ("oracle.paged.evictions", "count"),
    ("oracle.paged.validations", "count"),
    ("oracle.paged.ns_per_miss", "ns"),
    ("serve.overhead_ns_per_req", "ns"),
    ("serve.shed_busy", "count"),
    ("serve.shed_overloaded", "count"),
    ("telemetry.overhead_frac", "fraction"),
    ("telemetry.dropped_spans", "count"),
];

/// Every per-layer metric, in print order: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for p in PHASES {
        out.push((format!("apsp.{p}.rounds"), "count"));
        out.push((format!("apsp.{p}.messages"), "count"));
        out.push((format!("apsp.{p}.wall_s"), "s"));
    }
    for s in LAYER_SPANS {
        out.push((format!("{s}.self_s"), "s"));
    }
    out
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Every checked answer was right (and every exact count repeated).
    pub correct: bool,
    /// Operations attempted: solves on solve-*, queries on serve-*.
    pub attempted: u64,
    /// Operations that failed: wrong answers, typed errors and sheds.
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome { correct: true, ..Default::default() }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// A human-readable line printed before the result (provenance,
    /// sample counts, exact counts, failure reasons).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check: the run is no longer correct.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.note(format!("CHECK FAILED: {}", why.into()));
    }

    /// Prints the notes, one `name = value unit` line per metric, and the
    /// one-line JSON result last.
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        let mut fields = Vec::with_capacity(catalogue.len());
        for (name, unit) in &catalogue {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            println!("{name} = {v} {unit}");
            fields.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
        assert_eq!(median(&[]), 0.0);
    }
}
