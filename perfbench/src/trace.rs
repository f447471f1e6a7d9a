//! Spans the benchmark opens around calls into each layer, and the
//! self-time breakdown computed from them.
//!
//! Spans go to the process-global `congest_telemetry` ring (in memory)
//! and only while the plane is enabled, i.e. in the traced run. Each
//! span carries its parent's name as the `parent` attribute; the
//! solver's own phase spans nest under `apsp.solve` on the same thread.
//! Self time = span duration minus the time the spans nested inside it
//! on the same thread cover.

use crate::report::{Outcome, LAYER_SPANS};
use crate::Args;
use congest_telemetry::{SpanEvent, SpanId, SpanKind};
use std::collections::HashMap;
use std::path::Path;

/// An open span; closes (with its `parent` attribute) on drop. A no-op
/// while telemetry is disabled.
pub struct Span {
    id: Option<SpanId>,
    parent: &'static str,
}

pub fn open(name: &str, parent: &'static str) -> Span {
    Span { id: congest_telemetry::with(|t| t.span_start(name)), parent }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            congest_telemetry::global()
                .span_end_with(id, vec![("parent".to_string(), self.parent.to_string())]);
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn within<R>(name: &str, parent: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = open(name, parent);
    f()
}

/// A closed interval on one thread.
#[derive(Clone, Debug)]
struct Interval {
    name: String,
    tid: u64,
    start: u64,
    end: u64,
    id: u64,
}

/// Pairs begin/end events and takes complete events as they are.
fn intervals(events: &[SpanEvent]) -> Vec<Interval> {
    let mut open: HashMap<u64, &SpanEvent> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            SpanKind::Begin => {
                open.insert(e.id, e);
            }
            SpanKind::End => {
                if let Some(b) = open.remove(&e.id) {
                    out.push(Interval {
                        name: b.name.clone(),
                        tid: b.tid,
                        start: b.ts_ns,
                        end: e.ts_ns.max(b.ts_ns),
                        id: b.id,
                    });
                }
            }
            SpanKind::Complete => out.push(Interval {
                name: e.name.clone(),
                tid: e.tid,
                start: e.ts_ns,
                end: e.ts_ns + e.dur_ns,
                id: 0,
            }),
            SpanKind::Instant => {}
        }
    }
    out
}

/// Mean self time, seconds, of every [`LAYER_SPANS`] name the benchmark
/// opened (begin/end spans only — the server's own `serve.batch`
/// complete spans live on its handler threads and are not ours).
pub fn self_times(events: &[SpanEvent]) -> Vec<(&'static str, f64)> {
    let all = intervals(events);
    let mut by_tid: HashMap<u64, Vec<&Interval>> = HashMap::new();
    for iv in &all {
        by_tid.entry(iv.tid).or_default().push(iv);
    }
    for v in by_tid.values_mut() {
        v.sort_by_key(|iv| (iv.start, std::cmp::Reverse(iv.end)));
    }
    let mut sums: HashMap<&str, (f64, u64)> = HashMap::new();
    for iv in all.iter().filter(|iv| iv.id != 0) {
        let Some(&name) = LAYER_SPANS.iter().find(|&&n| n == iv.name) else { continue };
        let same = &by_tid[&iv.tid];
        let first = same.partition_point(|o| o.start < iv.start);
        // Union of everything that starts inside this span, clipped to it.
        let mut covered = 0u64;
        let mut reach = iv.start;
        for o in &same[first..] {
            if o.start >= iv.end {
                break;
            }
            if std::ptr::eq(*o, iv) || (o.start == iv.start && o.end >= iv.end && o.id < iv.id) {
                continue; // itself, or an ancestor sharing its start
            }
            let (s, e) = (o.start.max(reach), o.end.min(iv.end));
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        let own = (iv.end - iv.start).saturating_sub(covered);
        let slot = sums.entry(name).or_insert((0.0, 0));
        slot.0 += own as f64 / 1e9;
        slot.1 += 1;
    }
    LAYER_SPANS.iter().map(|&n| (n, sums.get(n).map_or(0.0, |&(s, c)| s / c as f64))).collect()
}

/// Ends the traced pass: disables telemetry, writes the spans as Chrome
/// trace-event JSON (Perfetto-loadable) under the output directory, and
/// records the self times and the ring's evictions.
pub fn finish(args: &Args, out: &mut Outcome) {
    congest_telemetry::disable();
    let tele = congest_telemetry::global();
    let events = tele.spans();
    out.set("telemetry.dropped_spans", tele.dropped_spans() as f64);
    let path = args.out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match write(&events, &path) {
        Ok(()) => out.note(format!("trace: {} events -> {}", events.len(), path.display())),
        Err(e) => out.note(format!("trace: not written ({e})")),
    }
    for (name, s) in self_times(&events) {
        out.set(&format!("{name}.self_s"), s);
    }
    tele.clear();
}

fn write(events: &[SpanEvent], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, congest_telemetry::export::chrome_trace(events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, kind: SpanKind, ts: u64, dur: u64, id: u64) -> SpanEvent {
        SpanEvent { name: name.into(), kind, ts_ns: ts, dur_ns: dur, tid: 1, id, attrs: vec![] }
    }

    #[test]
    fn self_time_subtracts_nested_spans_once() {
        let events = vec![
            ev("apsp.solve", SpanKind::Begin, 0, 0, 1),
            ev("solver.run", SpanKind::Begin, 100, 0, 2),
            // Two overlapping children of solver.run: covered once.
            ev("step1: x", SpanKind::Complete, 200, 300, 0),
            ev("engine.run", SpanKind::Complete, 250, 100, 0),
            ev("", SpanKind::End, 900, 0, 2),
            ev("", SpanKind::End, 1000, 0, 1),
            ev("graph.generate", SpanKind::Begin, 2000, 0, 3),
            ev("", SpanKind::End, 2500, 0, 3),
        ];
        let got: HashMap<_, _> = self_times(&events).into_iter().collect();
        assert!((got["apsp.solve"] - 200e-9).abs() < 1e-15);
        assert!((got["graph.generate"] - 500e-9).abs() < 1e-15);
        assert_eq!(got["serve.batch"], 0.0);
    }
}
