//! Golden simulated counts: the simulated program, pinned.
//!
//! Host-side optimisations of the simulator (hashing, bookkeeping,
//! borrowing instead of cloning) must not change a single simulated
//! round, message or payload word. This suite runs every algorithm
//! configuration on two small graph families, with integer and real
//! weights, and compares each run's phase reports against values recorded
//! from the reference implementation:
//!
//! * the totals — phase count, rounds, messages, payload words, the peak
//!   of `peak_in_flight` and of `max_msg_words` — in readable form;
//! * a digest over every phase, in order, of its name, `rounds`,
//!   `messages`, `payload_words`, `peak_in_flight`, `max_msg_words` and
//!   the full per-node `node_sent` vector, so a change confined to one
//!   phase or one node also shows.
//!
//! A change that is meant to alter the simulated protocol (new rounds, a
//! different message schedule) updates these values deliberately, in the
//! same change; a host-side optimisation never does. On a mismatch the
//! failure message prints the full recomputed table.

use congest_apsp::{Algorithm, ApspOutcome, BlockerMethod, Solver, Step6Method};
use congest_bench::workloads::{hop_deep, sparse_random};
use congest_graph::{Graph, Weight, F64};

/// FNV-1a over 64-bit little-endian words (and raw bytes for names).
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// `(case, phases, rounds, messages, payload_words, peak_in_flight,
/// max_msg_words, digest)`.
type Row<S> = (S, usize, u64, u64, u64, u64, u32, u64);

/// One row as it is written in [`GOLDEN`].
fn line<S: std::fmt::Display>(r: &Row<S>) -> String {
    format!("(\"{}\", {}, {}, {}, {}, {}, {}, {:#018x}),", r.0, r.1, r.2, r.3, r.4, r.5, r.6, r.7)
}

fn counts<W: Weight>(case: String, out: &ApspOutcome<W>) -> Row<String> {
    let phases = out.recorder.phases();
    let mut d = Digest::new();
    let mut c: Row<String> = (case, phases.len(), 0, 0, 0, 0, 0, 0);
    for p in phases {
        d.word(p.name.len() as u64);
        d.bytes(p.name.as_bytes());
        for w in [p.rounds, p.messages, p.payload_words, p.peak_in_flight] {
            d.word(w);
        }
        d.word(u64::from(p.max_msg_words));
        d.word(p.node_sent.len() as u64);
        for &s in &p.node_sent {
            d.word(s);
        }
        c.2 += p.rounds;
        c.3 += p.messages;
        c.4 += p.payload_words;
        c.5 = c.5.max(p.peak_in_flight);
        c.6 = c.6.max(p.max_msg_words);
    }
    c.7 = d.0;
    c
}

/// The configurations pinned: Ar20's three (blocker, Step 6) pairings,
/// Ar18 and Naive.
const CONFIGS: [(&str, Algorithm, BlockerMethod, Step6Method); 5] = [
    ("ar20-derand-pipelined", Algorithm::Ar20, BlockerMethod::Derandomized, Step6Method::Pipelined),
    ("ar20-greedy-pipelined", Algorithm::Ar20, BlockerMethod::Greedy, Step6Method::Pipelined),
    (
        "ar20-derand-trivial",
        Algorithm::Ar20,
        BlockerMethod::Derandomized,
        Step6Method::TrivialBroadcast,
    ),
    ("ar18", Algorithm::Ar18, BlockerMethod::Derandomized, Step6Method::Pipelined),
    ("naive", Algorithm::Naive, BlockerMethod::Derandomized, Step6Method::Pipelined),
];

fn run_all<W: Weight>(graph: &str, g: &Graph<W>, out: &mut Vec<String>) {
    for (name, algorithm, blocker, step6) in CONFIGS {
        let outcome = Solver::builder(g)
            .algorithm(algorithm)
            .blocker_method(blocker)
            .step6_method(step6)
            .run()
            .unwrap_or_else(|e| panic!("{graph}/{name}: {e}"));
        out.push(line(&counts(format!("{graph}/{name}"), &outcome)));
    }
}

/// Integer graphs as generated, and the same graphs with real weights
/// `w / 3` (not dyadic, so distance sums exercise float rounding).
fn recompute() -> Vec<String> {
    let mut out = Vec::new();
    for (graph, g) in [("sparse48", sparse_random(48, 3)), ("deep64", hop_deep(64, 5))] {
        run_all(&format!("{graph}-u64"), &g, &mut out);
        let gf = g.map_weights(|w| F64::new(w as f64 / 3.0));
        run_all(&format!("{graph}-f64"), &gf, &mut out);
    }
    out
}

const GOLDEN: &[Row<&str>] = &[
    ("sparse48-u64/ar20-derand-pipelined", 182, 5952, 244353, 473821, 266, 4, 0xdad5a409327b29e4),
    ("sparse48-u64/ar20-greedy-pipelined", 120, 4289, 181531, 380250, 266, 4, 0xddb844f5687bee54),
    ("sparse48-u64/ar20-derand-trivial", 176, 5244, 326910, 834087, 266, 4, 0x5f7ae65ba984676e),
    ("sparse48-u64/ar18", 15, 2075, 57335, 131023, 266, 3, 0x89037e410901b7f6),
    ("sparse48-u64/naive", 48, 2352, 14752, 39744, 107, 3, 0x50eedbf951f12ae1),
    ("sparse48-f64/ar20-derand-pipelined", 182, 5954, 244634, 474584, 266, 4, 0xd487694d123517c7),
    ("sparse48-f64/ar20-greedy-pipelined", 120, 4291, 181812, 381013, 266, 4, 0x80aca3c3318777bd),
    ("sparse48-f64/ar20-derand-trivial", 176, 5246, 327191, 834850, 266, 4, 0x2cf6ef46a7f31c55),
    ("sparse48-f64/ar18", 15, 2077, 57544, 131656, 266, 3, 0x0230544deb50aec6),
    ("sparse48-f64/naive", 48, 2352, 14759, 39765, 107, 3, 0x65c48976fab53b2e),
    ("deep64-u64/ar20-derand-pipelined", 169, 6555, 127173, 249924, 126, 4, 0x7b7bc8e4b9297508),
    ("deep64-u64/ar20-greedy-pipelined", 131, 4469, 82106, 175649, 126, 4, 0x87a57369f79da60c),
    ("deep64-u64/ar20-derand-trivial", 144, 5059, 127917, 307887, 126, 4, 0xa99245f0555eb8eb),
    ("deep64-u64/ar18", 30, 3728, 55974, 123142, 126, 3, 0x1a924695bd5ad1db),
    ("deep64-u64/naive", 64, 4160, 12096, 28224, 63, 3, 0xb71054ef1eb95465),
    ("deep64-f64/ar20-derand-pipelined", 169, 6555, 127389, 250364, 126, 4, 0x887dffb9f81fce75),
    ("deep64-f64/ar20-greedy-pipelined", 131, 4469, 82229, 175850, 126, 4, 0x645072340faed66c),
    ("deep64-f64/ar20-derand-trivial", 144, 5059, 128221, 308519, 126, 4, 0x02a2044d7ecb8e70),
    ("deep64-f64/ar18", 30, 3728, 55974, 123142, 126, 3, 0x1a924695bd5ad1db),
    ("deep64-f64/naive", 64, 4160, 12096, 28224, 63, 3, 0xb71054ef1eb95465),
];

#[test]
fn simulated_counts_match_golden_values() {
    let got = recompute();
    let want: Vec<String> = GOLDEN.iter().map(line).collect();
    if let Some((g, w)) = got.iter().zip(&want).find(|(g, w)| g != w) {
        panic!(
            "simulated counts changed\n  got  {g}\n  want {w}\nrecomputed table:\n{}",
            got.join("\n")
        );
    }
    assert_eq!(got.len(), want.len(), "case count");
}
