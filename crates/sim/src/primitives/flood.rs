//! Pipelined flooding broadcast with duplicate suppression.
//!
//! Implements the broadcast primitives of Appendix A.1:
//!
//! * Lemma A.1 — one node broadcasts k values in O(n + k) rounds;
//! * Lemma A.2 — every node broadcasts one (or a few) values, all delivered
//!   everywhere in O(n) rounds.
//!
//! Both are instances of the same mechanism: every node maintains a log of
//! known items; each round it forwards, on every channel, the next item the
//! peer is not yet known to have. With bandwidth B = 1 an item crosses each
//! channel at most once per direction, so all K items reach all nodes
//! within O(K + D) rounds — the standard pipelined-flooding bound.
//!
//! # Host-side bookkeeping
//!
//! None of this changes what is simulated; it only sets what one simulated
//! message costs the host.
//!
//! * **Dedup index.** Each node maps every known item to its log position
//!   in a `HashMap` keyed by the item's own `Hash` (payloads derive it;
//!   distances hash by value through the `Weight: Hash` bound). The map
//!   uses `WordHasher`, a one-multiply-per-word mixer in the style of
//!   FxHash, instead of SipHash: flood items are a few machine words, the
//!   map is private to one simulated node, and its keys are not chosen by
//!   an adversary. The map is only probed, never iterated, so the hasher
//!   cannot affect the log's order, which stays the discovery order.
//! * **Cursors.** `cursor[ni]` is the position in the log of the next item
//!   to offer on channel `ni`. After every `on_round` each cursor rests on
//!   an item that peer is not known to have, or at the end of the log:
//!   sending moves it past every item the peer already knows. So "this
//!   node still has something to send" is exactly "some cursor is short of
//!   the log's end", and [`NodeLogic::active`] is O(degree) instead of a
//!   scan of every channel's backlog.

use crate::bitset::BitSet;
use crate::engine::{Engine, Envelope, NodeEnv, NodeLogic, Outbox, RunUntil, SimConfig, Topology};
use crate::error::SimError;
use crate::metrics::PhaseReport;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Items that can be flooded: cheap to clone, hashable for dedup. One item
/// models O(1) machine words.
pub trait FloodItem: Clone + Eq + Hash + Send + Sync + 'static {}
impl<T: Clone + Eq + Hash + Send + Sync + 'static> FloodItem for T {}

/// Word-at-a-time multiplicative hasher for the dedup index (FxHash's
/// step: rotate, xor in the word, multiply by an odd constant). `finish`
/// rotates the well-mixed high bits down into the low bits that pick the
/// bucket.
#[derive(Clone, Copy, Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

struct FloodNode<T> {
    /// Known items in discovery order.
    log: Vec<T>,
    index: HashMap<T, usize, BuildHasherDefault<WordHasher>>,
    /// Per neighbor (by position in the env neighbor list): which log items
    /// the peer is known to have (either we sent them or they sent them).
    peer_knows: Vec<BitSet>,
    /// Per neighbor: position in `log` of the next item to offer; between
    /// rounds it never rests on an item the peer knows (module docs).
    cursor: Vec<usize>,
    /// On-wire width of one item, in machine words (protocol-wide).
    item_words: u32,
}

impl<T: FloodItem> FloodNode<T> {
    fn new(initial: Vec<T>, degree: usize, item_words: u32) -> Self {
        let mut node = FloodNode {
            log: Vec::new(),
            index: HashMap::default(),
            peer_knows: (0..degree).map(|_| BitSet::new()).collect(),
            cursor: vec![0; degree],
            item_words,
        };
        for item in initial {
            node.learn(item);
        }
        node
    }

    fn learn(&mut self, item: T) -> usize {
        if let Some(&i) = self.index.get(&item) {
            return i;
        }
        let i = self.log.len();
        self.index.insert(item.clone(), i);
        self.log.push(item);
        i
    }

    /// Moves channel `ni`'s cursor past every item its peer already knows.
    fn skip_known(&mut self, ni: usize) {
        let c = &mut self.cursor[ni];
        while *c < self.log.len() && self.peer_knows[ni].get(*c) {
            *c += 1;
        }
    }
}

impl<T: FloodItem> NodeLogic for FloodNode<T> {
    type Msg = T;

    fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<T>], out: &mut Outbox<'_, T>) {
        // Receive first: dedup and remember that the sender knows the item.
        for e in inbox {
            let idx = self.learn(e.msg.clone());
            let ni = env.neighbor_index(e.from).expect("sender is a neighbor");
            self.peer_knows[ni].set(idx);
        }
        // Send: for each channel, the first known item the peer lacks (the
        // inbox may have taught the peer the item under its cursor), then
        // restore the cursor invariant.
        for ni in 0..env.neighbors.len() {
            self.skip_known(ni);
            let i = self.cursor[ni];
            if i < self.log.len() {
                out.send_nbr(ni, self.log[i].clone());
                self.peer_knows[ni].set(i);
                self.skip_known(ni);
            }
        }
    }

    fn active(&self) -> bool {
        self.cursor.iter().any(|&c| c < self.log.len())
    }

    fn msg_words(&self, _msg: &T) -> u32 {
        self.item_words
    }
}

/// Floods every node's initial items to all nodes. Returns each node's full
/// item log (discovery order, own items first) and the phase report.
///
/// `item_words` is the on-wire width of one item in O(log n)-bit machine
/// words (each id/weight field counts as one word); it only affects the
/// payload accounting, never the protocol.
///
/// # Errors
/// Propagates engine errors; `budget` bounds the rounds (callers typically
/// pass the analytical O(K + n) bound).
pub fn flood_broadcast<T: FloodItem>(
    topo: &Topology,
    cfg: SimConfig,
    initial: Vec<Vec<T>>,
    item_words: u32,
    until: RunUntil,
) -> Result<(Vec<Vec<T>>, PhaseReport), SimError> {
    let n = topo.n();
    assert_eq!(initial.len(), n);
    let engine = Engine::new(topo, cfg);
    let mut nodes: Vec<FloodNode<T>> = initial
        .into_iter()
        .enumerate()
        .map(|(i, items)| {
            FloodNode::new(items, topo.neighbors(i as congest_graph::NodeId).len(), item_words)
        })
        .collect();
    let report = engine.run(&mut nodes, until)?;
    Ok((nodes.into_iter().map(|nd| nd.log).collect(), report))
}

/// Convenience wrapper for the Lemma A.2 pattern (all-to-all broadcast with
/// a quiescence budget of `O(total items + n)`); `item_words` as in
/// [`flood_broadcast`].
///
/// # Errors
/// Propagates engine errors.
pub fn all_to_all_broadcast<T: FloodItem>(
    topo: &Topology,
    cfg: SimConfig,
    initial: Vec<Vec<T>>,
    item_words: u32,
) -> Result<(Vec<Vec<T>>, PhaseReport), SimError> {
    let total: usize = initial.iter().map(Vec::len).sum();
    let budget = 4 * (total as u64 + topo.n() as u64) + 16;
    flood_broadcast(topo, cfg, initial, item_words, RunUntil::Quiesce { max: budget })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, path, star, WeightDist};
    use congest_graph::NodeId;

    fn check_all_know_all(logs: &[Vec<u32>], expected: &mut Vec<u32>) {
        expected.sort_unstable();
        for log in logs {
            let mut got = log.clone();
            got.sort_unstable();
            assert_eq!(&got, expected);
        }
    }

    #[test]
    fn single_source_k_values_on_path() {
        let g = path(8, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let k = 20u32;
        let mut initial: Vec<Vec<u32>> = vec![Vec::new(); 8];
        initial[0] = (0..k).collect();
        let (logs, report) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 1).unwrap();
        check_all_know_all(&logs, &mut (0..k).collect());
        // Lemma A.1 shape: O(k + D) rounds.
        assert!(report.rounds <= (k as u64 + 8) + 8, "rounds = {}", report.rounds);
    }

    #[test]
    fn all_to_all_one_value_each() {
        let g = gnm_connected(24, 48, false, WeightDist::Unit, 5);
        let topo = Topology::from_graph(&g);
        let initial: Vec<Vec<u32>> = (0..24).map(|i| vec![i as u32]).collect();
        let (logs, report) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 1).unwrap();
        check_all_know_all(&logs, &mut (0..24).collect());
        // Lemma A.2 shape: O(n) rounds.
        assert!(report.rounds <= 4 * 24, "rounds = {}", report.rounds);
    }

    #[test]
    fn duplicates_deduplicated() {
        let g = star(6, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        // every node starts with the same item plus one unique item
        let initial: Vec<Vec<u32>> = (0..6).map(|i| vec![999, i as u32]).collect();
        let (logs, _) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 1).unwrap();
        check_all_know_all(&logs, &mut vec![999, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn own_items_first_in_log() {
        let g = path(3, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let initial = vec![vec![10u32, 11], vec![20], vec![30]];
        let (logs, _) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 1).unwrap();
        assert_eq!(&logs[0][..2], &[10, 11]);
        assert_eq!(logs[1][0], 20);
    }

    #[test]
    fn empty_broadcast_terminates_immediately() {
        let g = path(4, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let initial: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let (logs, report) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 1).unwrap();
        assert!(logs.iter().all(Vec::is_empty));
        assert!(report.rounds <= 1);
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn deterministic_logs() {
        let g = gnm_connected(16, 30, false, WeightDist::Unit, 9);
        let topo = Topology::from_graph(&g);
        let initial: Vec<Vec<u32>> = (0..16).map(|i| vec![i as u32 * 7]).collect();
        let (a, ra) =
            all_to_all_broadcast(&topo, SimConfig::default(), initial.clone(), 1).unwrap();
        let (b, rb) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(ra.rounds, rb.rounds);
        assert_eq!(ra.messages, rb.messages);
    }

    #[test]
    fn respects_worst_case_charging() {
        // Exact-mode run with the analytical budget must succeed.
        let g = path(6, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let initial: Vec<Vec<u32>> = (0..6).map(|i| vec![i as u32]).collect();
        let budget = 4 * (6 + 6) + 16;
        let (_, report) =
            flood_broadcast(&topo, SimConfig::default(), initial, 1, RunUntil::Exact(budget))
                .unwrap();
        assert_eq!(report.rounds, budget);
    }

    #[test]
    fn signed_zero_distances_dedup_to_one_entry() {
        use congest_graph::{Weight, F64};
        let g = path(5, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let mut initial: Vec<Vec<(u32, F64)>> = vec![Vec::new(); 5];
        initial[0] = vec![(7, F64::new(-0.0))];
        initial[4] = vec![(7, F64::ZERO)];
        let (logs, _) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 2).unwrap();
        for log in &logs {
            assert_eq!(log.len(), 1, "{log:?}");
            assert_eq!(log[0], (7, F64::ZERO));
        }
    }

    #[test]
    fn large_payload_pipelines() {
        // K values from each endpoint of a path cross the middle: rounds
        // should be ~2K + n, not K * n.
        let g = path(10, false, WeightDist::Unit, 0);
        let topo = Topology::from_graph(&g);
        let mut initial: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); 10];
        initial[0] = (0..50).map(|k| (0, k)).collect();
        initial[9] = (0..50).map(|k| (9, k)).collect();
        let (logs, report) = all_to_all_broadcast(&topo, SimConfig::default(), initial, 1).unwrap();
        assert!(logs.iter().all(|l| l.len() == 100));
        assert!(report.rounds <= 2 * 50 + 3 * 10, "rounds = {}", report.rounds);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use proptest::prelude::*;

    /// The flood node as it was before the word hasher and the cursor
    /// invariant: SipHash dedup index, and an `active()` that rescans every
    /// channel's backlog. Kept as the differential reference.
    struct ReferenceFloodNode<T> {
        log: Vec<T>,
        index: HashMap<T, usize>,
        peer_knows: Vec<BitSet>,
        cursor: Vec<usize>,
        item_words: u32,
    }

    impl<T: FloodItem> ReferenceFloodNode<T> {
        fn new(initial: Vec<T>, degree: usize, item_words: u32) -> Self {
            let mut node = ReferenceFloodNode {
                log: Vec::new(),
                index: HashMap::new(),
                peer_knows: (0..degree).map(|_| BitSet::new()).collect(),
                cursor: vec![0; degree],
                item_words,
            };
            for item in initial {
                node.learn(item);
            }
            node
        }

        fn learn(&mut self, item: T) -> usize {
            if let Some(&i) = self.index.get(&item) {
                return i;
            }
            let i = self.log.len();
            self.index.insert(item.clone(), i);
            self.log.push(item);
            i
        }
    }

    impl<T: FloodItem> NodeLogic for ReferenceFloodNode<T> {
        type Msg = T;

        fn on_round(&mut self, env: &NodeEnv<'_>, inbox: &[Envelope<T>], out: &mut Outbox<'_, T>) {
            for e in inbox {
                let idx = self.learn(e.msg.clone());
                let ni = env.neighbor_index(e.from).expect("sender is a neighbor");
                self.peer_knows[ni].set(idx);
            }
            for ni in 0..env.neighbors.len() {
                while self.cursor[ni] < self.log.len() {
                    let i = self.cursor[ni];
                    if self.peer_knows[ni].get(i) {
                        self.cursor[ni] += 1;
                        continue;
                    }
                    out.send_nbr(ni, self.log[i].clone());
                    self.peer_knows[ni].set(i);
                    self.cursor[ni] += 1;
                    break;
                }
            }
        }

        fn active(&self) -> bool {
            self.cursor
                .iter()
                .enumerate()
                .any(|(ni, &c)| (c..self.log.len()).any(|i| !self.peer_knows[ni].get(i)))
        }

        fn msg_words(&self, _msg: &T) -> u32 {
            self.item_words
        }
    }

    /// Runs `nodes` and hands them back with the outcome, so their final
    /// state can be compared even when the run ends in a budget error.
    fn run_nodes<N: NodeLogic>(
        topo: &Topology,
        mut nodes: Vec<N>,
        until: RunUntil,
    ) -> (Vec<N>, Result<PhaseReport, SimError>) {
        let result = Engine::new(topo, SimConfig::default()).run(&mut nodes, until);
        (nodes, result)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every item reaches every node, regardless of topology, item
        /// distribution, or duplication.
        #[test]
        fn flood_is_complete(
            n in 2usize..20,
            extra in 0usize..30,
            seed in 0u64..1000,
            items in proptest::collection::vec((0usize..20, 0u32..50), 0..30),
        ) {
            let g = gnm_connected(n, extra, false, WeightDist::Unit, seed);
            let topo = Topology::from_graph(&g);
            let mut initial: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut expected: Vec<u32> = Vec::new();
            for (slot, item) in items {
                initial[slot % n].push(item);
                expected.push(item);
            }
            expected.sort_unstable();
            expected.dedup();
            let (logs, report) =
                all_to_all_broadcast(&topo, SimConfig::default(), initial, 1).unwrap();
            for log in &logs {
                let mut got = log.clone();
                got.sort_unstable();
                prop_assert_eq!(&got, &expected);
            }
            // Lemma A.1/A.2 shape: O(K + n) rounds.
            prop_assert!(report.rounds <= 4 * (expected.len() as u64 + n as u64) + 16);
        }

        /// An item never crosses one channel direction twice (duplicate
        /// suppression): total messages ≤ items × channels × 2.
        #[test]
        fn flood_message_bound(
            n in 2usize..16,
            extra in 0usize..20,
            seed in 0u64..1000,
            k in 1usize..10,
        ) {
            let g = gnm_connected(n, extra, false, WeightDist::Unit, seed);
            let topo = Topology::from_graph(&g);
            let mut initial: Vec<Vec<u32>> = vec![Vec::new(); n];
            initial[0] = (0..k as u32).collect();
            let channels: usize = (0..n as congest_graph::NodeId)
                .map(|v| topo.neighbors(v).len())
                .sum();
            let (_, report) =
                all_to_all_broadcast(&topo, SimConfig::default(), initial, 1).unwrap();
            prop_assert!(report.messages <= (k * channels) as u64);
        }

        /// The optimised node is the reference node, message for message:
        /// same phase report (rounds, messages, per-node sends, payload
        /// words), same logs in the same discovery order, in both run modes,
        /// with duplicates both within one node's seed list and across
        /// nodes. Budgets are drawn short as well as long, and every node's
        /// `active()` must agree at the end, also when the run stopped on
        /// its budget mid-flood.
        #[test]
        fn flood_matches_reference(
            n in 2usize..24,
            extra in 0usize..40,
            seed in 0u64..1000,
            items in proptest::collection::vec((0usize..24, 0u32..6, 0u64..6), 0..40),
            item_words in 1u32..4,
            exact in any::<bool>(),
            budget in 0u64..60,
        ) {
            let g = gnm_connected(n, extra, false, WeightDist::Unit, seed);
            let topo = Topology::from_graph(&g);
            let mut initial: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
            for (slot, a, b) in items {
                initial[slot % n].push((a, b));
            }
            let until =
                if exact { RunUntil::Exact(budget) } else { RunUntil::Quiesce { max: budget } };
            let degree = |v: usize| topo.neighbors(v as congest_graph::NodeId).len();
            let nodes = initial
                .iter()
                .enumerate()
                .map(|(v, items)| FloodNode::new(items.clone(), degree(v), item_words));
            let (got, got_result) = run_nodes(&topo, nodes.collect(), until);
            let nodes = initial
                .into_iter()
                .enumerate()
                .map(|(v, items)| ReferenceFloodNode::new(items, degree(v), item_words));
            let (want, want_result) = run_nodes(&topo, nodes.collect(), until);
            prop_assert_eq!(got_result, want_result);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(&g.log, &w.log);
                prop_assert_eq!(g.active(), w.active());
            }
        }
    }
}
