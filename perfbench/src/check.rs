//! Answer checking for the serve workloads.
//!
//! Every reply is checked after its round-trip clock stops, against the
//! reference [`Oracle`] built from `apsp_dijkstra`:
//!
//! * `dist` must equal the reference entry;
//! * `path` must equal the reference oracle's successor walk (walks are
//!   bit-identical across backends by contract);
//! * `k_nearest` must carry the reference row's k smallest values, and
//!   every returned node must sit at its reference distance.
//!
//! A wrong answer, a typed error and a shed (`Busy`/`Overloaded`) each
//! count as one failure.

use congest_graph::NodeId;
use congest_oracle::Oracle;
use congest_serve::{Reply, ReplyBody, Status};

/// One query of a serve workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Dist(NodeId, NodeId),
    Path(NodeId, NodeId),
    KNearest(NodeId, u32),
}

/// How one answer fared.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Right,
    Wrong,
    /// A typed error: a non-`Ok` status other than a shed, or a failed
    /// in-process query.
    Error,
    /// Refused under load (`Busy` or `Overloaded`).
    Shed,
}

/// Running failure count of a workload.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub wrong: u64,
    pub errors: u64,
    pub shed: u64,
}

impl Tally {
    pub fn record(&mut self, v: Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Right => {}
            Verdict::Wrong => self.wrong += 1,
            Verdict::Error => self.errors += 1,
            Verdict::Shed => self.shed += 1,
        }
    }

    /// Counts `k` operations that got no answer at all.
    pub fn record_lost(&mut self, k: u64) {
        self.attempted += k;
        self.errors += k;
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.errors + self.shed
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.wrong += o.wrong;
        self.errors += o.errors;
        self.shed += o.shed;
    }
}

pub fn dist_ok(reference: &Oracle<u64>, u: NodeId, v: NodeId, got: u64) -> bool {
    reference.distance(u, v) == got
}

pub fn path_ok(reference: &Oracle<u64>, u: NodeId, v: NodeId, got: &[NodeId]) -> bool {
    matches!(reference.try_path(u, v), Ok(Some(p)) if p == got)
}

pub fn k_nearest_ok(reference: &Oracle<u64>, u: NodeId, k: u32, got: &[(NodeId, u64)]) -> bool {
    let want = reference.k_nearest(u, k as usize);
    want.len() == got.len()
        && want.iter().zip(got).all(|(w, g)| w.1 == g.1)
        && got.iter().all(|&(x, d)| x != u && reference.distance(u, x) == d)
}

/// Verdict on one wire reply to `op`.
pub fn reply_verdict(reference: &Oracle<u64>, op: Op, reply: &Reply<u64>) -> Verdict {
    match reply.status {
        Status::Ok => {}
        Status::Busy | Status::Overloaded => return Verdict::Shed,
        _ => return Verdict::Error,
    }
    let right = match (op, &reply.body) {
        (Op::Dist(u, v), ReplyBody::Dist(d)) => dist_ok(reference, u, v, *d),
        (Op::Path(u, v), ReplyBody::Path(p)) => path_ok(reference, u, v, p),
        (Op::KNearest(u, k), ReplyBody::KNearest(ks)) => k_nearest_ok(reference, u, k, ks),
        _ => false,
    };
    if right {
        Verdict::Right
    } else {
        Verdict::Wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{gnm_connected, WeightDist};
    use congest_graph::seq::apsp_dijkstra;

    fn reference() -> Oracle<u64> {
        let g = gnm_connected(40, 120, true, WeightDist::Uniform(1, 9), 3);
        Oracle::from_dist(&g, apsp_dijkstra(&g))
    }

    /// The replies a correct server would send for `ops`.
    fn true_replies(o: &Oracle<u64>, ops: &[Op]) -> Vec<Reply<u64>> {
        ops.iter()
            .enumerate()
            .map(|(i, &op)| {
                let body = match op {
                    Op::Dist(u, v) => ReplyBody::Dist(o.distance(u, v)),
                    Op::Path(u, v) => ReplyBody::Path(o.path(u, v).expect("connected")),
                    Op::KNearest(u, k) => ReplyBody::KNearest(o.k_nearest(u, k as usize)),
                };
                Reply { id: i as u32 + 1, status: Status::Ok, generation: 1, body }
            })
            .collect()
    }

    fn tally(o: &Oracle<u64>, ops: &[Op], replies: &[Reply<u64>]) -> Tally {
        let mut t = Tally::default();
        for (&op, r) in ops.iter().zip(replies) {
            t.record(reply_verdict(o, op, r));
        }
        t
    }

    const OPS: [Op; 4] = [Op::Dist(0, 7), Op::Path(3, 19), Op::KNearest(5, 4), Op::Dist(9, 9)];

    #[test]
    fn correct_replies_pass() {
        let o = reference();
        let t = tally(&o, &OPS, &true_replies(&o, &OPS));
        assert_eq!(t, Tally { attempted: 4, ..Default::default() });
    }

    #[test]
    fn one_corrupted_reply_is_counted() {
        let o = reference();
        let mut replies = true_replies(&o, &OPS);
        let ReplyBody::Dist(d) = &mut replies[0].body else { panic!("dist reply") };
        *d += 1;
        let t = tally(&o, &OPS, &replies);
        assert_eq!((t.attempted, t.wrong, t.failed()), (4, 1, 1));
    }

    #[test]
    fn corrupted_paths_and_neighbours_are_counted() {
        let o = reference();
        let mut replies = true_replies(&o, &OPS);
        let ReplyBody::Path(p) = &mut replies[1].body else { panic!("path reply") };
        p.pop();
        let ReplyBody::KNearest(ks) = &mut replies[2].body else { panic!("k-nearest reply") };
        ks[0].0 = 5; // claims the source itself as a neighbour
        assert_eq!(tally(&o, &OPS, &replies).wrong, 2);
    }

    #[test]
    fn sheds_and_typed_errors_are_failures() {
        let o = reference();
        let mut replies = true_replies(&o, &OPS);
        replies[0].status = Status::Busy;
        replies[1].status = Status::Overloaded;
        replies[2].status = Status::Corrupt;
        let t = tally(&o, &OPS, &replies);
        assert_eq!((t.shed, t.errors, t.wrong, t.failed()), (2, 1, 0, 3));
    }
}
