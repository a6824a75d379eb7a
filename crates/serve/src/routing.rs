//! Replica routing: the policy in front of the per-shard sessions.
//!
//! A query scattered to a shard must be answered by exactly **one** of
//! the shard's replicas (they are bit-identical by construction, so
//! any choice is answer-preserving). *Which* replica is a pure policy
//! decision, [`RoutingPolicy::pick`], made over the shard's replica
//! state at dispatch time — liveness, backlog, outstanding queries,
//! measured durations. Three policies cover the classic trade-offs:
//!
//! * [`RoutingPolicy::RoundRobin`] — cyclic, state-oblivious; perfect
//!   spread under a uniform mix.
//! * [`RoutingPolicy::LeastOutstanding`] — joins the replica with the
//!   fewest in-flight sub-queries (ties broken toward the earlier-free
//!   one); the classic "join the shortest queue" heuristic.
//! * [`RoutingPolicy::FastestReplica`] — latency-aware: picks the
//!   replica whose *predicted completion* (backlog plus this query's
//!   measured duration on that replica) is earliest.
//!
//! Every policy picks among the replicas the front end believes
//! alive. A replica that went dark stays routable until the front end
//! *detects* the failure (`ServiceConfig::fault_detect` cycles after
//! the fault) — sub-queries sent into that blind spot are what the
//! failover path re-dispatches.

use crate::service::Replica;
use hipe_sim::Cycle;

/// The replica-selection policy of a service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Cyclic assignment: a shard-local cursor advances one replica
    /// per sub-query, skipping replicas known dead.
    RoundRobin,
    /// Join-the-shortest-queue (the default): the alive replica with
    /// the fewest outstanding sub-queries, ties broken toward the one
    /// that frees earliest, then the lowest index.
    #[default]
    LeastOutstanding,
    /// Latency-aware: the alive replica with the earliest *predicted
    /// completion* for this query — backlog end plus the query's
    /// measured duration on that replica — ties broken toward the
    /// lowest index. With heterogeneous replicas (or durations) this
    /// beats queue-length heuristics; with bit-identical replicas it
    /// degrades gracefully to earliest-free.
    FastestReplica,
}

impl RoutingPolicy {
    /// Picks the replica of one shard to serve a sub-query dispatched
    /// at `now`. `replicas` are the shard's replicas with their
    /// finished sub-queries already evicted, `cursor` is the shard's
    /// round-robin cursor (only [`RoundRobin`](Self::RoundRobin)
    /// reads or advances it), `detect` is the fault-detection delay
    /// and `durations` the query's measured cycles on each replica.
    /// The pick is always a replica believed alive at `now`.
    ///
    /// # Panics
    ///
    /// Panics if no replica is believed alive (the scheduler validates
    /// up front that every shard keeps one that never fails).
    pub(crate) fn pick(
        self,
        replicas: &[Replica],
        cursor: &mut usize,
        now: Cycle,
        detect: Cycle,
        durations: &[Cycle],
    ) -> usize {
        let n = replicas.len();
        let alive = |&r: &usize| replicas[r].believed_alive(now, detect);
        let picked = match self {
            RoutingPolicy::RoundRobin => {
                let r = (0..n).map(|i| (*cursor + i) % n).find(alive);
                if let Some(r) = r {
                    *cursor = (r + 1) % n;
                }
                r
            }
            RoutingPolicy::LeastOutstanding => (0..n).filter(alive).min_by_key(|&r| {
                let replica = &replicas[r];
                (replica.inflight.len(), replica.server.next_free(), r)
            }),
            RoutingPolicy::FastestReplica => (0..n)
                .filter(alive)
                .min_by_key(|&r| (now.max(replicas[r].server.next_free()) + durations[r], r)),
        };
        picked.unwrap_or_else(|| panic!("no live replica offered"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shard's replicas: replica `r` is believed alive iff
    /// `alive[r]` (at cycle 0 with zero detection delay), frees at
    /// `next_free[r]` and has `outstanding[r]` sub-queries in flight.
    fn shard(alive: &[bool], next_free: &[Cycle], outstanding: &[u32]) -> Vec<Replica> {
        (0..alive.len())
            .map(|r| {
                let mut replica = Replica::new((!alive[r]).then_some(0), 4);
                replica.server.serve(0, next_free[r]);
                for _ in 0..outstanding[r] {
                    replica.inflight.push_back(next_free[r]);
                }
                replica
            })
            .collect()
    }

    fn pick(policy: RoutingPolicy, replicas: &[Replica], cursor: &mut usize, d: &[Cycle]) -> usize {
        policy.pick(replicas, cursor, 0, 0, d)
    }

    #[test]
    fn round_robin_cycles_and_skips_the_dead() {
        let rr = RoutingPolicy::RoundRobin;
        let mut cursors = [0; 2];
        let c = shard(&[true, true, true], &[0; 3], &[0; 3]);
        assert_eq!(pick(rr, &c, &mut cursors[0], &[10; 3]), 0);
        assert_eq!(pick(rr, &c, &mut cursors[0], &[10; 3]), 1);
        assert_eq!(pick(rr, &c, &mut cursors[0], &[10; 3]), 2);
        assert_eq!(pick(rr, &c, &mut cursors[0], &[10; 3]), 0);
        // Shards keep independent cursors.
        assert_eq!(pick(rr, &c, &mut cursors[1], &[10; 3]), 0);
        // A detected-dead replica is skipped without stalling the
        // cursor's rotation.
        let c = shard(&[true, false, true], &[0; 3], &[0; 3]);
        assert_eq!(pick(rr, &c, &mut cursors[0], &[10; 3]), 2);
        assert_eq!(pick(rr, &c, &mut cursors[0], &[10; 3]), 0);
        assert_eq!(pick(rr, &c, &mut cursors[0], &[10; 3]), 2);
    }

    #[test]
    fn least_outstanding_joins_the_shortest_queue() {
        let lo = RoutingPolicy::LeastOutstanding;
        let c = shard(&[true, true, true], &[500, 100, 300], &[2, 1, 1]);
        // Replicas 1 and 2 tie on outstanding; 1 frees earlier.
        assert_eq!(pick(lo, &c, &mut 0, &[10; 3]), 1);
        // The busiest replica is never picked while a shorter queue is
        // alive.
        let c = shard(&[true, false, true], &[500, 100, 300], &[2, 0, 1]);
        assert_eq!(pick(lo, &c, &mut 0, &[10; 3]), 2);
    }

    #[test]
    fn fastest_replica_minimizes_predicted_completion() {
        let fr = RoutingPolicy::FastestReplica;
        // Replica 0 is idle but slow (duration 900); replica 1 is busy
        // until 200 but fast (duration 100): predicted completions are
        // 900 vs 300.
        let c = shard(&[true, true], &[0, 200], &[0, 1]);
        assert_eq!(pick(fr, &c, &mut 0, &[900, 100]), 1);
        // With equal durations it degrades to earliest-free.
        let c = shard(&[true, true], &[400, 200], &[1, 1]);
        assert_eq!(pick(fr, &c, &mut 0, &[100, 100]), 1);
    }

    #[test]
    fn policy_builds_matching_routers() {
        let c = shard(&[true, true], &[100, 0], &[1, 0]);
        let d = [10, 10];
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::LeastOutstanding);
        assert_eq!(pick(RoutingPolicy::RoundRobin, &c, &mut 0, &d), 0);
        assert_eq!(pick(RoutingPolicy::LeastOutstanding, &c, &mut 0, &d), 1);
        assert_eq!(pick(RoutingPolicy::FastestReplica, &c, &mut 0, &d), 1);
    }

    #[test]
    #[should_panic(expected = "no live replica")]
    fn all_dead_candidates_panic() {
        let c = shard(&[false, false], &[0, 0], &[0, 0]);
        let _ = pick(RoutingPolicy::LeastOutstanding, &c, &mut 0, &[10, 10]);
    }
}
