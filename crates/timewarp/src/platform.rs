//! The virtual-platform executive: a deterministic discrete-event model of
//! N workstation nodes running the Time Warp protocol over a network.
//!
//! The paper measured wall-clock time on 8 dual-Pentium-II workstations on
//! Fast Ethernet. That hardware is simulated here: every node has a
//! virtual CPU clock advanced by the [`CostModel`] for each protocol
//! action (event execution, state saving, rollback, message send/receive,
//! GVT rounds), and inter-node messages arrive after a wire latency. The
//! *protocol* is executed exactly — real [`LpRuntime`] instances with real
//! rollbacks, anti-messages and fossil collection — so rollback counts and
//! message counts are genuine Time Warp dynamics, and "execution time" is
//! the makespan (the largest node clock at termination).
//!
//! Everything is deterministic given the application, making the
//! experiment tables exactly reproducible — and, unlike wall-clock runs on
//! whatever machine CI lands on, meaningfully comparable across runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::app::Application;
use crate::chaos::{ChaosRuntime, ChaosStep, FaultPlan};
use crate::config::{ConfigError, KernelConfig};
use crate::cost::CostModel;
use crate::dynlb::{move_is_valid, pinned_mask, DynLb, WindowStats, WindowTracker};
use crate::event::{LpId, Transmission};
use crate::lp::LpRuntime;
use crate::probe::Probe;
use crate::ready::ReadyQueue;
use crate::sim::{Outcome, SimError};
use crate::stats::Counted;
use crate::time::VTime;

/// Platform-level configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlatformConfig {
    /// Time Warp kernel knobs (cancellation, checkpointing, GVT period).
    pub kernel: KernelConfig,
    /// CPU/network cost model.
    pub cost: CostModel,
    /// Abort the run when any node holds more than this many state
    /// checkpoints at a GVT round — models the 128 MB workstations of the
    /// paper, whose s15850 runs on 2 nodes "ran out of memory".
    pub state_limit_per_node: Option<u64>,
}

impl PlatformConfig {
    /// Start a validated builder (preferred over struct literals: invalid
    /// values are rejected with a [`ConfigError`] instead of silently
    /// clamped).
    pub fn builder() -> PlatformConfigBuilder {
        PlatformConfigBuilder { cfg: PlatformConfig::default() }
    }
}

/// Validated builder for [`PlatformConfig`]; see [`PlatformConfig::builder`].
#[derive(Debug, Clone)]
pub struct PlatformConfigBuilder {
    cfg: PlatformConfig,
}

impl PlatformConfigBuilder {
    /// Set the Time Warp kernel knobs (validated at [`Self::build`]).
    pub fn kernel(mut self, kernel: KernelConfig) -> Self {
        self.cfg.kernel = kernel;
        self
    }

    /// Set the CPU/network cost model (validated at [`Self::build`]).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Abort when a node holds more than `limit` checkpoints at a GVT
    /// round (`None` = unbounded memory).
    pub fn state_limit_per_node(mut self, limit: Option<u64>) -> Self {
        self.cfg.state_limit_per_node = limit;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<PlatformConfig, ConfigError> {
        if self.cfg.kernel.checkpoint_interval == 0 {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        if self.cfg.kernel.gvt_period == 0 {
            return Err(ConfigError::ZeroGvtPeriod);
        }
        if self.cfg.cost.event_exec_ns == 0 {
            return Err(ConfigError::ZeroCost("event_exec_ns"));
        }
        if self.cfg.cost.seq_event_ns == 0 {
            return Err(ConfigError::ZeroCost("seq_event_ns"));
        }
        Ok(self.cfg)
    }
}

/// One simulated workstation.
struct Node {
    clock_ns: u64,
    /// The node's local LPs by next event time; an entry is stale once its
    /// time is outdated or its LP has migrated off this node.
    ready: ReadyQueue,
}

/// In-flight network message.
struct Flight<M> {
    arrive_ns: u64,
    /// Chaos wire id for dedup/ack tracking (`u64::MAX` = no fault plan
    /// installed; such flights bypass the chaos filter entirely).
    wire_id: u64,
    tx: Transmission<M>,
}

/// The executive proper, generic over the telemetry probe. Modeled time is
/// charged from counter deltas read off the fold (`probe.a`).
// detlint: phase(compute|flush|gvt|migrate|fossil)
pub(crate) fn platform_core<A: Application, P: Probe>(
    app: &A,
    assignment: &[u32],
    nodes: usize,
    cfg: &PlatformConfig,
    probe: &mut Counted<P>,
    mut dynlb: Option<&mut DynLb>,
    chaos_plan: Option<&FaultPlan>,
) -> Result<(Vec<A::State>, Outcome), SimError> {
    if let Some(plan) = chaos_plan {
        plan.check_nodes(nodes).map_err(SimError::InvalidConfig)?;
    }
    let kernel = cfg.kernel.normalized();
    let cost = cfg.cost;

    // Seeded fault engine (None = healthy platform, the default). It
    // perturbs only modeled time and message counts; committed history
    // must stay byte-identical (see the `chaos` module docs).
    let mut chaos: Option<ChaosRuntime<A::Msg>> =
        chaos_plan.map(|p| ChaosRuntime::new(p, nodes, cost.net_latency_ns));

    // Dynamic load balancing mutates the placement at GVT commit, so work
    // on a local copy of the assignment. With one node there is nowhere to
    // migrate to; drop the balancer so behavior is bit-identical to "off".
    let mut assignment: Vec<u32> = assignment.to_vec();
    if nodes < 2 {
        dynlb = None;
    }
    let mut tracker = dynlb.as_ref().map(|_| WindowTracker::new(app.num_lps()));

    let mut outbox: Vec<Transmission<A::Msg>> = Vec::new();
    let pinned = pinned_mask(app);

    // Build LPs, collecting init events.
    let mut init_events = Vec::new();
    let mut lps: Vec<LpRuntime<A>> = (0..app.num_lps() as LpId)
        .map(|i| LpRuntime::new(app, i, kernel, &mut init_events))
        .collect();

    let mut node_state: Vec<Node> =
        (0..nodes).map(|_| Node { clock_ns: 0, ready: ReadyQueue::default() }).collect();

    // In-flight messages live in a slab; the wire heap orders them by
    // `(arrival, send sequence)` and carries the slot. Slots recycle
    // through a free list, so the steady-state wire path does no hashing
    // and no allocation.
    let mut net: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut flights: Vec<Option<Flight<A::Msg>>> = Vec::new();
    let mut free_flights: Vec<usize> = Vec::new();
    let mut flight_seq = 0u64;
    // Ingress link occupancy per node: messages serialize onto the
    // destination's link, so bursts queue (congestion).
    let mut link_free_ns = vec![0u64; nodes];

    // Deliver init events "for free" at platform time 0 (the paper's
    // framework partitions after elaboration; setup cost is not measured).
    for ev in init_events {
        let dst = ev.dst;
        lps[dst as usize].receive(app, Transmission::Positive(ev), &mut outbox, probe);
        debug_assert!(outbox.is_empty(), "init events cannot roll anything back");
        node_state[assignment[dst as usize] as usize]
            .ready
            .push(dst, lps[dst as usize].next_time());
    }

    let mut batches_since_gvt = 0u64;
    let gvt_every = kernel.gvt_period * nodes as u64;
    // Bounded-window optimism control: LPs may only execute events up to
    // `last_gvt + window`. `force_gvt` re-synchronizes when every node is
    // blocked at the window edge.
    let mut last_gvt = VTime::ZERO;
    let mut force_gvt = false;

    // Charge modeled CPU work to a node, letting an active fault window
    // inflate it (slowdown) or defer it (pause). With no plan installed
    // this is exactly `clock += work`.
    macro_rules! charge {
        ($node:expr, $work:expr) => {{
            let ni = $node;
            match chaos.as_mut() {
                Some(ch) => node_state[ni].clock_ns = ch.charge(ni, node_state[ni].clock_ns, $work),
                None => node_state[ni].clock_ns += $work,
            }
        }};
    }

    // Put a transmission on the wire slab (slots recycle via the free
    // list; the heap orders by `(arrival, send sequence)`).
    macro_rules! push_flight {
        ($arrive:expr, $wire_id:expr, $tx:expr) => {{
            let flight = Flight { arrive_ns: $arrive, wire_id: $wire_id, tx: $tx };
            let key = match free_flights.pop() {
                Some(k) => {
                    debug_assert!(flights[k].is_none());
                    flights[k] = Some(flight);
                    k
                }
                None => {
                    flights.push(Some(flight));
                    flights.len() - 1
                }
            };
            net.push(Reverse(($arrive, flight_seq, key)));
            flight_seq += 1;
        }};
    }

    // Deliver a drained outbox from node `from`, charging its clock for
    // sends and queuing remote transmissions on the wire.
    macro_rules! route_outbox {
        ($from:expr) => {
            while let Some(tx) = outbox.pop() {
                let dst = tx.dst() as usize;
                let dst_node = assignment[dst] as usize;
                if dst_node == $from {
                    charge!($from, cost.local_enqueue_ns);
                    // Local delivery is immediate; it may trigger a local
                    // (secondary) rollback whose antis land back in outbox.
                    lps[dst].receive(app, tx, &mut outbox, probe);
                    node_state[dst_node].ready.push(dst as LpId, lps[dst].next_time());
                } else {
                    if let Some(tr) = tracker.as_mut().filter(|_| tx.is_positive()) {
                        tr.record_comm(tx.id().src, tx.dst());
                    }
                    probe.remote_message(tx.is_positive(), tx.recv_time());
                    charge!($from, cost.msg_send_ns);
                    let wire_at = node_state[$from].clock_ns + cost.net_latency_ns;
                    let mut wire_id = u64::MAX;
                    let mut extra_ns = 0;
                    if let Some(ch) = chaos.as_mut() {
                        // Track every remote transmission for ack/
                        // retransmit; the ingress link may drop or
                        // degrade this attempt.
                        wire_id = ch.register_send(&tx, $from);
                        if ch.should_drop(dst_node, wire_at, wire_id, 0) {
                            ch.note_drop(dst_node, 0);
                            ch.arm_timer(wire_id, wire_at + ch.rto_for(0));
                            probe.transmission_dropped(tx.is_positive(), tx.recv_time());
                            continue; // no flight; the RTO will retransmit
                        }
                        extra_ns = ch.degrade_extra(dst_node, wire_at, wire_id, 0);
                    }
                    let arrive =
                        (wire_at + extra_ns).max(link_free_ns[dst_node]) + cost.msg_wire_ns;
                    link_free_ns[dst_node] = arrive;
                    if let Some(ch) = chaos.as_mut() {
                        // Deadline past the attempt's actual ack round
                        // trip: a healthy link never spuriously
                        // retransmits, no matter the wire backlog.
                        ch.arm_timer(wire_id, arrive + cost.net_latency_ns + ch.rto_for(0));
                    }
                    push_flight!(arrive, wire_id, tx);
                }
            }
        };
    }

    loop {
        // Pick the node with the smallest clock whose next local batch is
        // within the optimism horizon (ties → lowest node id, for
        // determinism). `any_ready` notes work held back by the horizon.
        let horizon = kernel.horizon(last_gvt);
        let mut best: Option<(u64, usize, LpId)> = None;
        let mut any_ready = false;
        for (i, ns) in node_state.iter_mut().enumerate() {
            let head = ns.ready.peek(|lp, t| {
                lps[lp as usize].next_time() == t && assignment[lp as usize] as usize == i
            });
            let Some((t, lp)) = head else { continue };
            any_ready = true;
            if t <= horizon && best.is_none_or(|(clock, ..)| ns.clock_ns < clock) {
                best = Some((ns.clock_ns, i, lp));
            }
        }
        let next_arrival = net.peek().map(|&Reverse((a, _, _))| a);
        let exec_clock = best.map(|(clock, ..)| clock);

        // Chaos agenda: while protocol work (unacked transmissions,
        // in-flight acks) remains it must drain even when nothing else
        // is runnable; once the platform is otherwise quiescent, leftover
        // fault edges are telemetry-only and die with the run. A chaos
        // item runs when strictly earliest — at ties wire/exec work goes
        // first, so a plan whose windows never fire is byte-identical to
        // no plan at all.
        let next_chaos = match (exec_clock, next_arrival) {
            (None, None) => chaos.as_mut().and_then(|ch| ch.next_protocol_ns()),
            _ => chaos.as_mut().and_then(|ch| ch.next_ns()),
        };
        let chaos_due = next_chaos.is_some_and(|c| {
            c < exec_clock.unwrap_or(u64::MAX) && c < next_arrival.unwrap_or(u64::MAX)
        });

        if chaos_due {
            match chaos.as_mut().expect("chaos due").pop_step().expect("chaos item due") {
                ChaosStep::Ack => {}
                ChaosStep::FaultEdge { node, onset, active_now } => {
                    probe.fault_event(node, onset, active_now, last_gvt);
                }
                ChaosStep::Retransmit { wire_id, tx, from_node, attempt, at_ns } => {
                    probe.retransmitted(tx.recv_time());
                    // The sender's CPU re-sends when the timer fires (or
                    // as soon as it is free after that); destination node
                    // re-resolves, so retransmits follow migrated LPs.
                    node_state[from_node].clock_ns = node_state[from_node].clock_ns.max(at_ns);
                    charge!(from_node, cost.msg_send_ns);
                    let dst = tx.dst() as usize;
                    let dst_node = assignment[dst] as usize;
                    let wire_at = node_state[from_node].clock_ns + cost.net_latency_ns;
                    let ch = chaos.as_mut().expect("chaos active");
                    if ch.should_drop(dst_node, wire_at, wire_id, attempt) {
                        ch.note_drop(dst_node, attempt);
                        ch.arm_timer(wire_id, wire_at + ch.rto_for(attempt));
                        probe.transmission_dropped(tx.is_positive(), tx.recv_time());
                    } else {
                        let extra = ch.degrade_extra(dst_node, wire_at, wire_id, attempt);
                        let arrive =
                            (wire_at + extra).max(link_free_ns[dst_node]) + cost.msg_wire_ns;
                        link_free_ns[dst_node] = arrive;
                        ch.arm_timer(wire_id, arrive + cost.net_latency_ns + ch.rto_for(attempt));
                        push_flight!(arrive, wire_id, tx);
                    }
                }
            }
        } else {
            match (best, next_arrival) {
                (None, None) => {
                    // No executable work. Either truly quiescent (done) or
                    // all remaining events sit beyond the optimism window —
                    // then a GVT round must advance the horizon.
                    if any_ready {
                        force_gvt = true;
                    } else {
                        break; // quiescent: done
                    }
                }
                (exec, arr) => {
                    let deliver_first = match (exec_clock, arr) {
                        (Some(c), Some(a)) => a < c,
                        (None, Some(_)) => true,
                        _ => false,
                    };
                    if deliver_first {
                        let Reverse((arrive, _, key)) = net.pop().unwrap();
                        let flight = flights[key].take().expect("wire heap entry without flight");
                        free_flights.push(key);
                        debug_assert_eq!(flight.arrive_ns, arrive);
                        let dst = flight.tx.dst() as usize;
                        let dnode = assignment[dst] as usize;
                        node_state[dnode].clock_ns = node_state[dnode].clock_ns.max(arrive);
                        charge!(dnode, cost.msg_recv_ns);
                        if let Some(ch) = chaos.as_mut() {
                            if flight.wire_id != u64::MAX {
                                // The ack launches at the *wire* arrival
                                // (NIC-level, CPU-free): it lands exactly
                                // one ack latency later, always inside
                                // the retransmit deadline.
                                let v = ch.on_flight_arrival(flight.wire_id, dnode, arrive);
                                if v.ack_dropped {
                                    probe.transmission_dropped(
                                        flight.tx.is_positive(),
                                        flight.tx.recv_time(),
                                    );
                                }
                                if !v.fresh {
                                    // Duplicate of a transmission already
                                    // delivered: the kernel assumes
                                    // exactly-once per event id — discard.
                                    continue;
                                }
                            }
                        }
                        let s = &probe.a.stats;
                        let (rb, undone, coasted) =
                            (s.rollbacks(), s.events_rolled_back, s.events_coasted);
                        lps[dst].receive(app, flight.tx, &mut outbox, probe);
                        let s = &probe.a.stats;
                        if s.rollbacks() > rb {
                            charge!(
                                dnode,
                                cost.rollback_ns
                                    + cost.undo_per_event_ns * (s.events_rolled_back - undone)
                                    + cost.event_exec_ns * (s.events_coasted - coasted)
                            );
                        }
                        node_state[dnode].ready.push(dst as LpId, lps[dst].next_time());
                        route_outbox!(dnode);
                    } else {
                        let (_, ni, lp) = exec.unwrap();
                        node_state[ni].ready.pop();
                        let s = &probe.a.stats;
                        let (processed, saved) = (s.events_processed, s.states_saved);
                        lps[lp as usize].execute_next(app, &mut outbox, probe);
                        let s = &probe.a.stats;
                        charge!(
                            ni,
                            cost.batch_overhead_ns
                                + cost.event_exec_ns * (s.events_processed - processed)
                                + cost.state_save_ns * (s.states_saved - saved)
                        );
                        batches_since_gvt += 1;
                        node_state[ni].ready.push(lp, lps[lp as usize].next_time());
                        route_outbox!(ni);
                    }
                }
            }
        }

        // Periodic GVT + fossil collection (exact: the platform sees
        // everything). Models the cost of a token round on every node.
        if batches_since_gvt >= gvt_every || force_gvt {
            batches_since_gvt = 0;
            force_gvt = false;
            // Two chaos refinements to the in-flight minimum: (a) flights
            // whose wire id was already delivered are duplicates — their
            // stale receive times must not drag GVT below the committed
            // frontier; (b) unacked transmissions (e.g. dropped ones with
            // no flight on the wire) WILL be retransmitted, so GVT must
            // not pass their receive times.
            let in_flight = flights
                .iter()
                .flatten()
                .filter(|f| !chaos.as_ref().is_some_and(|ch| ch.is_delivered(f.wire_id)))
                .map(|f| f.tx.recv_time())
                .min()
                .unwrap_or(VTime::INF)
                .min(chaos.as_ref().map_or(VTime::INF, |ch| ch.unacked_min_recv()));
            let gvt = lps.iter().map(|l| l.local_min()).min().unwrap_or(VTime::INF).min(in_flight);
            last_gvt = gvt;
            let mut held_total = 0u64;
            let mut pending_total = 0u64;
            let mut per_node = vec![0u64; nodes];
            for lp in &mut lps {
                lp.fossil_collect(gvt, probe);
            }
            for (i, lp) in lps.iter().enumerate() {
                let h = lp.state_queue_len() as u64;
                held_total += h;
                pending_total += lp.pending_len() as u64;
                per_node[assignment[i] as usize] += h;
            }
            for (i, &held) in per_node.iter().enumerate() {
                charge!(i, cost.gvt_round_ns);
                if let Some(limit) = cfg.state_limit_per_node {
                    if held > limit {
                        return Err(SimError::OutOfMemory { node: i, states_held: held });
                    }
                }
            }
            let round_clock = node_state.iter().map(|n| n.clock_ns).max().unwrap_or(0);
            probe.gvt_advanced(gvt, held_total, pending_total, round_clock);

            // Dynamic load balancing. GVT commit is the one point where an
            // LP is a compact transferable closure (see `dynlb` module
            // docs): fossil collection just ran, so moving it is copying
            // its current state, surviving checkpoints and pending events.
            // Migration traffic goes through the same network cost model as
            // application messages, so its price shows up in modeled time.
            if let Some(lb) = dynlb.as_deref_mut() {
                if !gvt.is_inf() && probe.a.stats.gvt_rounds.is_multiple_of(lb.cfg.period.max(1)) {
                    let tr = tracker.as_mut().expect("tracker exists when balancing");
                    let mut window = WindowStats::new(lps.len());
                    window.gvt = gvt;
                    for (i, &counters) in probe.a.lps.iter().enumerate() {
                        window.lps[i] = tr.diff(i as LpId, counters);
                    }
                    window.comm = tr.take_comm();
                    // Attribute the modeled latency each node lost to
                    // faults (pause stalls, slowdown surcharges, drop
                    // RTOs, degrade spikes) to its LPs as event
                    // equivalents, so the balancer sees a sick node as
                    // overloaded and routes LPs off it.
                    if let Some(ch) = chaos.as_mut() {
                        for node in 0..nodes {
                            let pen = ch.fault_ns[node] / cost.event_exec_ns.max(1);
                            ch.fault_ns[node] = 0;
                            if pen == 0 {
                                continue;
                            }
                            let members: Vec<usize> = (0..lps.len())
                                .filter(|&l| assignment[l] as usize == node)
                                .collect();
                            if members.is_empty() {
                                continue;
                            }
                            let total: u64 = members.iter().map(|&l| window.lps[l].events).sum();
                            for (k, &l) in members.iter().enumerate() {
                                window.lps[l].fault_penalty =
                                    match (pen * window.lps[l].events).checked_div(total) {
                                        Some(share) => share,
                                        None => {
                                            pen / members.len() as u64
                                                + u64::from((k as u64) < pen % members.len() as u64)
                                        }
                                    };
                            }
                        }
                    }
                    probe.a.stats.lb_rounds += 1;
                    window.round = probe.a.stats.lb_rounds;
                    let plan = lb.balancer.plan(&window, &assignment, nodes, &lb.cfg);
                    for mv in plan {
                        if !move_is_valid(&mv, &assignment, nodes, &pinned) {
                            continue;
                        }
                        let lp = mv.lp as usize;
                        let (src, dst) = (mv.from as usize, mv.to as usize);
                        let pending = lps[lp].pending_len() as u64;
                        let held = lps[lp].state_queue_len() as u64;
                        // The closure serializes as `units` messages on the
                        // destination's ingress link: one for the live
                        // state, one per checkpoint, one per pending event.
                        let units = 1 + pending + held;
                        charge!(src, cost.msg_send_ns * units);
                        let wire_at = node_state[src].clock_ns + cost.net_latency_ns;
                        let arrive = wire_at.max(link_free_ns[dst]) + cost.msg_wire_ns * units;
                        link_free_ns[dst] = arrive;
                        node_state[dst].clock_ns = node_state[dst].clock_ns.max(arrive);
                        charge!(dst, cost.msg_recv_ns * units);
                        assignment[lp] = mv.to;
                        node_state[dst].ready.push(mv.lp, lps[lp].next_time());
                        probe.lp_migrated(mv.lp, mv.from, mv.to, gvt, lps[lp].closure_bytes());
                    }
                }
            }
        }
    }

    // Final commit.
    debug_assert!(
        chaos.as_mut().is_none_or(|ch| ch.next_protocol_ns().is_none()),
        "terminated with unacked transmissions or in-flight acks"
    );
    for lp in &lps {
        debug_assert_eq!(lp.pending_cancel_len(), 0, "LP {} parked with unsent antis", lp.id());
        debug_assert_eq!(lp.orphan_antis_len(), 0, "LP {} has orphan antis", lp.id());
        debug_assert_eq!(lp.pending_len(), 0, "LP {} has unprocessed events", lp.id());
    }
    let mut held_total = 0u64;
    for lp in &lps {
        held_total += lp.state_queue_len() as u64;
    }
    let hw = &mut probe.a.stats.state_queue_high_water;
    *hw = (*hw).max(held_total);
    for lp in &mut lps {
        lp.fossil_collect(VTime::INF, probe);
    }

    let max_clock = node_state.iter().map(|n| n.clock_ns).max().unwrap_or(0);
    Ok((
        lps.into_iter().map(|lp| lp.into_state()).collect(),
        Outcome::Platform {
            exec_time_s: max_clock as f64 / 1e9,
            node_clocks_ns: node_state.iter().map(|n| n.clock_ns).collect(),
        },
    ))
}

/// Modeled execution time of the sequential baseline under the same cost
/// model: `events × seq_event_ns` (single queue, no Time Warp overhead).
pub fn sequential_modeled_time_s(events: u64, cost: &CostModel) -> f64 {
    (events * cost.seq_event_ns) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EventSink;
    use crate::sim::{Backend, RunReport, Simulator};

    /// A ring of LPs passing tokens with per-hop jitter in virtual time:
    /// enough structure for cross-node causality violations.
    #[derive(Debug)]
    struct Ring {
        n: usize,
        hops: u64,
    }
    impl Application for Ring {
        type Msg = u64; // remaining hops
        type State = u64; // tokens seen

        fn num_lps(&self) -> usize {
            self.n
        }
        fn init_state(&self, _lp: LpId) -> u64 {
            0
        }
        fn init_events(&self, lp: LpId, _s: &mut u64, sink: &mut EventSink<u64>) {
            // Every LP launches a token.
            sink.schedule_at(lp, VTime(1).after(lp as u64 % 3), self.hops);
        }
        fn execute(
            &self,
            lp: LpId,
            state: &mut u64,
            _now: VTime,
            msgs: &[(LpId, u64)],
            sink: &mut EventSink<u64>,
        ) {
            for &(_, hops) in msgs {
                *state += 1;
                if hops > 0 {
                    let delay = 1 + (lp as u64 * 7 + hops) % 5;
                    sink.schedule((lp + 1) % self.n as u32, delay, hops - 1);
                }
            }
        }
    }

    fn round_robin(n: usize, nodes: usize) -> Vec<u32> {
        (0..n).map(|i| (i % nodes) as u32).collect()
    }

    fn platform<A: Application>(
        app: &A,
        assignment: &[u32],
        nodes: usize,
        cfg: &PlatformConfig,
    ) -> Result<RunReport<A>, SimError> {
        Simulator::new(app).platform_config(cfg).run(Backend::Platform { assignment, nodes })
    }

    #[test]
    fn matches_sequential_states() {
        let app = Ring { n: 12, hops: 40 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        for nodes in [1, 2, 3, 4] {
            let res =
                platform(&app, &round_robin(12, nodes), nodes, &PlatformConfig::default()).unwrap();
            assert_eq!(res.states, seq.states, "{nodes}-node platform diverged");
            assert_eq!(res.stats.events_committed, seq.stats.events_processed);
        }
    }

    #[test]
    fn multi_node_runs_do_roll_back() {
        // With several nodes and skewed costs, optimism must misfire
        // somewhere — otherwise the test proves nothing.
        let app = Ring { n: 12, hops: 60 };
        let res = platform(&app, &round_robin(12, 4), 4, &PlatformConfig::default()).unwrap();
        assert!(res.stats.rollbacks() > 0, "expected at least one rollback");
        assert!(res.stats.app_messages > 0);
    }

    #[test]
    fn single_node_never_rolls_back() {
        let app = Ring { n: 12, hops: 40 };
        let res = platform(&app, &round_robin(12, 1), 1, &PlatformConfig::default()).unwrap();
        assert_eq!(res.stats.rollbacks(), 0);
        assert_eq!(res.stats.app_messages, 0, "no remote messages on one node");
    }

    #[test]
    fn deterministic() {
        let app = Ring { n: 10, hops: 30 };
        let a = platform(&app, &round_robin(10, 3), 3, &PlatformConfig::default()).unwrap();
        let b = platform(&app, &round_robin(10, 3), 3, &PlatformConfig::default()).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outcome.node_clocks_ns(), b.outcome.node_clocks_ns());
    }

    #[test]
    fn lazy_cancellation_also_matches_sequential() {
        let app = Ring { n: 12, hops: 40 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let cfg = PlatformConfig::builder()
            .kernel(
                KernelConfig::builder()
                    .cancellation(crate::config::Cancellation::Lazy)
                    .build()
                    .unwrap(),
            )
            .build()
            .unwrap();
        let res = platform(&app, &round_robin(12, 4), 4, &cfg).unwrap();
        assert_eq!(res.states, seq.states);
    }

    #[test]
    fn sparse_checkpoints_also_match_sequential() {
        let app = Ring { n: 12, hops: 40 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let cfg = PlatformConfig::builder()
            .kernel(KernelConfig::builder().checkpoint_interval(4).build().unwrap())
            .build()
            .unwrap();
        let res = platform(&app, &round_robin(12, 4), 4, &cfg).unwrap();
        assert_eq!(res.states, seq.states);
    }

    #[test]
    fn bounded_window_matches_sequential_and_throttles_rollbacks() {
        let app = Ring { n: 12, hops: 60 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let free = platform(&app, &round_robin(12, 4), 4, &PlatformConfig::default()).unwrap();
        let cfg = PlatformConfig {
            kernel: KernelConfig { window: Some(3), gvt_period: 8, ..Default::default() },
            ..Default::default()
        };
        let tight = platform(&app, &round_robin(12, 4), 4, &cfg).unwrap();
        assert_eq!(tight.states, seq.states, "throttling must not change results");
        assert!(
            tight.stats.rollbacks() <= free.stats.rollbacks(),
            "window {} rollbacks vs free {}",
            tight.stats.rollbacks(),
            free.stats.rollbacks()
        );
        assert!(tight.stats.gvt_rounds >= free.stats.gvt_rounds);
    }

    #[test]
    fn zero_window_is_fully_conservative() {
        // window = 0: only events at exactly GVT may run — lock-step,
        // rollback-free execution.
        let app = Ring { n: 10, hops: 40 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let cfg = PlatformConfig {
            kernel: KernelConfig { window: Some(0), gvt_period: 4, ..Default::default() },
            ..Default::default()
        };
        let res = platform(&app, &round_robin(10, 4), 4, &cfg).unwrap();
        assert_eq!(res.states, seq.states);
        assert_eq!(res.stats.rollbacks(), 0, "zero window admits no stragglers");
    }

    #[test]
    fn nodes_without_lps_are_harmless() {
        // Partitioners can leave nodes empty on tiny inputs; the platform
        // must still terminate and produce the same history.
        let app = Ring { n: 6, hops: 20 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let assignment: Vec<u32> = (0..6).map(|_| 0).collect(); // all on node 0 of 4
        let res = platform(&app, &assignment, 4, &PlatformConfig::default()).unwrap();
        assert_eq!(res.states, seq.states);
        assert_eq!(res.stats.app_messages, 0);
        let clocks = res.outcome.node_clocks_ns().unwrap();
        assert_eq!(clocks[1], 0, "empty nodes never advance");
    }

    #[test]
    fn memory_limit_triggers_oom() {
        let app = Ring { n: 16, hops: 200 };
        let cfg = PlatformConfig {
            state_limit_per_node: Some(1), // absurdly small: must die
            kernel: KernelConfig { gvt_period: 4, ..Default::default() },
            ..Default::default()
        };
        let err = platform(&app, &round_robin(16, 4), 4, &cfg).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }

    #[test]
    fn invalid_assignment_is_rejected() {
        let app = Ring { n: 6, hops: 10 };
        let short = vec![0u32; 3]; // wrong length
        let err = platform(&app, &short, 2, &PlatformConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        let oob = vec![5u32; 6]; // node index out of range
        let err = platform(&app, &oob, 2, &PlatformConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn builder_rejects_zero_cost_fields() {
        let cost = CostModel { event_exec_ns: 0, ..Default::default() };
        let err = PlatformConfig::builder().cost(cost).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroCost("event_exec_ns"));
    }

    #[test]
    fn exec_time_scales_down_with_nodes_for_parallel_work() {
        // Embarrassingly parallel: disjoint token rings per node.
        struct Pairs {
            n: usize,
        }
        impl Application for Pairs {
            type Msg = u64;
            type State = u64;
            fn num_lps(&self) -> usize {
                self.n
            }
            fn init_state(&self, _lp: LpId) -> u64 {
                0
            }
            fn init_events(&self, lp: LpId, _s: &mut u64, sink: &mut EventSink<u64>) {
                sink.schedule_at(lp, VTime(1), 100);
            }
            fn execute(
                &self,
                lp: LpId,
                state: &mut u64,
                _now: VTime,
                msgs: &[(LpId, u64)],
                sink: &mut EventSink<u64>,
            ) {
                for &(_, k) in msgs {
                    *state += 1;
                    if k > 0 {
                        sink.schedule(lp, 2, k - 1); // self-loop: zero communication
                    }
                }
            }
        }
        let app = Pairs { n: 8 };
        let t1 = platform(&app, &round_robin(8, 1), 1, &PlatformConfig::default())
            .unwrap()
            .outcome
            .exec_time_s()
            .unwrap();
        let t4 = platform(&app, &round_robin(8, 4), 4, &PlatformConfig::default())
            .unwrap()
            .outcome
            .exec_time_s()
            .unwrap();
        assert!(t4 < t1 / 2.5, "4 nodes should cut independent work ~4x: {t1} vs {t4}");
    }
}
