//! Threaded executive: one OS thread per WARPED "cluster", real
//! concurrency, `std::sync::mpsc` channels between clusters, and a
//! synchronized (flush-and-barrier) GVT in the style of Samadi's algorithm
//! — the acknowledgment phase is replaced by a cooperative flush, which is
//! exact on reliable in-process channels.
//!
//! This executive exists for machines with real parallel hardware; the
//! experiment harness uses the deterministic [`crate::platform`] executive
//! instead (measured wall-clock on an arbitrary CI box is noise).
//!
//! Scheduling: each cluster keeps its LPs in a dense table indexed by
//! `LpId` and picks its next batch from the same lazy-deletion ready queue
//! the platform executive uses per node, so choosing the lowest-timestamp
//! local LP costs O(log n), not a scan of every local LP.
//!
//! Telemetry: the root probe is [`Probe::fork`]ed once per cluster, each
//! cluster thread feeds its own child (no locking on the hot path), and
//! the children are [`Probe::join`]ed back in cluster-id order — so a
//! recording probe sees a deterministic merge even though thread
//! interleavings differ run to run.
//!
//! Comms: channels carry `Vec<Transmission>` batches, not single
//! messages. Each routing pass coalesces its remote traffic into one
//! buffer per destination cluster and flushes every non-empty buffer with
//! a single channel send, so a rollback that cancels a burst of outputs
//! costs one synchronized send per destination instead of one per
//! anti-message. GVT accounting is unchanged: `routed_this_round` counts
//! *messages*, and buffers are always flushed before a routing pass
//! returns, so the flush-and-barrier termination argument still holds
//! (no message is ever parked in a local buffer across a barrier).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Barrier, Mutex};

use crate::app::Application;
use crate::config::KernelConfig;
use crate::dynlb::{
    move_is_valid, pinned_mask, DynLb, DynLbConfig, LoadBalancer, Migration, WindowStats,
    WindowTracker,
};
use crate::event::{LpId, Transmission};
use crate::lp::LpRuntime;
use crate::probe::Probe;
use crate::ready::ReadyQueue;
use crate::sim::Outcome;
use crate::stats::Counted;
use crate::time::VTime;

/// What one cluster thread returns: the final states of its LPs and its
/// child probe (its own counter fold teed with its child of the caller's
/// probe).
type ClusterOutcome<A, P> = (Vec<(LpId, <A as Application>::State)>, Counted<P>);

/// A batch of transmissions — the unit that travels on inter-cluster
/// channels.
type TxBatch<M> = Vec<Transmission<M>>;

/// A cluster's LPs, indexed by `LpId`; `None` marks an LP another cluster
/// owns. Boxed so that each cluster's slot for a foreign LP costs one
/// pointer, not a whole runtime.
type LpSlots<A> = Vec<Option<Box<LpRuntime<A>>>>;

/// Shared dynamic load-balancing state: the merged per-window statistics,
/// the plan agreed by cluster 0, and per-destination handoff buffers for
/// migrating LP runtimes ("movers"). All accesses happen inside the GVT
/// barrier region, where the flush protocol guarantees no message is in
/// flight — see the `dynlb` module docs.
struct LbShared<'b, A: Application> {
    cfg: DynLbConfig,
    balancer: Mutex<&'b mut dyn LoadBalancer>,
    pinned: Vec<bool>,
    window: Mutex<WindowStats>,
    plan: Mutex<Vec<Migration>>,
    movers: Vec<Mutex<Vec<Box<LpRuntime<A>>>>>,
}

/// Shared GVT coordination state.
struct GvtShared {
    requested: AtomicBool,
    barrier: Barrier,
    /// Per-cluster local minima (`u64::MAX` = ∞), written in phase 3.
    local_mins: Vec<AtomicU64>,
    /// Messages routed during the current flush round, summed across
    /// clusters; the flush repeats until a round routes nothing.
    routed_this_round: AtomicU64,
    /// The agreed GVT of the current round.
    gvt: AtomicU64,
}

/// One cluster's own state: its LPs, the ready queue over them, its copy
/// of the routing table, and the buffers routing reuses.
struct Cluster<A: Application> {
    cid: usize,
    lps: LpSlots<A>,
    ready: ReadyQueue,
    /// Dynamic load balancing rewrites the routing table at GVT commit;
    /// every cluster applies the agreed plan to its own copy inside the
    /// barrier region, so all copies stay identical.
    assignment: Vec<u32>,
    outbox: Vec<Transmission<A::Msg>>,
    /// Per-destination coalescing buffers, reused across routing passes.
    out_bufs: Vec<TxBatch<A::Msg>>,
    tracker: Option<WindowTracker>,
}

impl<A: Application> Cluster<A> {
    /// Hand `tx` to its local destination LP and requeue that LP; any
    /// rollback by-products land in the outbox.
    fn deliver<P: Probe>(&mut self, app: &A, tx: Transmission<A::Msg>, probe: &mut Counted<P>) {
        let dst = tx.dst();
        debug_assert_eq!(self.assignment[dst as usize] as usize, self.cid);
        let lp = self.lps[dst as usize].as_mut().expect("local LP");
        lp.receive(app, tx, &mut self.outbox, probe);
        self.ready.push(dst, lp.next_time());
    }
}

/// The executive proper, generic over the telemetry probe.
// detlint: phase(compute)
pub(crate) fn threaded_core<A: Application, P: Probe>(
    app: &A,
    assignment: &[u32],
    clusters: usize,
    cfg: &KernelConfig,
    probe: &mut Counted<P>,
    mut dynlb: Option<&mut DynLb>,
) -> (Vec<A::State>, Outcome) {
    let cfg = cfg.normalized();

    // With one cluster there is nowhere to migrate to; drop the balancer
    // so the run is indistinguishable from "off".
    if clusters < 2 {
        dynlb = None;
    }
    let lb_shared = dynlb.map(|d| LbShared::<A> {
        cfg: d.cfg,
        balancer: Mutex::new(&mut *d.balancer),
        pinned: pinned_mask(app),
        window: Mutex::new(WindowStats::new(app.num_lps())),
        plan: Mutex::new(Vec::new()),
        movers: (0..clusters).map(|_| Mutex::new(Vec::new())).collect(),
    });

    // Channels: one receiver per cluster (moved into its thread), senders
    // shared by everyone. Channels carry transmission *batches*.
    let mut senders: Vec<Sender<TxBatch<A::Msg>>> = Vec::with_capacity(clusters);
    let mut receivers: Vec<Receiver<TxBatch<A::Msg>>> = Vec::with_capacity(clusters);
    for _ in 0..clusters {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }

    let shared = GvtShared {
        requested: AtomicBool::new(false),
        barrier: Barrier::new(clusters),
        local_mins: (0..clusters).map(|_| AtomicU64::new(u64::MAX)).collect(),
        routed_this_round: AtomicU64::new(0),
        gvt: AtomicU64::new(0),
    };

    // Build every LP into its cluster's slots and seed init events through
    // the channels so every cluster starts with its inbox populated.
    let mut init_events = Vec::new();
    let mut slots: Vec<LpSlots<A>> =
        (0..clusters).map(|_| (0..app.num_lps()).map(|_| None).collect()).collect();
    for (i, &c) in assignment.iter().enumerate() {
        let lp = LpRuntime::new(app, i as LpId, cfg, &mut init_events);
        slots[c as usize][i] = Some(Box::new(lp));
    }
    let mut init_batches: Vec<TxBatch<A::Msg>> = (0..clusters).map(|_| Vec::new()).collect();
    for ev in init_events {
        let c = assignment[ev.dst as usize] as usize;
        init_batches[c].push(Transmission::Positive(ev));
    }
    for (c, batch) in init_batches.into_iter().enumerate() {
        if !batch.is_empty() {
            senders[c].send(batch).expect("receiver alive");
        }
    }

    // detlint: allow(D002, host wall-clock feeds only RunReport/probe telemetry host-time columns and never virtual time)
    let started = std::time::Instant::now();
    let mut joined: Vec<ClusterOutcome<A, P>> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clusters);
        for ((cid, lps), rx) in slots.into_iter().enumerate().zip(receivers) {
            let cluster = Cluster {
                cid,
                lps,
                ready: ReadyQueue::default(),
                assignment: assignment.to_vec(),
                outbox: Vec::new(),
                out_bufs: (0..clusters).map(|_| Vec::new()).collect(),
                tracker: lb_shared.as_ref().map(|_| WindowTracker::new(app.num_lps())),
            };
            let senders = senders.clone();
            let shared = &shared;
            let cfg = &cfg;
            let lb = lb_shared.as_ref();
            let child = probe.fork();
            handles.push(scope.spawn(move || {
                cluster_main(app, cluster, senders, rx, shared, cfg, lb, child, started)
            }));
        }
        for h in handles {
            joined.push(h.join().expect("cluster thread panicked"));
        }
    });
    let wall = started.elapsed();

    // Merge in cluster-id order (the join order above) — deterministic
    // regardless of which thread finished first.
    let mut states: Vec<Option<A::State>> = (0..app.num_lps()).map(|_| None).collect();
    for (lp_states, child) in joined {
        for (id, st) in lp_states {
            states[id as usize] = Some(st);
        }
        probe.join(child);
    }
    (
        states.into_iter().map(|s| s.expect("every LP reported")).collect(),
        Outcome::Threaded { wall },
    )
}

/// Route everything in the cluster's outbox: local → direct delivery
/// (cascading by-products stay in the outbox), remote → per-destination
/// buffer, flushed as one channel send per destination before returning
/// (never parked — the GVT flush protocol depends on it). Returns
/// transmissions routed (messages, not batches).
// detlint: phase(compute|flush)
fn route<A: Application, P: Probe>(
    cl: &mut Cluster<A>,
    senders: &[Sender<TxBatch<A::Msg>>],
    app: &A,
    probe: &mut Counted<P>,
) -> u64 {
    let mut routed = 0;
    while let Some(tx) = cl.outbox.pop() {
        let dst = tx.dst();
        let dc = cl.assignment[dst as usize] as usize;
        if dc == cl.cid {
            cl.deliver(app, tx, probe);
        } else {
            if let Some(tr) = cl.tracker.as_mut().filter(|_| tx.is_positive()) {
                tr.record_comm(tx.id().src, dst);
            }
            probe.remote_message(tx.is_positive(), tx.recv_time());
            routed += 1;
            cl.out_bufs[dc].push(tx);
        }
    }
    for (dc, buf) in cl.out_bufs.iter_mut().enumerate() {
        if !buf.is_empty() {
            probe.a.stats.comm_batches += 1;
            senders[dc].send(std::mem::take(buf)).expect("cluster receiver alive");
        }
    }
    routed
}

/// Deliver every batch waiting in the inbox, routing the by-products of
/// each. Returns the transmissions routed to other clusters.
fn drain<A: Application, P: Probe>(
    cl: &mut Cluster<A>,
    rx: &Receiver<TxBatch<A::Msg>>,
    senders: &[Sender<TxBatch<A::Msg>>],
    app: &A,
    probe: &mut Counted<P>,
) -> u64 {
    let mut routed = 0;
    while let Ok(batch) = rx.try_recv() {
        for tx in batch {
            cl.deliver(app, tx, probe);
        }
        routed += route(cl, senders, app, probe);
    }
    routed
}

// detlint: phase(compute|migrate|fossil)
#[allow(clippy::too_many_arguments)]
fn cluster_main<A: Application, P: Probe>(
    app: &A,
    mut cl: Cluster<A>,
    senders: Vec<Sender<TxBatch<A::Msg>>>,
    rx: Receiver<TxBatch<A::Msg>>,
    shared: &GvtShared,
    cfg: &KernelConfig,
    lb: Option<&LbShared<'_, A>>,
    mut probe: Counted<P>,
    started: std::time::Instant,
) -> ClusterOutcome<A, P> {
    let mut batches_since_gvt = 0u64;
    let mut idle_rounds = 0u32;

    loop {
        // 1. Drain the inbox.
        drain(&mut cl, &rx, &senders, app, &mut probe);

        // 2. GVT round when due locally, when idle (no local LP has work),
        //    or when any cluster requested one.
        let lps = &cl.lps;
        let next =
            cl.ready.peek(|lp, t| lps[lp as usize].as_ref().is_some_and(|l| l.next_time() == t));
        let due = batches_since_gvt >= cfg.gvt_period;
        let idle = next.is_none();
        if due || idle {
            shared.requested.store(true, Ordering::Release);
        }
        if shared.requested.load(Ordering::Acquire) {
            batches_since_gvt = 0;
            let gvt = gvt_round(&mut cl, &rx, &senders, app, shared, &mut probe);
            let (mut held, mut pending) = (0u64, 0u64);
            for lp in cl.lps.iter_mut().flatten() {
                held += lp.state_queue_len() as u64;
                lp.fossil_collect(gvt, &mut probe);
                pending += lp.pending_len() as u64;
            }
            probe.gvt_advanced(gvt, held, pending, started.elapsed().as_nanos() as u64);

            // Dynamic load balancing, inside the barrier region where the
            // flush protocol guarantees zero in-flight messages (see the
            // `dynlb` module docs). The gate is a function of shared state
            // only (`gvt`, the lockstep `gvt_rounds` count, the static
            // period), so every cluster takes the same branch — the
            // barriers below stay matched.
            let mut migrated_in = false;
            if let Some(lbs) = lb {
                if !gvt.is_inf() && probe.a.stats.gvt_rounds.is_multiple_of(lbs.cfg.period.max(1)) {
                    let tracker = cl.tracker.as_mut().expect("tracker exists when balancing");
                    // Phase 1: contribute this cluster's slice of the
                    // window (disjoint LP slots; traffic maps add). The
                    // diff reads this cluster's fold, which is exact: every
                    // local LP is diffed right before any migration, so an
                    // LP's counts on each cluster it visits stay in step
                    // with that cluster's tracker.
                    {
                        let mut window = lbs.window.lock().unwrap();
                        window.gvt = gvt;
                        for lp in cl.lps.iter().flatten() {
                            let id = lp.id();
                            window.lps[id as usize] = tracker.diff(id, probe.a.lps[id as usize]);
                        }
                        for (k, v) in tracker.take_comm() {
                            *window.comm.entry(k).or_insert(0) += v;
                        }
                    }
                    shared.barrier.wait();
                    // Phase 2: cluster 0 plans from the merged window. Any
                    // cluster's assignment copy would do — they are
                    // identical by construction.
                    probe.a.stats.lb_rounds += 1;
                    if cl.cid == 0 {
                        let mut window = lbs.window.lock().unwrap();
                        window.round = probe.a.stats.lb_rounds;
                        let plan = lbs.balancer.lock().unwrap().plan(
                            &window,
                            &cl.assignment,
                            senders.len(),
                            &lbs.cfg,
                        );
                        window.reset();
                        *lbs.plan.lock().unwrap() = plan;
                    }
                    shared.barrier.wait();
                    // Phase 3: every cluster applies the same plan to its
                    // own routing table; sources hand their LP runtimes to
                    // the destination's movers buffer.
                    for mv in lbs.plan.lock().unwrap().iter() {
                        if !move_is_valid(mv, &cl.assignment, senders.len(), &lbs.pinned) {
                            continue;
                        }
                        cl.assignment[mv.lp as usize] = mv.to;
                        if mv.from as usize == cl.cid {
                            let lp = cl.lps[mv.lp as usize].take().expect("migrating LP is local");
                            probe.lp_migrated(mv.lp, mv.from, mv.to, gvt, lp.closure_bytes());
                            lbs.movers[mv.to as usize].lock().unwrap().push(lp);
                        }
                    }
                    shared.barrier.wait();
                    // Phase 4: adopt arrivals. No trailing barrier needed —
                    // every deposit happened before the phase-3 barrier,
                    // and any message a fast cluster routes to a migrated
                    // LP just waits in the owner's channel.
                    for lp in lbs.movers[cl.cid].lock().unwrap().drain(..) {
                        let id = lp.id();
                        cl.ready.push(id, lp.next_time());
                        cl.lps[id as usize] = Some(lp);
                        migrated_in = true;
                    }
                }
            }

            if gvt.is_inf() {
                break;
            }
            if idle && !migrated_in {
                // Back off so an idle cluster doesn't drag the busy ones
                // into a GVT barrier every loop iteration.
                idle_rounds = (idle_rounds + 1).min(10);
                std::thread::sleep(std::time::Duration::from_micros(20 << idle_rounds));
            } else {
                idle_rounds = 0;
            }
            continue;
        }

        // 3. Execute the lowest-timestamp local batch — within the
        //    optimism window, when one is configured (horizon = the GVT
        //    agreed in the last round + window).
        let horizon = cfg.horizon(VTime(shared.gvt.load(Ordering::Acquire)));
        match next {
            Some((t, id)) if t <= horizon => {
                cl.ready.pop();
                let lp = cl.lps[id as usize].as_mut().expect("local LP");
                lp.execute_next(app, &mut cl.outbox, &mut probe);
                cl.ready.push(id, lp.next_time());
                batches_since_gvt += 1;
                route(&mut cl, &senders, app, &mut probe);
            }
            Some(_) => {
                // Blocked at the window edge: a GVT round advances it.
                shared.requested.store(true, Ordering::Release);
            }
            None => {}
        }
    }

    let states = cl.lps.into_iter().flatten().map(|lp| (lp.id(), lp.into_state())).collect();
    (states, probe)
}

/// One synchronized GVT round. All clusters call this together (guaranteed
/// by the `requested` flag being checked every loop iteration). Protocol:
///
/// 1. barrier — everyone has stopped normal processing;
/// 2. repeated flush rounds: drain the inbox and route by-products
///    (rollback antis can cascade), barrier, until a round routes nothing
///    anywhere — at that point no message is in flight;
/// 3. publish local minima, barrier, read the global minimum.
// detlint: phase(flush|gvt)
fn gvt_round<A: Application, P: Probe>(
    cl: &mut Cluster<A>,
    rx: &Receiver<TxBatch<A::Msg>>,
    senders: &[Sender<TxBatch<A::Msg>>],
    app: &A,
    shared: &GvtShared,
    probe: &mut Counted<P>,
) -> VTime {
    shared.barrier.wait();
    loop {
        let routed = drain(cl, rx, senders, app, probe);
        shared.routed_this_round.fetch_add(routed, Ordering::AcqRel);
        shared.barrier.wait();
        let total = shared.routed_this_round.load(Ordering::Acquire);
        shared.barrier.wait(); // everyone has read `total`
        if cl.cid == 0 {
            shared.routed_this_round.store(0, Ordering::Release);
        }
        shared.barrier.wait(); // reset visible before the next round
        if total == 0 {
            break;
        }
    }

    // Publish local minimum.
    let local_min = cl.lps.iter().flatten().map(|lp| lp.local_min()).min().unwrap_or(VTime::INF);
    shared.local_mins[cl.cid].store(local_min.0, Ordering::Release);
    shared.barrier.wait();
    if cl.cid == 0 {
        let gvt =
            shared.local_mins.iter().map(|m| m.load(Ordering::Acquire)).min().unwrap_or(u64::MAX);
        shared.gvt.store(gvt, Ordering::Release);
        shared.requested.store(false, Ordering::Release);
    }
    shared.barrier.wait();
    VTime(shared.gvt.load(Ordering::Acquire))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::EventSink;
    use crate::sim::{Backend, RunReport, Simulator};

    /// The same jittered token ring used by the platform tests.
    struct Ring {
        n: usize,
        hops: u64,
    }
    impl Application for Ring {
        type Msg = u64;
        type State = u64;

        fn num_lps(&self) -> usize {
            self.n
        }
        fn init_state(&self, _lp: LpId) -> u64 {
            0
        }
        fn init_events(&self, lp: LpId, _s: &mut u64, sink: &mut EventSink<u64>) {
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

    fn round_robin(n: usize, c: usize) -> Vec<u32> {
        (0..n).map(|i| (i % c) as u32).collect()
    }

    fn threaded<A: Application>(
        app: &A,
        assignment: &[u32],
        clusters: usize,
        cfg: &KernelConfig,
    ) -> RunReport<A> {
        Simulator::new(app).config(*cfg).run(Backend::Threaded { assignment, clusters }).unwrap()
    }

    #[test]
    fn single_cluster_matches_sequential() {
        let app = Ring { n: 8, hops: 30 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let res = threaded(&app, &round_robin(8, 1), 1, &KernelConfig::default());
        assert_eq!(res.states, seq.states);
        assert_eq!(res.stats.events_committed, seq.stats.events_processed);
    }

    #[test]
    fn single_cluster_never_rolls_back() {
        /// Records every executed batch as `(time, lp, events)`, in
        /// execution order.
        #[derive(Default)]
        struct Order(std::sync::Arc<Mutex<Vec<(VTime, LpId, u64)>>>);
        impl Probe for Order {
            fn batch_executed(&mut self, lp: LpId, now: VTime, events: u64) {
                self.0.lock().unwrap().push((now, lp, events));
            }
            fn fork(&mut self) -> Order {
                Order(self.0.clone())
            }
            fn join(&mut self, _child: Order) {}
        }
        let app = Ring { n: 12, hops: 40 };
        let order = Order::default();
        let seen = order.0.clone();
        let res = Simulator::new(&app)
            .probe(order)
            .run(Backend::Threaded { assignment: &round_robin(12, 1), clusters: 1 })
            .unwrap();
        assert_eq!(res.stats.rollbacks(), 0);
        assert_eq!(res.stats.app_messages, 0, "no remote messages on one cluster");
        // Every hop has delay >= 1, so no batch can appear at a time already
        // reached: the pops must be strictly increasing in `(time, id)`.
        let seen = seen.lock().unwrap();
        assert_eq!(seen.iter().map(|b| b.2).sum::<u64>(), res.stats.events_processed);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "ready queue popped out of order");
    }

    #[test]
    fn two_clusters_match_sequential() {
        let app = Ring { n: 8, hops: 30 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let res = threaded(&app, &round_robin(8, 2), 2, &KernelConfig::default());
        assert_eq!(res.states, seq.states, "threaded must commit the same history");
    }

    #[test]
    fn four_clusters_match_sequential_repeatedly() {
        // Thread interleavings differ run to run; the committed result
        // must not. A handful of repetitions catches gross races.
        let app = Ring { n: 12, hops: 40 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        for _ in 0..5 {
            let res = threaded(&app, &round_robin(12, 4), 4, &KernelConfig::default());
            assert_eq!(res.states, seq.states);
        }
    }

    #[test]
    fn lazy_cancellation_matches_sequential() {
        let app = Ring { n: 8, hops: 30 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let cfg = KernelConfig::builder()
            .cancellation(crate::config::Cancellation::Lazy)
            .gvt_period(16)
            .build()
            .unwrap();
        let res = threaded(&app, &round_robin(8, 2), 2, &cfg);
        assert_eq!(res.states, seq.states);
    }

    #[test]
    fn small_gvt_period_still_terminates() {
        let app = Ring { n: 6, hops: 10 };
        let cfg = KernelConfig::builder().gvt_period(1).build().unwrap();
        let res = threaded(&app, &round_robin(6, 3), 3, &cfg);
        assert!(res.stats.gvt_rounds >= 1);
        assert_eq!(res.stats.final_gvt, VTime::INF);
    }

    #[test]
    fn windowed_threaded_matches_sequential() {
        let app = Ring { n: 10, hops: 30 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let cfg = KernelConfig::builder().window(Some(4)).gvt_period(8).build().unwrap();
        let res = threaded(&app, &round_robin(10, 3), 3, &cfg);
        assert_eq!(res.states, seq.states);
    }

    #[test]
    fn clusters_without_lps_terminate() {
        // An empty cluster has nothing to do but must still participate in
        // GVT rounds and exit — a deadlock here would hang the whole run.
        let app = Ring { n: 6, hops: 15 };
        let seq = Simulator::new(&app).run(Backend::Sequential).unwrap();
        let assignment: Vec<u32> = (0..6).map(|_| 0).collect(); // cluster 1 of 2 empty
        let res = threaded(&app, &assignment, 2, &KernelConfig::default());
        assert_eq!(res.states, seq.states);
    }

    #[test]
    fn empty_application_terminates_quickly() {
        struct Idle;
        impl Application for Idle {
            type Msg = ();
            type State = ();
            fn num_lps(&self) -> usize {
                4
            }
            fn init_state(&self, _lp: LpId) {}
            fn init_events(&self, _lp: LpId, _s: &mut (), _sink: &mut EventSink<()>) {}
            fn execute(
                &self,
                _lp: LpId,
                _s: &mut (),
                _now: VTime,
                _m: &[(LpId, ())],
                _sink: &mut EventSink<()>,
            ) {
            }
        }
        let res = threaded(&Idle, &round_robin(4, 2), 2, &KernelConfig::default());
        assert_eq!(res.stats.events_processed, 0);
    }
}
