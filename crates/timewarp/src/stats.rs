//! Simulation statistics — the quantities the paper's Figures 4–6 plot.
//!
//! The counters are the fold of the [`Probe`] stream: every executive
//! tees the caller's probe with a [`StatsFold`] and reports its final
//! value, so each protocol event is counted in exactly one place.

use crate::event::LpId;
use crate::probe::{Probe, RollbackKind, Tee};
use crate::time::VTime;

/// Per-LP counters, for locating rollback and load hotspots (the paper's
/// framework reported aggregate numbers; per-LP breakdowns are what one
/// actually debugs a bad partition with).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpCounters {
    /// Events this LP processed (including rolled-back work).
    pub events_processed: u64,
    /// Rollbacks this LP suffered (primary + secondary).
    pub rollbacks: u64,
    /// Events undone on this LP.
    pub events_rolled_back: u64,
}

/// Counters collected by every executive. All counts are totals across
/// LPs unless noted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Event batches executed (including ones later rolled back).
    pub batches_executed: u64,
    /// Individual events processed (including ones later rolled back).
    pub events_processed: u64,
    /// Events that were processed and later un-processed by a rollback
    /// (wasted optimistic work).
    pub events_rolled_back: u64,
    /// Events committed (fossil-collected below GVT or remaining at a
    /// clean termination).
    pub events_committed: u64,
    /// Rollbacks caused by a straggler positive event.
    pub primary_rollbacks: u64,
    /// Rollbacks caused by an anti-message (cancellation chasing).
    pub secondary_rollbacks: u64,
    /// Anti-messages sent.
    pub antis_sent: u64,
    /// Positive events annihilated by anti-messages before execution.
    pub annihilated_pending: u64,
    /// Positive application events that crossed cluster/node boundaries —
    /// the "Number of Application Messages" of the paper's Figure 5.
    pub app_messages: u64,
    /// Anti-messages that crossed cluster/node boundaries.
    pub anti_messages_remote: u64,
    /// Channel sends performed by the threaded executive (remote messages
    /// are coalesced into one batch per destination cluster per routing
    /// pass, so this is ≤ `app_messages + anti_messages_remote`; zero on
    /// the sequential and platform executives, which use no channels).
    pub comm_batches: u64,
    /// Block activations: batches in which a fused (compiled-block) LP
    /// swept its instruction buffer. Zero for models that do not declare
    /// app-level work (e.g. gate-per-LP mode, PHOLD).
    pub block_activations: u64,
    /// Fine-grained application operations (compiled gate evaluations)
    /// executed inside block activations, including later-rolled-back
    /// work; coast-forward replays are excluded (they are counted as
    /// `events_coasted`).
    pub ops_executed: u64,
    /// State checkpoints written.
    pub states_saved: u64,
    /// Events re-executed silently during coast-forward (rollback repair
    /// between sparse checkpoints).
    pub events_coasted: u64,
    /// GVT computation rounds.
    pub gvt_rounds: u64,
    /// Dynamic load-balancing rounds executed (0 unless a balancer was
    /// configured via [`crate::Simulator::load_balancer`]).
    pub lb_rounds: u64,
    /// LPs migrated between nodes/clusters by dynamic load balancing.
    pub migrations: u64,
    /// Modeled bytes of LP closure (current state + checkpoints + pending
    /// events) moved by migrations.
    pub migrated_state_bytes: u64,
    /// Gate replicas materialised by the application (static per run: the
    /// extra LPs/ops that exist only to evaluate a copied gate locally;
    /// see logic replication in `pls-partition`). Zero for models without
    /// replication.
    pub replicated_gates: u64,
    /// Boundary messages elided by logic replication: each time a replica's
    /// output toggles, the messages its home copy would have sent to that
    /// part are not sent. Counted under the same processed-work accounting
    /// as `app_messages` (rolled-back work stays counted, coast-forward
    /// replays do not).
    pub messages_saved: u64,
    /// Fault windows opened by an injected [`crate::chaos::FaultPlan`]
    /// (onsets whose platform time the run actually reached). Zero when
    /// chaos is off.
    pub faults_injected: u64,
    /// Transmissions (data or acks) dropped by injected link loss. Each
    /// drop costs one RTO of modeled latency before the retransmit.
    pub transmissions_dropped: u64,
    /// Retransmissions performed by the ack/retransmit protocol.
    pub retransmissions: u64,
    /// Final GVT (== [`VTime::INF`] on clean termination).
    pub final_gvt: VTime,
    /// High-water mark of total saved states held at once (memory proxy;
    /// the paper's s15850 2-node runs died on this).
    pub state_queue_high_water: u64,
}

impl KernelStats {
    /// Total rollbacks (primary + secondary) — the paper's Figure 6 metric.
    pub fn rollbacks(&self) -> u64 {
        self.primary_rollbacks + self.secondary_rollbacks
    }

    /// Efficiency: committed / processed events (1.0 = no wasted work).
    pub fn efficiency(&self) -> f64 {
        if self.events_processed == 0 {
            1.0
        } else {
            self.events_committed as f64 / self.events_processed as f64
        }
    }

    /// Merge counters from another instance (used to aggregate per-cluster
    /// stats; `final_gvt` takes the max, high-water the sum).
    pub fn merge(&mut self, other: &KernelStats) {
        self.batches_executed += other.batches_executed;
        self.events_processed += other.events_processed;
        self.events_rolled_back += other.events_rolled_back;
        self.events_committed += other.events_committed;
        self.primary_rollbacks += other.primary_rollbacks;
        self.secondary_rollbacks += other.secondary_rollbacks;
        self.antis_sent += other.antis_sent;
        self.annihilated_pending += other.annihilated_pending;
        self.app_messages += other.app_messages;
        self.anti_messages_remote += other.anti_messages_remote;
        self.comm_batches += other.comm_batches;
        self.block_activations += other.block_activations;
        self.ops_executed += other.ops_executed;
        self.states_saved += other.states_saved;
        self.events_coasted += other.events_coasted;
        // Synchronized rounds are counted once by every cluster, so they
        // aggregate by max, not sum; migrations are counted only by the
        // source cluster, so they sum.
        self.gvt_rounds = self.gvt_rounds.max(other.gvt_rounds);
        self.lb_rounds = self.lb_rounds.max(other.lb_rounds);
        self.migrations += other.migrations;
        self.migrated_state_bytes += other.migrated_state_bytes;
        // The replica population is a static per-run property recorded
        // identically by every cluster (max); saved messages are counted
        // where the replica executes (sum).
        self.replicated_gates = self.replicated_gates.max(other.replicated_gates);
        self.messages_saved += other.messages_saved;
        self.faults_injected += other.faults_injected;
        self.transmissions_dropped += other.transmissions_dropped;
        self.retransmissions += other.retransmissions;
        self.final_gvt = self.final_gvt.max(other.final_gvt);
        self.state_queue_high_water += other.state_queue_high_water;
    }
}

/// The probe every executive runs: the counter fold teed with the
/// caller's probe.
pub(crate) type Counted<P> = Tee<StatsFold, P>;

/// The probe whose fold is a run's [`KernelStats`] plus its per-LP
/// counters. Counters with no callback (`comm_batches`, `lb_rounds`,
/// `replicated_gates`, `final_gvt` and the platform's end-of-run
/// high-water sample) are written into `stats` directly by the executives.
#[derive(Debug, Default)]
pub(crate) struct StatsFold {
    pub(crate) stats: KernelStats,
    pub(crate) lps: Vec<LpCounters>,
}

impl StatsFold {
    /// A zeroed fold over `n` LPs.
    pub(crate) fn new(n: usize) -> StatsFold {
        StatsFold { stats: KernelStats::default(), lps: vec![LpCounters::default(); n] }
    }
}

impl Probe for StatsFold {
    fn batch_executed(&mut self, lp: LpId, _now: VTime, events: u64) {
        self.stats.batches_executed += 1;
        self.stats.events_processed += events;
        self.lps[lp as usize].events_processed += events;
    }
    fn app_work(&mut self, _lp: LpId, _now: VTime, activations: u64, ops: u64, saved: u64) {
        self.stats.block_activations += activations;
        self.stats.ops_executed += ops;
        self.stats.messages_saved += saved;
    }
    fn rollback_begun(&mut self, lp: LpId, kind: RollbackKind, _from: VTime, _to: VTime) {
        match kind {
            RollbackKind::Primary => self.stats.primary_rollbacks += 1,
            RollbackKind::Secondary => self.stats.secondary_rollbacks += 1,
        }
        self.lps[lp as usize].rollbacks += 1;
    }
    fn rollback_ended(&mut self, lp: LpId, _to: VTime, undone: u64, coasted: u64) {
        self.stats.events_rolled_back += undone;
        self.stats.events_coasted += coasted;
        self.lps[lp as usize].events_rolled_back += undone;
    }
    fn anti_sent(&mut self, _lp: LpId, _sent: VTime) {
        self.stats.antis_sent += 1;
    }
    fn annihilated(&mut self, _lp: LpId, _at: VTime) {
        self.stats.annihilated_pending += 1;
    }
    fn state_saved(&mut self, _lp: LpId, _now: VTime) {
        self.stats.states_saved += 1;
    }
    fn fossil_collected(&mut self, _lp: LpId, _gvt: VTime, committed: u64) {
        self.stats.events_committed += committed;
    }
    fn gvt_advanced(&mut self, _gvt: VTime, states_held: u64, _pending: u64, _wall_ns: u64) {
        self.stats.gvt_rounds += 1;
        self.stats.state_queue_high_water = self.stats.state_queue_high_water.max(states_held);
    }
    fn remote_message(&mut self, positive: bool, _at: VTime) {
        if positive {
            self.stats.app_messages += 1;
        } else {
            self.stats.anti_messages_remote += 1;
        }
    }
    fn lp_migrated(&mut self, _lp: LpId, _from: u32, _to: u32, _gvt: VTime, bytes: u64) {
        self.stats.migrations += 1;
        self.stats.migrated_state_bytes += bytes;
    }
    fn fault_event(&mut self, _node: u32, onset: bool, _active_now: u64, _gvt: VTime) {
        if onset {
            self.stats.faults_injected += 1;
        }
    }
    fn transmission_dropped(&mut self, _positive: bool, _at: VTime) {
        self.stats.transmissions_dropped += 1;
    }
    fn retransmitted(&mut self, _at: VTime) {
        self.stats.retransmissions += 1;
    }
    fn fork(&mut self) -> StatsFold {
        StatsFold::new(self.lps.len())
    }
    fn join(&mut self, child: StatsFold) {
        self.stats.merge(&child.stats);
        for (mine, theirs) in self.lps.iter_mut().zip(child.lps) {
            mine.events_processed += theirs.events_processed;
            mine.rollbacks += theirs.rollbacks;
            mine.events_rolled_back += theirs.events_rolled_back;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollbacks_sum_primary_and_secondary() {
        let s = KernelStats { primary_rollbacks: 3, secondary_rollbacks: 2, ..Default::default() };
        assert_eq!(s.rollbacks(), 5);
    }

    #[test]
    fn efficiency_bounds() {
        let s = KernelStats::default();
        assert_eq!(s.efficiency(), 1.0);
        let s = KernelStats { events_processed: 10, events_committed: 7, ..Default::default() };
        assert!((s.efficiency() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = KernelStats { events_processed: 5, app_messages: 2, ..Default::default() };
        let b = KernelStats {
            events_processed: 7,
            app_messages: 1,
            final_gvt: VTime::INF,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.events_processed, 12);
        assert_eq!(a.app_messages, 3);
        assert_eq!(a.final_gvt, VTime::INF);
    }

    #[test]
    fn fold_forks_zeroed_children_and_joins_per_lp_sums() {
        let mut root = StatsFold::new(2);
        root.batch_executed(0, VTime(1), 2);
        let mut child = root.fork();
        assert_eq!(child.stats, KernelStats::default());
        assert_eq!(child.lps, vec![LpCounters::default(); 2]);
        child.batch_executed(0, VTime(2), 3);
        child.rollback_begun(1, RollbackKind::Secondary, VTime(5), VTime(2));
        child.rollback_ended(1, VTime(2), 4, 1);
        root.join(child);
        assert_eq!(root.stats.batches_executed, 2);
        assert_eq!(root.lps[0].events_processed, 5);
        assert_eq!(
            root.lps[1],
            LpCounters { events_processed: 0, rollbacks: 1, events_rolled_back: 4 }
        );
        assert_eq!(root.stats.secondary_rollbacks, 1);
        assert_eq!(root.stats.events_coasted, 1);
    }

    #[test]
    fn merge_rules_for_lb_counters() {
        // lb_rounds counts synchronized rounds (max, like gvt_rounds);
        // migrations and bytes are per-source (sum).
        let mut a = KernelStats {
            lb_rounds: 3,
            migrations: 2,
            migrated_state_bytes: 100,
            ..Default::default()
        };
        let b = KernelStats {
            lb_rounds: 3,
            migrations: 1,
            migrated_state_bytes: 40,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.lb_rounds, 3);
        assert_eq!(a.migrations, 3);
        assert_eq!(a.migrated_state_bytes, 140);
    }
}
