//! One definition of the paper's QoS for every workload.
//!
//! T_r, λ_u and P_leader are defined once, by
//! [`sle_harness::metrics::MetricsCollector`], for one group. This module
//! extends it to many groups and to sharded worlds without redefining it:
//! each simulator shard (or the runtime's trace drain) yields a log of the
//! three inputs the collector reacts to — crashes, recoveries and leader
//! views — and [`replay`] feeds the merged log, in time order, into one
//! collector per group. Node ids are renumbered group-locally on the way,
//! so every collector sees exactly its own members.

use sle_core::{GroupId, ProcessId, ServiceEvent};
use sle_harness::metrics::{ExperimentMetrics, MetricsCollector};
use sle_sim::observer::Observer;
use sle_sim::{NodeId, SimInstant};

/// One input of the QoS definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QosInput {
    /// The workstation crashed.
    Crash,
    /// The workstation recovered.
    Recover,
    /// The workstation's view of a group's leader changed.
    View {
        /// The group.
        group: GroupId,
        /// The new view.
        leader: Option<ProcessId>,
    },
    /// The workstation's process left a group: it no longer takes part in
    /// that group's agreement until it announces a view again.
    Left {
        /// The group.
        group: GroupId,
    },
}

/// A time-ordered log of [`QosInput`]s plus traffic counts: the observer
/// each simulator shard gets.
#[derive(Clone, Debug, Default)]
pub struct QosLog {
    /// `(time, node, input)` in the order the shard executed them.
    pub inputs: Vec<(SimInstant, NodeId, QosInput)>,
    /// Messages handed to the network.
    pub sent: u64,
    /// Payload bytes handed to the network.
    pub bytes: u64,
}

impl Observer<ServiceEvent> for QosLog {
    fn message_sent(&mut self, _now: SimInstant, _from: NodeId, _to: NodeId, bytes: usize) {
        self.sent += 1;
        self.bytes += bytes as u64;
    }

    fn node_crashed(&mut self, now: SimInstant, node: NodeId) {
        self.inputs.push((now, node, QosInput::Crash));
    }

    fn node_recovered(&mut self, now: SimInstant, node: NodeId, _incarnation: u64) {
        self.inputs.push((now, node, QosInput::Recover));
    }

    fn event_emitted(&mut self, now: SimInstant, node: NodeId, event: &ServiceEvent) {
        let ServiceEvent::LeaderChanged { group, leader } = *event;
        self.inputs
            .push((now, node, QosInput::View { group, leader }));
    }
}

/// Merges per-shard logs into one time order. Ties keep shard order, then
/// each shard's own execution order, so one shard replays exactly as it ran.
pub fn merge(
    logs: Vec<Vec<(SimInstant, NodeId, QosInput)>>,
) -> Vec<(SimInstant, NodeId, QosInput)> {
    let mut keyed: Vec<(SimInstant, usize, usize, NodeId, QosInput)> = logs
        .into_iter()
        .enumerate()
        .flat_map(|(shard, log)| {
            log.into_iter()
                .enumerate()
                .map(move |(i, (at, node, input))| (at, shard, i, node, input))
        })
        .collect();
    keyed.sort_unstable_by_key(|&(at, shard, i, _, _)| (at, shard, i));
    keyed
        .into_iter()
        .map(|(at, _, _, node, input)| (at, node, input))
        .collect()
}

/// Replays `inputs` into one [`MetricsCollector`] per group of `groups`
/// (group `g + 1` has members `groups[g]`), measuring `[from, end]`.
pub fn replay(
    groups: &[Vec<NodeId>],
    nodes: usize,
    inputs: &[(SimInstant, NodeId, QosInput)],
    from: SimInstant,
    end: SimInstant,
) -> Vec<ExperimentMetrics> {
    let mut collectors: Vec<MetricsCollector> = groups
        .iter()
        .enumerate()
        .map(|(g, members)| MetricsCollector::new(GroupId(g as u32 + 1), members.len(), from))
        .collect();
    // `memberships[node]` lists `(group index, local index)` pairs.
    let mut memberships: Vec<Vec<(usize, u32)>> = vec![Vec::new(); nodes];
    for (g, members) in groups.iter().enumerate() {
        for (local, node) in members.iter().enumerate() {
            memberships[node.index()].push((g, local as u32));
        }
    }
    let local_of = |g: usize, node: NodeId| -> NodeId {
        memberships[node.index()]
            .iter()
            .find(|&&(group, _)| group == g)
            .map_or(NodeId(u32::MAX), |&(_, local)| NodeId(local))
    };
    for &(at, node, input) in inputs {
        match input {
            QosInput::Crash => {
                for &(g, local) in &memberships[node.index()] {
                    collectors[g].node_crashed(at, NodeId(local));
                }
            }
            QosInput::Recover => {
                for &(g, local) in &memberships[node.index()] {
                    collectors[g].node_recovered(at, NodeId(local), 0);
                }
            }
            QosInput::View { group, leader } => {
                let g = group.0 as usize - 1;
                let Some(collector) = collectors.get_mut(g) else {
                    continue;
                };
                let local = local_of(g, node);
                if local.0 == u32::MAX {
                    continue;
                }
                // A leader outside the group's members maps to a node the
                // collector never sees up: not a valid leader.
                let leader = leader.map(|p| ProcessId::new(local_of(g, p.node), p.local));
                collector.event_emitted(at, local, &ServiceEvent::LeaderChanged { group, leader });
            }
            QosInput::Left { group } => {
                let g = group.0 as usize - 1;
                let local = local_of(g, node);
                if local.0 != u32::MAX {
                    // The collector's "(re)started, no view yet" state is
                    // exactly a member that takes no part in agreement.
                    collectors[g].node_recovered(at, local, 0);
                }
            }
        }
    }
    collectors.into_iter().map(|c| c.finish(end)).collect()
}

/// The QoS of a whole deployment, merged over groups.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Qos {
    /// Every T_r sample, in milliseconds, group by group.
    pub recovery_ms: Vec<f64>,
    /// T_r samples per group.
    pub recoveries_per_group: Vec<usize>,
    /// Crashes of a group's agreed leader, summed over groups.
    pub leader_crashes: u64,
    /// Leader crashes with no T_r sample by the end of the window.
    pub unrecovered: u64,
    /// Unjustified demotions, summed over groups.
    pub unjust: u64,
    /// λ_u: unjustified demotions per group per hour.
    pub unjust_per_group_h: f64,
    /// 1 − P_leader, averaged over groups.
    pub leaderless_frac: f64,
}

impl Qos {
    /// Merges per-group collector results.
    pub fn of(per_group: &[ExperimentMetrics]) -> Qos {
        let groups = per_group.len().max(1) as f64;
        let mut qos = Qos::default();
        let mut hours = 0.0;
        let mut availability = 0.0;
        for m in per_group {
            qos.recovery_ms
                .extend(m.recovery_samples.iter().map(|s| s * 1e3));
            qos.recoveries_per_group.push(m.recovery_samples.len());
            qos.leader_crashes += m.leader_crashes;
            qos.unrecovered += m
                .leader_crashes
                .saturating_sub(m.recovery_samples.len() as u64);
            qos.unjust += m.unjustified_demotions;
            hours += m.duration.as_secs_f64() / 3600.0;
            availability += m.leader_availability;
        }
        qos.unjust_per_group_h = if hours > 0.0 {
            qos.unjust as f64 / hours
        } else {
            0.0
        };
        qos.leaderless_frac = 1.0 - availability / groups;
        qos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_core::{JoinConfig, ServiceConfig, ServiceNode};
    use sle_election::ElectorKind;
    use sle_fd::QosSpec;
    use sle_harness::crash::{CrashPlan, CrashProfile};
    use sle_net::{LinkSpec, NetworkModel};
    use sle_sim::observer::PairObserver;
    use sle_sim::{ParWorld, SharedActorFactory, SimDuration};

    /// A small single-group scenario — five workstations, lossy links,
    /// frequent crashes — observed by the collector directly and through
    /// this module's log and replay: the numbers must be identical.
    #[test]
    fn single_group_replay_equals_the_collector() {
        let n = 5;
        let group = GroupId(1);
        let factory: SharedActorFactory<ServiceNode> = Box::new(move |node, _| {
            let join = JoinConfig::candidate().with_qos(QosSpec::paper_default_with_detection(
                SimDuration::from_millis(500),
            ));
            ServiceNode::new(
                ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL).with_auto_join(group, join),
            )
        });
        let network = NetworkModel::new(
            LinkSpec::from_paper_tuple(10.0, 0.05).with_min_delay(SimDuration::from_millis(1)),
        )
        .build(3);
        let mut world = ParWorld::new(n, 1, factory, network, 11);
        let span = SimDuration::from_secs(600);
        let profile = CrashProfile {
            mean_uptime: SimDuration::from_secs(60),
            mean_downtime: SimDuration::from_secs(4),
        };
        let plan = CrashPlan::generate(n, span, profile, 5);
        assert!(plan.crash_count() > 20, "the scenario must crash leaders");
        for event in plan.events() {
            if event.is_crash {
                world.schedule_crash(event.node, event.at);
            } else {
                world.schedule_recovery(event.node, event.at);
            }
        }
        let from = SimInstant::ZERO + SimDuration::from_secs(10);
        let mut observers = vec![PairObserver::new(
            QosLog::default(),
            MetricsCollector::new(group, n, from),
        )];
        world.run_for(span, &mut observers);
        let end = world.now();
        let PairObserver {
            first: log,
            second: direct,
        } = observers.pop().expect("one observer");
        let direct = direct.finish(end);

        let members = vec![(0..n as u32).map(NodeId).collect::<Vec<_>>()];
        let replayed = replay(&members, n, &merge(vec![log.inputs]), from, end);
        assert_eq!(replayed.len(), 1);
        let replayed = &replayed[0];
        assert!(
            direct.recovery.count > 5,
            "the scenario must produce T_r samples"
        );
        assert_eq!(replayed.recovery_samples, direct.recovery_samples);
        assert_eq!(replayed.unjustified_demotions, direct.unjustified_demotions);
        assert_eq!(replayed.leader_crashes, direct.leader_crashes);
        assert_eq!(replayed.leader_availability, direct.leader_availability);
        assert_eq!(replayed.mistakes_per_hour, direct.mistakes_per_hour);

        let qos = Qos::of(std::slice::from_ref(replayed));
        assert_eq!(qos.leaderless_frac, 1.0 - direct.leader_availability);
        assert_eq!(qos.unjust_per_group_h, direct.mistakes_per_hour);
    }

    /// Renumbering: a group over workstations 3 and 7 of ten sees them as
    /// its members 0 and 1, and a crash of a non-member touches nothing.
    #[test]
    fn replay_renumbers_members_per_group() {
        let groups = vec![vec![NodeId(3), NodeId(7)]];
        let leader = Some(ProcessId::new(NodeId(7), 0));
        let t = |s: f64| SimInstant::from_secs_f64(s);
        let view = QosInput::View {
            group: GroupId(1),
            leader,
        };
        let inputs = vec![
            (t(0.0), NodeId(3), view),
            (t(0.0), NodeId(7), view),
            (t(2.0), NodeId(5), QosInput::Crash),
            (t(5.0), NodeId(7), QosInput::Crash),
            (
                t(6.0),
                NodeId(3),
                QosInput::View {
                    group: GroupId(1),
                    leader: Some(ProcessId::new(NodeId(3), 0)),
                },
            ),
        ];
        let m = &replay(&groups, 10, &inputs, t(0.0), t(10.0))[0];
        assert_eq!(m.leader_crashes, 1);
        assert_eq!(m.recovery_samples, vec![1.0]);
        assert!((m.leader_availability - 0.9).abs() < 1e-9);
    }
}
