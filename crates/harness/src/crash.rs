//! Workstation crash/recovery injection.
//!
//! The paper's experiments crash every workstation at exponentially
//! distributed intervals (mean 600 s) and bring it back after an
//! exponentially distributed recovery time (mean 5 s); the crash kills the
//! service instance and the application process on that workstation
//! (Section 6.1). [`CrashPlan`] pre-computes such a schedule deterministically
//! from a seed and installs it into a simulator [`ParWorld`].

use sle_sim::actor::{Actor, NodeId};
use sle_sim::medium::Medium;
use sle_sim::par::ParWorld;
use sle_sim::rng::SimRng;
use sle_sim::time::{SimDuration, SimInstant};

/// Parameters of the workstation crash/recovery process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashProfile {
    /// Mean time between two consecutive crashes of the same workstation.
    pub mean_uptime: SimDuration,
    /// Mean time a crashed workstation takes to recover.
    pub mean_downtime: SimDuration,
}

impl CrashProfile {
    /// The paper's profile: a crash every 10 minutes, 5 seconds to recover.
    pub fn paper_default() -> Self {
        CrashProfile {
            mean_uptime: SimDuration::from_secs(600),
            mean_downtime: SimDuration::from_secs(5),
        }
    }
}

/// A single scheduled crash or recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The affected workstation.
    pub node: NodeId,
    /// When the event happens.
    pub at: SimInstant,
    /// `true` for a crash, `false` for a recovery.
    pub is_crash: bool,
}

/// A deterministic schedule of crashes and recoveries for a set of
/// workstations.
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    events: Vec<CrashEvent>,
}

impl CrashPlan {
    /// A plan with no crashes at all.
    pub fn none() -> Self {
        CrashPlan::default()
    }

    /// Generates a plan for `nodes` workstations over `duration`, following
    /// `profile`, deterministically from `seed`.
    pub fn generate(nodes: usize, duration: SimDuration, profile: CrashProfile, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let mut events = Vec::new();
        let horizon = SimInstant::ZERO + duration;
        for node in 0..nodes {
            let mut node_rng = rng.fork(node as u64);
            let mut at = SimInstant::ZERO + node_rng.exponential(profile.mean_uptime);
            while at < horizon {
                events.push(CrashEvent {
                    node: NodeId(node as u32),
                    at,
                    is_crash: true,
                });
                at += node_rng.exponential(profile.mean_downtime);
                if at >= horizon {
                    break;
                }
                events.push(CrashEvent {
                    node: NodeId(node as u32),
                    at,
                    is_crash: false,
                });
                at += node_rng.exponential(profile.mean_uptime);
            }
        }
        events.sort_by_key(|e| e.at);
        CrashPlan { events }
    }

    /// The scheduled events, in time order.
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }

    /// Number of crashes in the plan.
    pub fn crash_count(&self) -> usize {
        self.events.iter().filter(|e| e.is_crash).count()
    }

    /// Installs the plan into a simulator world.
    pub fn install<A: Actor, M: Medium>(&self, world: &mut ParWorld<A, M>) {
        for event in &self.events {
            if event.is_crash {
                world.schedule_crash(event.node, event.at);
            } else {
                world.schedule_recovery(event.node, event.at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_ordered() {
        let profile = CrashProfile::paper_default();
        let a = CrashPlan::generate(12, SimDuration::from_secs(3600), profile, 9);
        let b = CrashPlan::generate(12, SimDuration::from_secs(3600), profile, 9);
        assert_eq!(a.events(), b.events());
        assert!(a.events().windows(2).all(|w| w[0].at <= w[1].at));
        let c = CrashPlan::generate(12, SimDuration::from_secs(3600), profile, 10);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn crash_rate_roughly_matches_profile() {
        // 12 workstations for 10 hours with a 600 s MTTF: ~720 crashes.
        let plan = CrashPlan::generate(
            12,
            SimDuration::from_secs(36_000),
            CrashProfile::paper_default(),
            3,
        );
        let crashes = plan.crash_count();
        assert!(
            (500..1000).contains(&crashes),
            "unexpected crash count {crashes}"
        );
    }

    #[test]
    fn alternation_per_node_starts_with_a_crash() {
        let plan = CrashPlan::generate(
            3,
            SimDuration::from_secs(7200),
            CrashProfile::paper_default(),
            5,
        );
        for node in 0..3u32 {
            let events: Vec<&CrashEvent> = plan
                .events()
                .iter()
                .filter(|e| e.node == NodeId(node))
                .collect();
            if events.is_empty() {
                continue;
            }
            assert!(events[0].is_crash);
            for pair in events.windows(2) {
                assert_ne!(pair[0].is_crash, pair[1].is_crash, "must alternate");
            }
        }
    }

    #[test]
    fn empty_plan() {
        let plan = CrashPlan::none();
        assert_eq!(plan.crash_count(), 0);
        assert!(plan.events().is_empty());
    }
}
