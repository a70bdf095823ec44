//! Randomised property tests of the core data structures and invariants:
//! candidate ranking, the failure-detector configurator, the link-quality
//! estimator, the freshness monitor, the adaptive tuner and simulator
//! determinism.
//!
//! Cases are generated from the workspace's own deterministic [`SimRng`]
//! (seeded per test), so every run checks the same cases and failures are
//! reproducible without any external property-testing framework.

use sle_adaptive::{AdaptiveTuner, Tuner, TunerConfig};
use sle_election::{AlivePayload, LeaderElector, OmegaL, OmegaLc, Rank};
use sle_fd::{FdConfigurator, LinkQuality, LinkQualityEstimator, PeerMonitor, QosSpec};
use sle_sim::actor::NodeId;
use sle_sim::rng::SimRng;
use sle_sim::time::{SimDuration, SimInstant};

const CASES: usize = 200;

fn instant(nanos: u64) -> SimInstant {
    SimInstant::from_nanos(nanos)
}

/// Rank ordering is total, antisymmetric and prefers earlier accusation
/// times regardless of identifiers.
#[test]
fn rank_ordering_is_consistent() {
    let mut rng = SimRng::seed_from(101);
    for _ in 0..CASES {
        let a_acc = rng.next_u64() % 1_000_000;
        let b_acc = rng.next_u64() % 1_000_000;
        let a_id = (rng.next_u64() % 64) as u32;
        let b_id = (rng.next_u64() % 64) as u32;
        let a = Rank::new(instant(a_acc), NodeId(a_id));
        let b = Rank::new(instant(b_acc), NodeId(b_id));
        // Total order.
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Earlier accusation time always wins.
        if a_acc < b_acc {
            assert!(a < b);
        }
        // Equal components means equal ranks.
        if a_acc == b_acc && a_id == b_id {
            assert_eq!(a, b);
        }
    }
}

/// The configurator always respects the detection bound (η + δ = T_D^U)
/// and its interval floor, whatever the link looks like.
#[test]
fn configurator_respects_detection_bound() {
    let mut rng = SimRng::seed_from(102);
    let configurator = FdConfigurator::default();
    for _ in 0..CASES {
        let loss = rng.uniform_range(0.0, 0.9);
        let delay_ms = rng.uniform_range(0.0, 500.0);
        let jitter_ms = rng.uniform_range(0.0, 500.0);
        let detection_ms = 50 + rng.next_u64() % 4_950;
        let qos = QosSpec::paper_default_with_detection(SimDuration::from_millis(detection_ms));
        let quality = LinkQuality::from_parts(
            loss,
            SimDuration::from_millis_f64(delay_ms),
            SimDuration::from_millis_f64(jitter_ms),
        );
        let params = configurator.compute(&qos, &quality);
        assert_eq!(params.interval + params.shift, qos.detection_time());
        assert!(
            params.interval
                >= configurator
                    .options()
                    .min_interval
                    .min(qos.detection_time())
        );
        assert!(params.interval <= qos.detection_time());
    }
}

/// The estimator's loss probability stays within [0, 1] and its delay
/// estimates are never negative, for arbitrary arrival patterns.
#[test]
fn estimator_outputs_are_well_formed() {
    let mut rng = SimRng::seed_from(103);
    for _ in 0..CASES {
        let mut estimator = LinkQualityEstimator::new(64);
        let n = 1 + rng.uniform_usize(99);
        for _ in 0..n {
            let seq = rng.next_u64() % 500;
            let delay = SimDuration::from_micros(rng.next_u64() % 1_000_000);
            let sent = instant(seq * 1_000_000);
            estimator.record(seq, sent, sent + delay);
        }
        let quality = estimator.estimate();
        assert!((0.0..=1.0).contains(&quality.loss_probability));
        assert!(quality.delay_mean >= SimDuration::ZERO);
        assert!(quality.delay_std_dev >= SimDuration::ZERO);
    }
}

/// NFD-S monitor invariant: after a heartbeat sent at time s with
/// interval η, the peer cannot stay trusted past s + η + δ without any
/// further heartbeat (the crash-detection bound of Chen et al.).
#[test]
fn monitor_never_trusts_past_the_freshness_horizon() {
    let mut rng = SimRng::seed_from(104);
    for _ in 0..CASES {
        let interval_ms = 10 + rng.next_u64() % 990;
        let heartbeats = 1 + rng.uniform_usize(49);
        let qos = QosSpec::paper_default();
        let mut monitor = PeerMonitor::new(qos, SimInstant::ZERO);
        let interval = SimDuration::from_millis(interval_ms);
        let mut now = SimInstant::ZERO;
        let mut last_sent = SimInstant::ZERO;
        for seq in 0..heartbeats as u64 {
            now += interval;
            last_sent = now;
            monitor.on_heartbeat(seq, last_sent, interval, now);
        }
        // The freshness horizon never exceeds last_sent + clamped interval +
        // shift, and the clamped interval plus shift is at most interval + T_D.
        let bound = last_sent + interval.min(qos.detection_time()) + qos.detection_time();
        assert!(monitor.deadline() <= bound);
        // And a check at the horizon suspects the peer.
        let deadline = monitor.deadline();
        assert!(monitor.check(deadline).is_some() || !monitor.is_trusted());
    }
}

/// Stability invariant of the accusation-time algorithms: a process that
/// joins later than the incumbent (and with no accusations around) never
/// takes the leadership away, whatever the ids are.
#[test]
fn later_joiners_never_outrank_incumbents() {
    let mut rng = SimRng::seed_from(105);
    for _ in 0..CASES {
        let incumbent_id = (rng.next_u64() % 32) as u32;
        let joiner_id = (rng.next_u64() % 32) as u32;
        if incumbent_id == joiner_id {
            continue;
        }
        let gap_ms = 1 + rng.next_u64() % 100_000;
        let t0 = SimInstant::ZERO;
        let t1 = t0 + SimDuration::from_millis(gap_ms);
        let incumbent_lc = OmegaLc::new(NodeId(incumbent_id), true, t0);
        let mut joiner_lc = OmegaLc::new(NodeId(joiner_id), true, t1);
        joiner_lc.on_alive(NodeId(incumbent_id), incumbent_lc.alive_payload(), t1);
        assert_eq!(joiner_lc.leader(), Some(NodeId(incumbent_id)));

        let incumbent_l = OmegaL::new(NodeId(incumbent_id), true, t0);
        let mut joiner_l = OmegaL::new(NodeId(joiner_id), true, t1);
        joiner_l.on_alive(NodeId(incumbent_id), incumbent_l.alive_payload(), t1);
        assert_eq!(joiner_l.leader(), Some(NodeId(incumbent_id)));
        assert!(!joiner_l.is_competing(), "the later joiner must withdraw");
    }
}

/// Epoch guard: accusations that do not reference the current epoch never
/// change a process's accusation time.
#[test]
fn stale_accusations_are_ignored() {
    let mut rng = SimRng::seed_from(106);
    for _ in 0..CASES {
        let epoch = 1 + rng.next_u64() % 999;
        let at_ms = rng.next_u64() % 10_000;
        let mut elector = OmegaLc::new(NodeId(1), true, SimInstant::ZERO);
        let before = elector.accusation_time();
        // Any epoch other than the current one (0) must be ignored.
        elector.on_accusation(epoch, instant(at_ms * 1_000_000));
        assert_eq!(elector.accusation_time(), before);
    }
}

/// The exponential sampler is deterministic per seed and produces only
/// non-negative durations.
#[test]
fn exponential_sampling_is_deterministic() {
    let mut rng = SimRng::seed_from(107);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let mean_ms = 1 + rng.next_u64() % 9_999;
        let mean = SimDuration::from_millis(mean_ms);
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..16 {
            let x = a.exponential(mean);
            let y = b.exponential(mean);
            assert_eq!(x, y);
        }
    }
}

/// ALIVE payload wire sizes are consistent: adding the forwarding claim
/// adds exactly 12 bytes.
#[test]
fn payload_wire_size_is_consistent() {
    let mut rng = SimRng::seed_from(108);
    for _ in 0..CASES {
        let acc = rng.next_u64() / 2;
        let epoch = rng.next_u64();
        let without = AlivePayload {
            accusation_time: SimInstant::from_nanos(acc),
            epoch,
            local_leader: None,
        };
        let with = AlivePayload {
            local_leader: Some(sle_election::LeaderClaim {
                node: NodeId(3),
                accusation_time: SimInstant::from_nanos(acc),
            }),
            ..without
        };
        assert_eq!(with.wire_size(), without.wire_size() + 12);
    }
}

/// Adaptive-tuner invariant: whatever the (loss-free) delay stream looks
/// like, a recommendation never exceeds the application's detection bound
/// and its shift always clears the largest observed delay's EWMA regime.
#[test]
fn tuner_recommendations_respect_the_qos_bound() {
    let mut rng = SimRng::seed_from(109);
    let qos = QosSpec::paper_default();
    for _ in 0..50 {
        let mut tuner = AdaptiveTuner::new(TunerConfig::default());
        let peer = NodeId(1);
        let base_delay_ms = rng.uniform_range(0.1, 120.0);
        let mut now = SimInstant::ZERO;
        for seq in 0..100u64 {
            now += SimDuration::from_millis(100);
            let jitter = rng.uniform_range(0.0, base_delay_ms / 2.0);
            let delay = SimDuration::from_millis_f64(base_delay_ms + jitter);
            tuner.observe(peer, seq, now - delay, now);
        }
        if let Some(rec) = tuner.recommend(peer, &qos, now) {
            assert!(rec.detection_bound() <= qos.detection_time());
            assert!(rec.params.worst_case_detection() <= qos.detection_time());
            assert!(rec.params.interval >= TunerConfig::default().min_interval);
            assert_eq!(rec.election_grace(), rec.detection_bound() * 2);
        }
    }
}

/// Ω_l (S3) voluntary withdrawal, asserted over the simulator's own
/// message statistics: once an election settles, only the leader's ALIVEs
/// appear on the wire. Every defeated candidate's ALIVE counter stops, and
/// the window's entire sent-message count is accounted for by the leader's
/// heartbeats plus HELLO gossip — there is no hidden third traffic source.
#[test]
fn omega_l_withdrawal_silences_every_defeated_candidate() {
    use sle_core::{GroupId, JoinConfig, ServiceConfig, ServiceNode};
    use sle_election::ElectorKind;
    use sle_sim::observer::CountingObserver;
    use sle_sim::prelude::{ParWorld, PerfectMedium};

    const NODES: usize = 6;
    const GROUP: GroupId = GroupId(1);
    let settle = SimDuration::from_secs(15);
    let window = SimDuration::from_secs(10);

    let mut seeds = SimRng::seed_from(0x5111_E4CE);
    for _case in 0..5 {
        let seed = seeds.next_u64();
        let mut world: ParWorld<ServiceNode, PerfectMedium> = ParWorld::new(
            NODES,
            1,
            Box::new(move |node, _inc| {
                ServiceNode::new(
                    ServiceConfig::full_mesh(node, NODES, ElectorKind::OmegaL)
                        .with_auto_join(GROUP, JoinConfig::candidate()),
                )
            }),
            PerfectMedium,
            seed,
        );
        let mut observer = [CountingObserver::new()];
        world.run_for(settle, &mut observer);

        // Exactly one node still competes, and it hosts the agreed leader.
        let competing: Vec<NodeId> = (0..NODES as u32)
            .map(NodeId)
            .filter(|&n| world.actor(n).is_some_and(|a| a.is_competing(GROUP)))
            .collect();
        assert_eq!(competing.len(), 1, "seed {seed}: competitors {competing:?}");
        let leader = competing[0];
        for n in (0..NODES as u32).map(NodeId) {
            assert_eq!(
                world.actor(n).unwrap().leader_of(GROUP).map(|p| p.node),
                Some(leader),
                "seed {seed}: {n} disagrees"
            );
        }

        let alives_at = |world: &ParWorld<ServiceNode, PerfectMedium>| -> Vec<u64> {
            (0..NODES as u32)
                .map(|i| world.actor(NodeId(i)).unwrap().alive_payloads_sent())
                .collect()
        };
        let before = alives_at(&world);
        let sent_before = observer[0].sent;
        world.run_for(window, &mut observer);
        let after = alives_at(&world);

        // Only the leader's ALIVE counter moves during the window.
        let mut leader_alives = 0;
        for i in 0..NODES {
            let delta = after[i] - before[i];
            if NodeId(i as u32) == leader {
                assert!(delta > 0, "seed {seed}: the leader must keep sending");
                leader_alives = delta;
            } else {
                assert_eq!(
                    delta, 0,
                    "seed {seed}: defeated candidate n{i} sent {delta} ALIVEs"
                );
            }
        }

        // Message-count accounting over the sim stats: everything sent in
        // the window is the leader's ALIVEs or HELLO gossip (every node
        // gossips to its n-1 peers once per 1 s hello interval).
        let sent_window = observer[0].sent - sent_before;
        let hello_window = sent_window - leader_alives;
        let hellos_per_round = (NODES * (NODES - 1)) as u64;
        let rounds = window.as_secs_f64() as u64;
        assert_eq!(
            hello_window,
            hellos_per_round * rounds,
            "seed {seed}: unexpected non-ALIVE traffic in the window"
        );
        // The leader heartbeats its 5 peers at the most demanding interval
        // its monitors requested — somewhere between the configurator's
        // floor and the 250 ms default, so 40..=60 sends per peer in 10 s.
        let per_peer = leader_alives / (NODES as u64 - 1);
        assert!(
            (40..=60).contains(&per_peer),
            "seed {seed}: unexpected ALIVE cadence ({per_peer} per peer in 10 s)"
        );
    }
}
