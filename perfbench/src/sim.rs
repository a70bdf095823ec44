//! The two virtual-time workloads: many small S3 groups under workstation
//! crashes, and a few large S2 groups under crashes, link crashes and
//! membership churn. Both run on `ParWorld`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use sle_core::{GroupId, JoinConfig, NodeInstruments, ProcessId, ServiceConfig, ServiceNode};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::crash::CrashProfile;
use sle_harness::deploy;
use sle_net::{LinkCrashSpec, LinkSpec, NetworkModel, SimulatedNetwork};
use sle_obs::{ProtoEvent, Registry, TraceRing};
use sle_sim::{NodeId, ParWorld, SharedActorFactory, SimDuration, SimInstant, SimRng};

use crate::layers::{TracedMedium, TracedNode};
use crate::qos::{self, Qos, QosInput, QosLog};
use crate::report::{self, Metrics, Outcome};
use crate::spans::{self, Count, Span};

type World = ParWorld<TracedNode, TracedMedium<SimulatedNetwork>>;

/// Additive delay floor on every link: the parallel engine's lookahead.
const DELAY_FLOOR: SimDuration = SimDuration::from_millis(1);
/// Virtual time a deployment may take to agree in every group at set-up.
const SETTLE_LIMIT: SimDuration = SimDuration::from_secs(60);
/// Set-up advances in steps of this much virtual time between checks.
const SETTLE_STEP: SimDuration = SimDuration::from_millis(250);
/// Trace ring capacity of the traced run (drained after every run call).
const TRACE_CAPACITY: usize = 1 << 18;

/// Steady membership churn: a member leaves every `every` and rejoins
/// `away` later.
#[derive(Clone, Copy, Debug)]
pub struct Churn {
    /// Interval between two departures.
    pub every: SimDuration,
    /// How long a departed process stays out.
    pub away: SimDuration,
}

/// One virtual-time workload.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Ω variant every service instance runs.
    pub algorithm: ElectorKind,
    /// Workstations.
    pub nodes: usize,
    /// `groups[g]` lists the members of group `g + 1`.
    pub groups: Vec<Vec<NodeId>>,
    /// The failure detector's crash-detection bound T_D.
    pub detection: SimDuration,
    /// Every link's loss and delay.
    pub link: LinkSpec,
    /// Link crashes, if any.
    pub link_crashes: Option<LinkCrashSpec>,
    /// Workstation crashes and recoveries.
    pub crashes: CrashProfile,
    /// Simulator workers.
    pub workers: usize,
    /// Set-ups per untraced run (the median is reported).
    pub setups: usize,
    /// Virtual seconds simulated per requested measurement second.
    pub virtual_per_second: f64,
    /// Membership churn, if any.
    pub churn: Option<Churn>,
    /// Quiet virtual time at the end of the measured span: no crash,
    /// recovery or churn, so the last failovers complete inside it.
    pub tail: SimDuration,
    /// Virtual time the deployment runs on after agreeing, as part of its
    /// set-up, so the set-up's time is mostly protocol work like the
    /// measured phase's rather than allocation.
    pub warmup: SimDuration,
}

impl SimSpec {
    /// `sim-s3-crash`.
    pub fn s3_crash() -> SimSpec {
        SimSpec {
            algorithm: ElectorKind::OmegaL,
            nodes: 1000,
            groups: deploy::strided_groups(1000, 5000, 10),
            detection: SimDuration::from_secs(1),
            link: LinkSpec::from_paper_tuple(10.0, 0.01),
            link_crashes: None,
            crashes: CrashProfile {
                mean_uptime: SimDuration::from_secs(120),
                mean_downtime: SimDuration::from_secs(5),
            },
            workers: 2,
            setups: 3,
            virtual_per_second: 2.0,
            churn: None,
            tail: SimDuration::from_secs(5),
            warmup: SimDuration::ZERO,
        }
    }

    /// `sim-s2-churn`.
    pub fn s2_churn() -> SimSpec {
        SimSpec {
            algorithm: ElectorKind::OmegaLc,
            nodes: 64,
            groups: deploy::strided_groups(64, 16, 16),
            detection: SimDuration::from_secs(1),
            link: LinkSpec::from_paper_tuple(10.0, 0.01),
            link_crashes: Some(LinkCrashSpec::new(
                SimDuration::from_secs(60),
                SimDuration::from_secs(3),
            )),
            crashes: CrashProfile {
                mean_uptime: SimDuration::from_secs(60),
                mean_downtime: SimDuration::from_secs(3),
            },
            workers: 1,
            setups: 10,
            virtual_per_second: 30.0,
            churn: Some(Churn {
                every: SimDuration::from_millis(250),
                away: SimDuration::from_secs(5),
            }),
            tail: SimDuration::from_secs(10),
            warmup: SimDuration::from_secs(10),
        }
    }

    fn processes(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }
}

/// Splitmix64: derives independent input streams from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn build(spec: &SimSpec, seed: u64, instruments: Option<(Registry, TraceRing)>) -> World {
    let deploy::Membership {
        groups_of,
        peers_of,
    } = deploy::membership(spec.nodes, &spec.groups);
    let algorithm = spec.algorithm;
    let join =
        JoinConfig::candidate().with_qos(QosSpec::paper_default_with_detection(spec.detection));
    let workers = spec.workers;
    let factory: SharedActorFactory<TracedNode> = Box::new(move |node, _incarnation| {
        let mut config = ServiceConfig::new(node, peers_of[node.index()].clone(), algorithm);
        for &group in &groups_of[node.index()] {
            config = config.with_auto_join(group, join);
        }
        let mut service = ServiceNode::new(config);
        if let Some((registry, ring)) = &instruments {
            service.set_instruments(NodeInstruments::new(registry, ring.clone(), node));
        }
        TracedNode::new(service, workers)
    });
    let mut model = NetworkModel::new(spec.link.with_min_delay(DELAY_FLOOR));
    if let Some(link_crashes) = spec.link_crashes {
        model = model.with_link_crashes(link_crashes);
    }
    let network = TracedMedium::new(model.build(mix(seed, 1)), workers);
    ParWorld::new(spec.nodes, workers, factory, network, mix(seed, 2))
}

/// The leader every live member of `members` agrees on, if it is live.
/// Members that are down, or whose process has left the group, take no part.
fn agreed_leader(world: &World, group: GroupId, members: &[NodeId]) -> Option<ProcessId> {
    let mut agreed: Option<ProcessId> = None;
    for &member in members {
        let Some(actor) = world.actor(member) else {
            continue;
        };
        if actor.inner.local_members_of(group).is_empty() {
            continue;
        }
        let view = actor.inner.leader_of(group)?;
        match agreed {
            None => agreed = Some(view),
            Some(leader) if leader == view => {}
            Some(_) => return None,
        }
    }
    agreed.filter(|leader| world.is_up(leader.node))
}

fn groups_agreed(world: &World, groups: &[Vec<NodeId>]) -> usize {
    groups
        .iter()
        .enumerate()
        .filter(|(g, members)| agreed_leader(world, GroupId(*g as u32 + 1), members).is_some())
        .count()
}

/// Runs `world` to `deadline`, timing the call (a `sim.run` span).
/// Returns the process CPU seconds the call took.
fn run_to(world: &mut World, deadline: SimInstant, observers: &mut [QosLog]) -> f64 {
    let cpu = report::cpu_s();
    let wall = Instant::now();
    world.run_until(deadline, observers);
    let wall_s = wall.elapsed().as_secs_f64();
    if spans::enabled() {
        spans::record(Span::SimRun, (wall_s * 1e9) as u64);
    }
    report::cpu_s() - cpu
}

/// Runs `world` until every group agrees at once, for at most
/// [`SETTLE_LIMIT`] of virtual time. Returns how many groups agreed.
fn settle(world: &mut World, groups: &[Vec<NodeId>], observers: &mut [QosLog]) -> usize {
    let limit = world.now() + SETTLE_LIMIT;
    loop {
        let agreed = groups_agreed(world, groups);
        if agreed == groups.len() || world.now() >= limit {
            return agreed;
        }
        let next = world.now() + SETTLE_STEP;
        world.run_until(next, observers);
    }
}

/// Builds the deployment, runs it until every group has agreed once, then
/// for the spec's warm-up.
fn set_up(
    spec: &SimSpec,
    seed: u64,
    instruments: Option<(Registry, TraceRing)>,
) -> Result<(World, Vec<QosLog>), String> {
    let mut world = build(spec, seed, instruments);
    let mut observers = vec![QosLog::default(); world.workers()];
    let agreed = settle(&mut world, &spec.groups, &mut observers);
    if agreed < spec.groups.len() {
        return Err(format!(
            "set-up: {agreed} of {} groups agreed after {SETTLE_LIMIT:?} of virtual time",
            spec.groups.len(),
        ));
    }
    let warm = world.now() + spec.warmup;
    world.run_until(warm, &mut observers);
    Ok((world, observers))
}

/// An operation of the fault and churn schedule, applied between run calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    /// A workstation crashes: the leader of a random group's, or a random
    /// live one's.
    Crash { leader: bool },
    /// Some member of some group leaves (chosen when it is due).
    Leave,
    /// The member of `group` on `node` that left comes back.
    Rejoin { group: u32, node: u32 },
}

/// Offset of a crash scheduled between run calls: just after the instant the
/// world has run to.
const NOW: SimDuration = SimDuration::from_micros(1);

#[derive(Default)]
struct Tally {
    crashes: u64,
    leaves: u64,
    joins: u64,
    failed: u64,
    leave_s: Vec<f64>,
    join_s: Vec<f64>,
}

/// The seeded schedule of crashes and churn, and what it did.
struct Schedule<'a> {
    spec: &'a SimSpec,
    rng: SimRng,
    agenda: BinaryHeap<Reverse<(SimInstant, Op)>>,
    /// No crash, recovery or churn after this instant.
    quiet: SimInstant,
    tally: Tally,
}

impl Schedule<'_> {
    /// The workstation a crash operation hits, if any is up.
    fn victim(&mut self, world: &World, leader: bool) -> Option<NodeId> {
        let groups = &self.spec.groups;
        for _ in 0..8 {
            let node = if leader {
                let g = self.rng.uniform_usize(groups.len());
                let Some(l) = agreed_leader(world, GroupId(g as u32 + 1), &groups[g]) else {
                    continue;
                };
                l.node
            } else {
                NodeId(self.rng.uniform_usize(self.spec.nodes) as u32)
            };
            if world.is_up(node) {
                return Some(node);
            }
        }
        None
    }

    /// Applies one operation: crashes through the world's crash schedule,
    /// membership changes through `with_actor`.
    fn apply(&mut self, world: &mut World, observers: &mut [QosLog], op: Op) {
        let now = world.now();
        let workers = world.workers();
        let shard = |node: NodeId| node.index() % workers;
        match op {
            Op::Crash { leader } => {
                let Some(node) = self.victim(world, leader) else {
                    return;
                };
                let down = self.rng.exponential(self.spec.crashes.mean_downtime);
                world.schedule_crash(node, now + NOW);
                world
                    .schedule_recovery(node, (now + NOW + down).min(self.quiet).max(now + NOW * 2));
                self.tally.crashes += 1;
            }
            Op::Leave => {
                let g = self.rng.uniform_usize(self.spec.groups.len());
                let members = &self.spec.groups[g];
                let node = members[self.rng.uniform_usize(members.len())];
                let group = GroupId(g as u32 + 1);
                let Some(actor) = world.actor(node) else {
                    return;
                };
                let Some(&process) = actor.inner.local_members_of(group).first() else {
                    return;
                };
                // The leader stays: a leader leaving is a justified demotion
                // the QoS definition has no input for.
                if actor.inner.leader_of(group).is_some_and(|l| l.node == node) {
                    return;
                }
                let mut result = Ok(());
                let wall = Instant::now();
                world.with_actor(node, &mut observers[shard(node)], |actor, ctx| {
                    result = actor.inner.leave_group(process, group, ctx);
                });
                let took = wall.elapsed();
                self.tally.leaves += 1;
                self.tally.leave_s.push(took.as_secs_f64());
                if spans::enabled() {
                    spans::record(Span::CoreLeave, took.as_nanos() as u64);
                }
                if result.is_err() {
                    self.tally.failed += 1;
                    return;
                }
                observers[shard(node)]
                    .inputs
                    .push((now, node, QosInput::Left { group }));
                let away = self.spec.churn.map_or(SimDuration::ZERO, |c| c.away);
                self.agenda.push(Reverse((
                    now + away,
                    Op::Rejoin {
                        group: group.0,
                        node: node.0,
                    },
                )));
            }
            Op::Rejoin { group, node } => {
                let (group, node) = (GroupId(group), NodeId(node));
                // A crash in between already brought the member back (the
                // restarted service rejoins all its groups), or it is down.
                match world.actor(node) {
                    Some(actor) if actor.inner.local_members_of(group).is_empty() => {}
                    _ => return,
                }
                let join = JoinConfig::candidate()
                    .with_qos(QosSpec::paper_default_with_detection(self.spec.detection));
                let mut result = Ok(());
                let wall = Instant::now();
                world.with_actor(node, &mut observers[shard(node)], |actor, ctx| {
                    let process = actor.inner.register_process();
                    result = actor.inner.join_group(process, group, join, ctx);
                });
                let took = wall.elapsed();
                self.tally.joins += 1;
                self.tally.join_s.push(took.as_secs_f64());
                if spans::enabled() {
                    spans::record(Span::CoreJoin, took.as_nanos() as u64);
                }
                if result.is_err() {
                    self.tally.failed += 1;
                }
            }
        }
    }
}

/// Protocol trace events counted over the measured phase of a traced run.
#[derive(Default)]
struct TraceCounts {
    accusations: u64,
    leader_changes: u64,
    dropped: u64,
    drained_at: u64,
}

impl TraceCounts {
    /// Drains `ring` once it is half full (a drain visits every slot).
    fn drain(&mut self, ring: &TraceRing, measuring: bool, force: bool) {
        if !force && ring.pushed() - self.drained_at < TRACE_CAPACITY as u64 / 2 {
            return;
        }
        self.drained_at = ring.pushed();
        let drain = ring.drain();
        if measuring {
            self.dropped += drain.dropped;
            for record in &drain.events {
                match record.event {
                    ProtoEvent::Accusation { .. } => self.accusations += 1,
                    ProtoEvent::LeaderChange {
                        leader: Some(_), ..
                    } => self.leader_changes += 1,
                    _ => {}
                }
            }
        }
    }
}

/// Runs one virtual-time workload: `spec.setups` set-ups (one when traced),
/// the last of the first half measured for `seconds × virtual_per_second`
/// of virtual time and the second half after it.
pub fn run(spec: &SimSpec, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let setups = if traced { 1 } else { spec.setups };
    // Half of the set-ups (the last of them measured) come before the
    // measured phase and the rest after it, so their median samples the
    // host's speed at both ends of the run rather than at one instant.
    let before = setups.div_ceil(2);
    let mut failures = Vec::new();
    let instruments = traced.then(|| (Registry::default(), TraceRing::new(TRACE_CAPACITY)));
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..before {
        built = None;
        let wall = Instant::now();
        match set_up(spec, seed, instruments.clone()) {
            Ok(pair) => built = Some(pair),
            Err(e) => {
                failures.push(e);
                break;
            }
        }
        setup_s.push(wall.elapsed().as_secs_f64());
    }
    let Some((mut world, mut observers)) = built else {
        return Outcome {
            metrics: Metrics::default(),
            failures,
            attempted: 1,
            failed: 1,
            signature: None,
        };
    };
    let mut trace = TraceCounts::default();
    if let Some((_, ring)) = &instruments {
        trace.drain(ring, false, true);
    }
    let detection_before = instruments
        .as_ref()
        .map(|(r, _)| r.merged_histogram("node.", ".fd.detection_ns"))
        .unwrap_or_default();
    let mistakes_before = instruments.as_ref().map_or(0, |(r, _)| {
        r.snapshot().sum_counters("node.", ".fd.mistakes")
    });

    let t0 = world.now();
    let span = SimDuration::from_millis((seconds as f64 * spec.virtual_per_second * 1e3) as u64);
    let end = t0 + span;
    let quiet = t0 + span.saturating_sub(spec.tail);
    // Crashes come at the population's aggregate rate under the paper's
    // profile (one per `mean_uptime / nodes`), evenly spaced so every seed
    // crashes the same number of workstations; every other one hits the
    // current leader of a random group.
    let mut schedule = Schedule {
        spec,
        rng: SimRng::seed_from(mix(seed, 4)),
        agenda: BinaryHeap::new(),
        quiet,
        tally: Tally::default(),
    };
    let every = spec.crashes.mean_uptime / spec.nodes as u64;
    let mut at = t0 + every;
    let mut leader = true;
    let mut crash_windows = Vec::new();
    while at < quiet {
        schedule.agenda.push(Reverse((at, Op::Crash { leader })));
        crash_windows.push((at.as_nanos(), (at + spec.detection * 2).as_nanos()));
        leader = !leader;
        at += every;
    }
    if traced {
        spans::set_crash_windows(crash_windows);
    }
    if let Some(c) = spec.churn {
        let mut at = t0 + c.every;
        while at + c.away < quiet {
            schedule.agenda.push(Reverse((at, Op::Leave)));
            at += c.every;
        }
    }

    let events_before = world.events_processed();
    let (sent_before, bytes_before): (u64, u64) = observers
        .iter()
        .fold((0, 0), |(s, b), o| (s + o.sent, b + o.bytes));
    let routing_before = world.routing_stats();
    let spans_before = spans::totals();
    let cpu_before = report::cpu_s();
    let wall = Instant::now();
    let mut run_cpu = 0.0;
    let step = SimDuration::from_secs(1);
    loop {
        let next_op = schedule.agenda.peek().map(|Reverse((at, _))| *at);
        let target = next_op.unwrap_or(end).min(world.now() + step).min(end);
        run_cpu += run_to(&mut world, target, &mut observers);
        if let Some((_, ring)) = &instruments {
            trace.drain(ring, true, false);
        }
        while schedule
            .agenda
            .peek()
            .is_some_and(|Reverse((at, _))| *at <= world.now())
        {
            let Reverse((_, op)) = schedule.agenda.pop().expect("peeked");
            schedule.apply(&mut world, &mut observers, op);
        }
        if world.now() >= end {
            break;
        }
    }
    if let Some((_, ring)) = &instruments {
        trace.drain(ring, true, true);
    }
    let tally = schedule.tally;
    let run_s = wall.elapsed().as_secs_f64();
    let cpu_s = report::cpu_s() - cpu_before;
    let layer = spans::totals().since(&spans_before);

    let events = world.events_processed() - events_before;
    let (sent, bytes) = observers
        .iter()
        .fold((0, 0), |(s, b), o| (s + o.sent, b + o.bytes));
    let (sent, bytes) = (sent - sent_before, bytes - bytes_before);
    let routing = world.routing_stats();
    let logs: Vec<_> = observers
        .iter_mut()
        .map(|o| std::mem::take(&mut o.inputs))
        .collect();
    // Eventual agreement: with no more crashes or churn, every group must
    // come to agree on one live leader (links may still crash meanwhile).
    let agreed = settle(&mut world, &spec.groups, &mut observers);
    if agreed < spec.groups.len() {
        failures.push(format!(
            "{} of {} groups did not end agreed on one live leader",
            spec.groups.len() - agreed,
            spec.groups.len()
        ));
    }
    if tally.failed > 0 {
        failures.push(format!("{} churn operations failed", tally.failed));
    }
    let workers = world.workers();
    // Read before the set-ups that follow: building a fresh world after
    // freeing this one raises the high-water mark.
    let peak_rss_mb = report::peak_rss_mb();
    drop(world);
    for _ in before..setups {
        let wall = Instant::now();
        if let Err(e) = set_up(spec, seed, None) {
            failures.push(e);
            break;
        }
        setup_s.push(wall.elapsed().as_secs_f64());
    }
    let per_group = qos::replay(&spec.groups, spec.nodes, &qos::merge(logs), t0, end);
    let qos = Qos::of(&per_group);

    let processes = spec.processes() as f64;
    let virtual_s = span.as_secs_f64();
    let mut m = Metrics::default();
    m.put_note(
        "setup_s",
        report::median(&setup_s),
        "s",
        format!("median of {setup_s:.3?}"),
    );
    m.put_note(
        "run_s",
        run_s,
        "s",
        format!("{virtual_s:.0} s of virtual time"),
    );
    m.put("cpu_s", cpu_s, "s");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    let (q, tail) = report::tail(&qos.recovery_ms);
    let n = qos.recovery_ms.len();
    m.put_note(
        "recovery_p50_ms",
        report::median(&qos.recovery_ms),
        "ms",
        format!("n={n}"),
    );
    m.put_note("recovery_tail_ms", tail, "ms", format!("{q}, n={n}"));
    m.put_note(
        "unjust_per_group_h",
        qos.unjust_per_group_h,
        "1/h",
        format!("{} demotions", qos.unjust),
    );
    m.put("leaderless_frac", qos.leaderless_frac, "ratio");
    m.put(
        "msgs_per_proc_s",
        sent as f64 / processes / virtual_s,
        "1/s",
    );
    m.put(
        "bytes_per_proc_s",
        bytes as f64 / processes / virtual_s,
        "B/s",
    );
    let attempted = qos.leader_crashes + spec.groups.len() as u64 + tally.leaves + tally.joins;
    let failed = qos.unrecovered + (spec.groups.len() - agreed) as u64 + tally.failed;
    m.put_note(
        "failed_frac",
        report::ratio(failed as f64, attempted as f64),
        "ratio",
        format!(
            "{failed} of {attempted}: {} leader crashes ({} workstation crashes), {} groups, \
             {} churn operations",
            qos.leader_crashes,
            tally.crashes,
            spec.groups.len(),
            tally.leaves + tally.joins
        ),
    );

    if traced {
        let children = layer.children_ns(Span::SimRun) as f64;
        let run_cpu_ns = run_cpu * 1e9;
        let sim_self_ns = (run_cpu_ns - children).max(0.0);
        m.put("sim.events", events as f64, "count");
        m.put(
            "sim.dispatch_ns_per_event",
            report::ratio(sim_self_ns, events as f64),
            "ns",
        );
        let (intra, cross) = (routing.0 - routing_before.0, routing.1 - routing_before.1);
        m.put(
            "sim.cross_shard_frac",
            report::ratio(cross as f64, (intra + cross) as f64),
            "ratio",
        );
        let busy = &layer.shard_busy_ns[..workers.min(spans::MAX_SHARDS)];
        let (lo, hi) = busy
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &b| (lo.min(b), hi.max(b)));
        m.put(
            "sim.shard_busy_ratio",
            report::ratio(lo as f64, hi as f64),
            "ratio",
        );
        let transmit = layer.get(Span::NetTransmit);
        m.put("net.transmit_calls", transmit.count as f64, "count");
        m.put("net.transmit_ns_per_call", transmit.ns_per_call(), "ns");
        m.put(
            "net.drop_frac",
            report::ratio(layer.count(Count::NetDropped) as f64, transmit.count as f64),
            "ratio",
        );
        for (span, name) in [
            (Span::CoreAlive, "core.alive"),
            (Span::CoreHello, "core.hello"),
            (Span::CoreOther, "core.other"),
            (Span::CoreTimer, "core.timer"),
        ] {
            let agg = layer.get(span);
            m.put(&format!("{name}.calls"), agg.count as f64, "count");
            m.put(&format!("{name}.ns_per_call"), agg.ns_per_call(), "ns");
        }
        m.put(
            "core.timer.idle_frac",
            report::ratio(
                layer.count(Count::CoreIdleTimers) as f64,
                layer.get(Span::CoreTimer).count as f64,
            ),
            "ratio",
        );
        let callbacks: u64 = [
            Span::CoreAlive,
            Span::CoreHello,
            Span::CoreOther,
            Span::CoreTimer,
            Span::CoreStart,
        ]
        .iter()
        .map(|&s| layer.get(s).count)
        .sum();
        m.put(
            "core.effects_per_call",
            report::ratio(layer.count(Count::CoreEffects) as f64, callbacks as f64),
            "count",
        );
        m.put(
            "core.membership.join_ns",
            report::median(&tally.join_s) * 1e9,
            "ns",
        );
        m.put(
            "core.membership.leave_ns",
            report::median(&tally.leave_s) * 1e9,
            "ns",
        );
        if let Some((registry, _)) = &instruments {
            let detection = report::histogram_since(
                &registry.merged_histogram("node.", ".fd.detection_ns"),
                &detection_before,
            );
            let mistakes =
                registry.snapshot().sum_counters("node.", ".fd.mistakes") - mistakes_before;
            m.put("fd.suspicions", detection.count as f64, "count");
            m.put(
                "fd.mistake_frac",
                report::ratio(mistakes as f64, detection.count as f64),
                "ratio",
            );
            m.put("fd.detection_p50_ms", detection.percentile_ms(0.5), "ms");
        }
        m.put("election.accusations", trace.accusations as f64, "count");
        let member_recoveries: usize = qos
            .recoveries_per_group
            .iter()
            .zip(&spec.groups)
            .map(|(r, members)| r * members.len())
            .sum();
        m.put(
            "election.changes_per_recovery",
            report::ratio(trace.leader_changes as f64, member_recoveries as f64),
            "ratio",
        );
        m.put("obs.trace_dropped", trace.dropped as f64, "count");
        // Attribution: the self times of sim, core and net add up to the
        // CPU time of the run calls by construction (sim is the residual),
        // so the gap is the share of the workers' wall-clock capacity spent
        // outside them: the fault and churn schedule, trace drains, host
        // contention and, on two workers, waits at the epoch barriers. It
        // cannot show time inside the run calls that no layer accounts for.
        let capacity_ns = run_s * 1e9 * workers as f64;
        let gap = 1.0 - report::ratio(sim_self_ns + children, capacity_ns);
        let limit = if workers > 1 { 0.5 } else { 0.1 };
        if gap.is_nan() || gap.abs() > limit {
            failures.push(format!(
                "attribution: sim + core + net self time leaves {gap:.4} of run_s x workers \
                 unexplained (limit {limit})"
            ));
        }
        m.put_note(
            "attribution.gap_frac",
            gap,
            "ratio",
            format!(
                "limit {limit}; sim {:.3} s + core/net {:.3} s of {:.3} s = {} workers x run_s",
                sim_self_ns / 1e9,
                children / 1e9,
                capacity_ns / 1e9,
                workers
            ),
        );
    }

    let signature = format!(
        "events={events} sent={sent} bytes={bytes} recovery_n={} recovery_sum_ms={:?} \
         unjust={} leaderless={:?} leader_crashes={} crashes={} leaves={} joins={}",
        qos.recovery_ms.len(),
        qos.recovery_ms.iter().sum::<f64>(),
        qos.unjust,
        qos.leaderless_frac,
        qos.leader_crashes,
        tally.crashes,
        tally.leaves,
        tally.joins
    );
    Outcome {
        metrics: m,
        failures,
        attempted,
        failed,
        signature: Some(signature),
    }
}
