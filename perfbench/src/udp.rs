//! The wall-clock workload: a sharded `Cluster` over the shared-socket UDP
//! plane on loopback, with an open-loop client and seeded leader crashes.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sle_app::{ClientConfig, ClientHub, FencedCounter, FencingAudit};
use sle_core::{
    Cluster, ClusterConfig, GroupId, JoinConfig, ProcessId, ServiceConfig, ServiceEvent,
    ServiceMessage,
};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::deploy;
use sle_obs::{ProtoEvent, Registry, TraceDrain};
use sle_sim::{NodeId, SimDuration, SimInstant, SimRng};
use sle_udp::SharedUdpPlane;

use crate::layers::{ReplyLog, TracedEndpoint};
use crate::qos::{self, Qos, QosInput};
use crate::report::{self, Metrics, Outcome};
use crate::sim::mix;
use crate::spans::{self, Span};

/// Workstations, all in S3 groups of [`MEMBERS`].
const NODES: usize = 200;
const GROUPS: usize = 40;
const MEMBERS: usize = 5;
/// The group whose members run the fenced counter the client writes to.
const CLIENT_GROUP: GroupId = GroupId(1);
/// T_D of every group.
const DETECTION: Duration = Duration::from_millis(250);
/// Open-loop request rate, requests per second: far below what one
/// leader serves on loopback, so only failovers delay requests.
const RATE: f64 = 1000.0;
/// The first crash comes this long after the measured phase starts.
const FIRST_CRASH: Duration = Duration::from_millis(800);
/// Mean interval between crash rounds (uniformly jittered by ±25%).
const CRASH_EVERY: Duration = Duration::from_millis(1200);
/// A crashed leader recovers this long after its crash.
const DOWN: Duration = Duration::from_millis(600);
/// No crash in the last part of the run, so every failover completes.
const QUIET: Duration = Duration::from_millis(1500);
/// Distinct background groups whose leader is crashed in each round.
const BACKGROUND_CRASHES: usize = 9;
/// Set-up fails if the deployment has not agreed in every group by then.
const SETTLE_LIMIT: Duration = Duration::from_secs(30);
/// A batch of requests gives up (and counts as failed) after this long.
const BATCH_DEADLINE: Duration = Duration::from_secs(10);
/// Set-ups per untraced run: agreement forms after a protocol round or
/// two, so single set-ups are bimodal and the median needs several.
const SETUPS: usize = 9;
/// Capacity of each shard's protocol-event trace ring.
const TRACE_CAPACITY: usize = 1 << 16;

type Endpoint = TracedEndpoint<sle_udp::SharedUdpEndpoint<ServiceMessage>>;

struct Deployment {
    cluster: Cluster,
    plane: SharedUdpPlane<ServiceMessage>,
    client: Endpoint,
    replies: Arc<ReplyLog>,
    audit: Arc<FencingAudit>,
    registry: Registry,
    /// When the cluster's clock (its trace timestamps) started, at most.
    origin: Instant,
}

fn groups() -> Vec<Vec<NodeId>> {
    deploy::strided_groups(NODES, GROUPS, MEMBERS)
}

fn agreed_among(cluster: &Cluster, group: GroupId, members: &[NodeId]) -> Option<ProcessId> {
    cluster
        .agreed_leader_among(group, members)
        .filter(|leader| members.contains(&leader.node))
}

/// Binds the plane, starts the cluster, installs the fenced counters and
/// waits until every group has agreed once.
fn set_up(workers: usize) -> Result<Deployment, String> {
    let groups = groups();
    let plane: SharedUdpPlane<ServiceMessage> =
        SharedUdpPlane::bind_loopback(NODES + 1, workers)
            .map_err(|e| format!("binding the UDP plane: {e}"))?;
    let origin = Instant::now();
    let endpoints: Vec<Endpoint> = (0..NODES)
        .map(|i| TracedEndpoint::new(plane.endpoint(NodeId(i as u32)), origin))
        .collect();
    let replies = Arc::new(ReplyLog::default());
    let client = TracedEndpoint::client(
        plane.endpoint(NodeId(NODES as u32)),
        origin,
        Arc::clone(&replies),
    );
    let deploy::Membership {
        groups_of,
        peers_of,
    } = deploy::membership(NODES, &groups);
    let join = JoinConfig::candidate().with_qos(QosSpec::paper_default_with_detection(
        SimDuration::from_nanos(DETECTION.as_nanos() as u64),
    ));
    let configs = (0..NODES)
        .map(|i| {
            let mut config =
                ServiceConfig::new(NodeId(i as u32), peers_of[i].clone(), ElectorKind::OmegaL);
            for &group in &groups_of[i] {
                config = config.with_auto_join(group, join);
            }
            config
        })
        .collect();
    let registry = Registry::default();
    let options = ClusterConfig::new(ElectorKind::OmegaL)
        .with_workers(workers)
        .with_observability(registry.clone())
        .with_trace_capacity(TRACE_CAPACITY);
    let cluster = Cluster::start_with_service_configs(endpoints, configs, &options);
    let audit = FencingAudit::shared();
    for &node in &groups[CLIENT_GROUP.0 as usize - 1] {
        let handle = cluster
            .handle(node)
            .ok_or("no handle for a client-group member")?;
        if !handle.install_app(Box::new(FencedCounter::with_audit(Arc::clone(&audit)))) {
            return Err(format!("installing the fenced counter on {node} failed"));
        }
    }
    // Agreement is read off the cluster's own leader-change events, so the
    // wait neither polls the shards nor rounds up to a poll interval.
    let deadline = Instant::now() + SETTLE_LIMIT;
    let mut views: HashMap<(NodeId, GroupId), ProcessId> = HashMap::new();
    let mut pending: Vec<usize> = (0..groups.len()).collect();
    while !pending.is_empty() {
        let Some(event) = cluster.next_event(deadline.saturating_duration_since(Instant::now()))
        else {
            return Err(format!(
                "set-up: {} of {} groups agreed within {SETTLE_LIMIT:?}",
                groups.len() - pending.len(),
                groups.len()
            ));
        };
        let ServiceEvent::LeaderChanged { group, leader } = event.event;
        match leader {
            Some(leader) => views.insert((event.node, group), leader),
            None => views.remove(&(event.node, group)),
        };
        pending.retain(|&g| {
            let members = &groups[g];
            let group = GroupId(g as u32 + 1);
            let first = views.get(&(members[0], group));
            !(first.is_some_and(|l| members.contains(&l.node))
                && members.iter().all(|&m| views.get(&(m, group)) == first))
        });
    }
    Ok(Deployment {
        cluster,
        plane,
        client,
        replies,
        audit,
        registry,
        origin,
    })
}

/// What the open-loop client saw.
#[derive(Default)]
struct ClientTally {
    due: u64,
    completed: u64,
    attempts: u64,
    redirects: u64,
    timeouts: u64,
    /// Due time → applied reply, per applied request, ms.
    latency_ms: Vec<f64>,
    /// Due time → issue, per request, ms.
    late_ms: Vec<f64>,
    /// Every applied reply's arrival.
    applied_at: Vec<Instant>,
}

/// Sends `RATE` requests per second for `span`, open loop: the requests due
/// so far go out as one batch through the hub; requests that fall due while
/// a batch waits out a failover go out, late, in the next one. Latency is
/// measured from each request's due time.
fn client_loop(
    client: Endpoint,
    replies: &ReplyLog,
    servers: Vec<NodeId>,
    t0: Instant,
    span: Duration,
) -> ClientTally {
    let mut config = ClientConfig::new(CLIENT_GROUP, servers);
    config.deadline = Some(BATCH_DEADLINE);
    let mut hub = ClientHub::new(client, config);
    let total = (span.as_secs_f64() * RATE) as u64;
    let due_at = |i: u64| t0 + Duration::from_secs_f64(i as f64 / RATE);
    let mut tally = ClientTally::default();
    while tally.due < total {
        let now = Instant::now();
        let due_now = ((now.duration_since(t0).as_secs_f64() * RATE) as u64 + 1).min(total);
        if due_now <= tally.due {
            std::thread::sleep(due_at(tally.due).saturating_duration_since(now));
            continue;
        }
        let first = tally.due;
        let batch = due_now - first;
        // Answers to earlier batches reuse this batch's session ids.
        replies.take();
        let issued = Instant::now();
        let report = hub.run_workload(batch, 1, 1);
        let mut answered = vec![false; batch as usize];
        for (session, seq, at) in replies.take() {
            if seq == 0 && session < batch && !answered[session as usize] {
                answered[session as usize] = true;
                tally.latency_ms.push(
                    at.saturating_duration_since(due_at(first + session))
                        .as_secs_f64()
                        * 1e3,
                );
                tally.applied_at.push(at);
            }
        }
        for i in first..due_now {
            tally
                .late_ms
                .push(issued.saturating_duration_since(due_at(i)).as_secs_f64() * 1e3);
        }
        tally.due = due_now;
        tally.completed += report.completed;
        tally.attempts += report.attempts;
        tally.redirects += report.redirects;
        tally.timeouts += report.timeouts;
    }
    tally
}

/// Converts a drained runtime trace into QoS inputs, and counts the
/// accusations and leader announcements at or after `from`.
fn trace_inputs(
    drain: &TraceDrain,
    from: SimInstant,
) -> (Vec<(SimInstant, NodeId, QosInput)>, u64, u64) {
    let mut inputs = Vec::new();
    let (mut accusations, mut changes) = (0, 0);
    for record in &drain.events {
        let measured = record.at >= from;
        let input = match record.event {
            ProtoEvent::Crashed => QosInput::Crash,
            ProtoEvent::Recovered => QosInput::Recover,
            ProtoEvent::LeaderChange { group, leader } => {
                changes += u64::from(measured && leader.is_some());
                QosInput::View {
                    group: GroupId(group),
                    leader: leader.map(|(n, p)| ProcessId::new(NodeId(n), p)),
                }
            }
            ProtoEvent::Accusation { .. } => {
                accusations += u64::from(measured);
                continue;
            }
            _ => continue,
        };
        inputs.push((record.at, record.node, input));
    }
    (inputs, accusations, changes)
}

fn since(origin: Instant, at: Instant) -> SimInstant {
    SimInstant::from_nanos(at.saturating_duration_since(origin).as_nanos() as u64)
}

/// Runs the workload: [`SETUPS`] set-ups (one when traced; the last one is
/// measured), then `seconds` of open-loop requests through seeded crash
/// rounds.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let setups = if traced { 1 } else { SETUPS };
    let workers = report::host_cores();
    let groups = groups();
    let mut failures = Vec::new();
    let mut setup_s = Vec::new();
    let mut deployment = None;
    for _ in 0..setups.max(1) {
        deployment = None;
        let wall = Instant::now();
        match set_up(workers) {
            Ok(d) => deployment = Some(d),
            Err(e) => {
                failures.push(e);
                break;
            }
        }
        setup_s.push(wall.elapsed().as_secs_f64());
    }
    let Some(d) = deployment else {
        return Outcome {
            metrics: Metrics::default(),
            failures,
            attempted: 1,
            failed: 1,
            signature: None,
        };
    };
    let Deployment {
        cluster,
        plane,
        client,
        replies,
        audit,
        registry,
        origin,
    } = d;

    let span = Duration::from_secs(seconds);
    let mut rng = SimRng::seed_from(mix(seed, 5));
    let mut rounds = Vec::new();
    let mut at = FIRST_CRASH;
    while at + QUIET < span {
        rounds.push(at);
        let jitter = rng.uniform_range(0.75, 1.25);
        at += CRASH_EVERY.mul_f64(jitter);
    }
    let client_members = groups[CLIENT_GROUP.0 as usize - 1].clone();
    let stats_before = plane.stats();
    let runtime_before = cluster.runtime_stats();
    let spans_before = spans::totals();
    let detection_before = registry.merged_histogram("node.", ".fd.detection_ns");
    let mistakes_before = registry.snapshot().sum_counters("node.", ".fd.mistakes");
    let cpu_before = report::cpu_s();
    let t0 = Instant::now();
    if traced {
        let windows = rounds
            .iter()
            .map(|&r| {
                let at = since(origin, t0 + r).as_nanos();
                (at, at + 2 * DETECTION.as_nanos() as u64)
            })
            .collect();
        spans::set_crash_windows(windows);
    }

    let mut client_crashes = Vec::new();
    let mut crashes = 0u64;
    let tally = std::thread::scope(|scope| {
        let client_thread = scope.spawn({
            let replies = &replies;
            let servers = client_members.clone();
            move || client_loop(client, replies, servers, t0, span)
        });
        // Crashed leaders and when they recover.
        let mut down: Vec<(Instant, NodeId)> = Vec::new();
        let mut next_round = 0;
        loop {
            let now = Instant::now();
            while down.first().is_some_and(|&(until, _)| until <= now) {
                let (_, node) = down.remove(0);
                cluster.recover(node);
            }
            if next_round < rounds.len() && t0 + rounds[next_round] <= now {
                let mut targets = Vec::new();
                if next_round % 2 == 0 {
                    targets.push(0);
                }
                while targets.len() < usize::from(targets.first() == Some(&0)) + BACKGROUND_CRASHES
                {
                    let g = 1 + rng.uniform_usize(GROUPS - 1);
                    if !targets.contains(&g) {
                        targets.push(g);
                    }
                }
                next_round += 1;
                for g in targets {
                    let alive: Vec<NodeId> = groups[g]
                        .iter()
                        .copied()
                        .filter(|n| down.iter().all(|(_, d)| d != n))
                        .collect();
                    let Some(leader) = agreed_among(&cluster, GroupId(g as u32 + 1), &alive) else {
                        continue;
                    };
                    cluster.crash(leader.node);
                    crashes += 1;
                    if g == 0 {
                        client_crashes.push(Instant::now());
                    }
                    down.push((Instant::now() + DOWN, leader.node));
                }
            }
            if next_round >= rounds.len() && down.is_empty() {
                break;
            }
            let wake = down
                .first()
                .map(|&(until, _)| until)
                .into_iter()
                .chain(rounds.get(next_round).map(|&r| t0 + r))
                .min()
                .unwrap_or(now);
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        }
        client_thread.join().expect("client thread panicked")
    });
    let run_s = t0.elapsed().as_secs_f64();
    let cpu_s = report::cpu_s() - cpu_before;
    let t_end = Instant::now();
    let layer = spans::totals().since(&spans_before);
    let stats = plane.stats();
    let runtime = cluster.runtime_stats();
    let drain = cluster.drain_trace();
    let detection = registry.merged_histogram("node.", ".fd.detection_ns");
    let mistakes = registry.snapshot().sum_counters("node.", ".fd.mistakes") - mistakes_before;
    cluster.shutdown();
    let backlog = plane.pending_backlog();

    let from = since(origin, t0);
    let (inputs, accusations, changes) = trace_inputs(&drain, from);
    let per_group = qos::replay(&groups, NODES, &inputs, from, since(origin, t_end));
    let qos = Qos::of(&per_group);

    let failed = tally.due - tally.completed;
    let snapshot = audit.snapshot();
    if snapshot.violations != 0 {
        failures.push(format!("fencing audit: {} violations", snapshot.violations));
    }
    if backlog != 0 {
        failures.push(format!(
            "{backlog} bytes left pending in the UDP plane at shutdown"
        ));
    }
    if drain.dropped != 0 {
        failures.push(format!(
            "{} trace events lost: the trace-derived recovery times are incomplete",
            drain.dropped
        ));
    }
    if crashes == 0 || qos.recovery_ms.is_empty() {
        failures.push("no leader crash was recovered from".to_string());
    }
    if snapshot.accepts < tally.completed {
        failures.push(format!(
            "the audit saw {} accepted writes but the client {} completions",
            snapshot.accepts, tally.completed
        ));
    }

    let mut applied = tally.applied_at.clone();
    applied.sort_unstable();
    let stalls_ms: Vec<f64> = client_crashes
        .iter()
        .filter_map(|&c| {
            let i = applied.partition_point(|&a| a <= c);
            applied
                .get(i)
                .map(|&a| a.duration_since(c).as_secs_f64() * 1e3)
        })
        .collect();

    let mut m = Metrics::default();
    m.put_note(
        "setup_s",
        report::median(&setup_s),
        "s",
        format!("median of {setup_s:.3?}"),
    );
    m.put_note("run_s", run_s, "s", "paced by the wall clock".to_string());
    m.put("cpu_s", cpu_s, "s");
    m.put("peak_rss_mb", report::peak_rss_mb(), "MiB");
    let n = qos.recovery_ms.len();
    let (q, tail) = report::tail(&qos.recovery_ms);
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
    let processes = (GROUPS * MEMBERS) as f64;
    m.put_note(
        "msgs_per_proc_s",
        (stats.records_sent - stats_before.records_sent) as f64 / processes / run_s,
        "1/s",
        "plane records, client traffic included".to_string(),
    );
    let n = tally.latency_ms.len();
    let (q, tail) = report::tail(&tally.latency_ms);
    m.put_note(
        "req_p50_ms",
        report::median(&tally.latency_ms),
        "ms",
        format!("n={n}"),
    );
    m.put_note("req_tail_ms", tail, "ms", format!("{q}, n={n}"));
    m.put_note(
        "stall_p50_ms",
        report::median(&stalls_ms),
        "ms",
        format!("n={}", stalls_ms.len()),
    );
    m.put_note(
        "failed_frac",
        report::ratio(failed as f64, tally.due as f64),
        "ratio",
        format!("{failed} of {} due requests", tally.due),
    );

    if traced {
        let send = layer.get(Span::UdpSend);
        let flush = layer.get(Span::UdpFlush);
        m.put("udp.send_ns_per_call", send.ns_per_call(), "ns");
        m.put("udp.flush_ns_per_call", flush.ns_per_call(), "ns");
        let datagrams = stats.datagrams_sent - stats_before.datagrams_sent;
        m.put(
            "udp.records_per_datagram",
            report::ratio(
                (stats.records_sent - stats_before.records_sent) as f64,
                datagrams as f64,
            ),
            "ratio",
        );
        m.put("udp.datagrams_per_s", datagrams as f64 / run_s, "1/s");
        let dropped = [
            stats.dropped_oversized - stats_before.dropped_oversized,
            stats.dropped_truncated - stats_before.dropped_truncated,
            stats.dropped_malformed - stats_before.dropped_malformed,
            stats.dropped_misaddressed - stats_before.dropped_misaddressed,
            stats.dropped_misrouted - stats_before.dropped_misrouted,
        ]
        .iter()
        .sum::<u64>();
        let delivered = stats.delivered - stats_before.delivered;
        m.put(
            "udp.drop_frac",
            report::ratio(dropped as f64, (dropped + delivered) as f64),
            "ratio",
        );
        let wakeups = runtime.wakeups - runtime_before.wakeups;
        let idle = runtime.idle_wakeups - runtime_before.idle_wakeups;
        m.put("runtime.wakeups_per_s", wakeups as f64 / run_s, "1/s");
        m.put(
            "runtime.idle_wakeup_frac",
            report::ratio(idle as f64, wakeups as f64),
            "ratio",
        );
        m.put(
            "app.attempts_per_req",
            report::ratio(tally.attempts as f64, tally.due as f64),
            "ratio",
        );
        m.put(
            "app.redirect_frac",
            report::ratio(tally.redirects as f64, tally.attempts as f64),
            "ratio",
        );
        m.put(
            "app.timeout_frac",
            report::ratio(tally.timeouts as f64, tally.attempts as f64),
            "ratio",
        );
        m.put(
            "app.gen_late_p99_ms",
            report::percentile(&tally.late_ms, 990),
            "ms",
        );
        let detection_measured = report::histogram_since(&detection, &detection_before);
        m.put("fd.suspicions", detection_measured.count as f64, "count");
        m.put(
            "fd.mistake_frac",
            report::ratio(mistakes as f64, detection_measured.count as f64),
            "ratio",
        );
        m.put(
            "fd.detection_p50_ms",
            detection_measured.percentile_ms(0.5),
            "ms",
        );
        m.put("election.accusations", accusations as f64, "count");
        let member_recoveries: usize = qos.recoveries_per_group.iter().map(|r| r * MEMBERS).sum();
        m.put(
            "election.changes_per_recovery",
            report::ratio(changes as f64, member_recoveries as f64),
            "ratio",
        );
        m.put("obs.trace_dropped", drain.dropped as f64, "count");
    }

    Outcome {
        metrics: m,
        failures,
        attempted: tally.due,
        failed,
        signature: None,
    }
}
