//! Cross-transport and cross-driver conformance: the full
//! {mesh, udp-per-node, udp-shared} × {legacy, sharded} matrix must execute
//! the identical protocol state machine.
//!
//! The same deterministic 5-node scenario — staggered joins so the rank
//! order is unambiguous, a stable election, a leader crash, a re-election —
//! runs over `sle-net`'s in-memory mesh and over `sle-udp`'s
//! `SharedUdpPlane` twice — with one socket per node (the paper's shape)
//! and with 5 nodes demultiplexed behind 2 sockets — each both in the
//! legacy shape (`workers = n`) and on a 2-worker shard pool. Every one of
//! the six cells must produce **identical elected leaders** at every
//! checkpoint, and its leader-view trace must earn an **equivalent verdict
//! from the chaos invariant checker** (all clean: eventual agreement,
//! stability, mistake budget, single leadership).
//!
//! This is the regression net under the scale-out refactors: a timer-wheel,
//! mailbox, fan-out-batching, shared-monitor, demux or send-coalescing
//! change that altered election behaviour on any transport or driver would
//! break the leader equalities or hand one of the traces a violation the
//! others do not have.

use std::time::{Duration, Instant};

use sle_chaos::{check_trace, InvariantSpec, TraceEvent, TraceEventKind, Violation};
use sle_core::messages::ServiceMessage;
use sle_core::{Cluster, ClusterConfig, GroupId, JoinConfig, ProcessId, ServiceEvent};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_net::link::LinkSpec;
use sle_net::transport::{InMemoryMesh, MessageEndpoint};
use sle_sim::time::{SimDuration, SimInstant};
use sle_sim::NodeId;
use sle_udp::SharedUdpPlane;

const NODES: usize = 5;
const GROUP: GroupId = GroupId(1);
/// The stagger between joins: large enough that clock skew between node
/// threads (milliseconds at worst) can never reorder the candidates'
/// accusation-time ranks.
const JOIN_STAGGER: Duration = Duration::from_millis(500);

/// Which runtime shape drives the scenario.
#[derive(Clone, Copy)]
enum Driver {
    /// The historical one-worker-per-node shape (`workers = n`).
    Legacy,
    /// The sharded fixed-pool runtime.
    Sharded(usize),
}

/// What one transport's run of the scenario produced.
struct Outcome {
    transport: String,
    /// The leader after the initial, staggered election.
    initial_leader: ProcessId,
    /// The leader after the initial leader's host crashed.
    recovered_leader: ProcessId,
    /// The invariant checker's verdict over the run's leader-view trace.
    violations: Vec<Violation>,
}

/// Runs the conformance scenario over whatever transport the endpoints
/// implement, recording every leader-change notification as a trace event.
fn run_scenario<E>(endpoints: Vec<E>, transport: String, driver: Driver) -> Outcome
where
    E: MessageEndpoint<ServiceMessage> + Send + 'static,
{
    assert_eq!(endpoints.len(), NODES);
    let started = Instant::now();
    let mut config = ClusterConfig::new(ElectorKind::OmegaL);
    if let Driver::Sharded(workers) = driver {
        config = config.with_workers(workers);
    }
    let cluster = Cluster::start_endpoints_with_config(endpoints, config);
    let mut trace: Vec<TraceEvent> = Vec::new();

    let now_virtual =
        |started: &Instant| SimInstant::from_nanos(started.elapsed().as_nanos() as u64);
    let drain = |trace: &mut Vec<TraceEvent>| {
        while let Some(event) = cluster.next_event(Duration::from_millis(1)) {
            let ServiceEvent::LeaderChanged { group, leader } = event.event;
            if group == GROUP {
                trace.push(TraceEvent {
                    at: now_virtual(&started),
                    kind: TraceEventKind::View {
                        node: event.node,
                        leader,
                    },
                });
            }
        }
    };

    // Node 0 joins alone and, after the self-election grace period, must
    // elect itself.
    let handle0 = cluster.handle(NodeId(0)).expect("node 0");
    let p0 = handle0
        .join(GROUP, JoinConfig::candidate())
        .expect("join 0");
    let deadline = Instant::now() + Duration::from_secs(8);
    while handle0.leader_of(GROUP) != Some(p0) {
        assert!(
            Instant::now() < deadline,
            "{transport}: node 0 never elected itself"
        );
        drain(&mut trace);
        std::thread::sleep(Duration::from_millis(25));
    }

    // The remaining candidates join strictly later, in id order, so the
    // stable algorithm's rank order (accusation time, then id) is fixed by
    // construction: 0 before 1 before 2, ...
    for i in 1..NODES as u32 {
        std::thread::sleep(JOIN_STAGGER);
        cluster
            .handle(NodeId(i))
            .expect("handle")
            .join(GROUP, JoinConfig::candidate())
            .expect("join");
        drain(&mut trace);
    }

    let initial_leader = cluster
        .await_agreement(GROUP, None, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{transport}: no initial agreement: {e}"));
    drain(&mut trace);

    // Crash the leader's workstation; the survivors must re-elect.
    cluster.crash(initial_leader.node);
    trace.push(TraceEvent {
        at: now_virtual(&started),
        kind: TraceEventKind::Crashed {
            node: initial_leader.node,
        },
    });
    let recovered_leader = cluster
        .await_agreement(GROUP, Some(initial_leader.node), Duration::from_secs(15))
        .unwrap_or_else(|e| panic!("{transport}: no re-election: {e}"));
    drain(&mut trace);

    let end = now_virtual(&started);
    cluster.shutdown();

    // The same invariant checker the chaos sweeps use, over the wall-clock
    // trace: eventual agreement, leader stability (the crash justifies the
    // one demotion), the mistake-recurrence budget, single leadership.
    let spec = InvariantSpec {
        algorithm: ElectorKind::OmegaL,
        nodes: NODES,
        qos: QosSpec::paper_default(),
        settle: SimDuration::from_secs(10),
        end,
    };
    let violations = check_trace(&trace, &spec);

    Outcome {
        transport,
        initial_leader,
        recovered_leader,
        violations,
    }
}

fn mesh_endpoints() -> Vec<sle_net::transport::Endpoint<ServiceMessage>> {
    let mut mesh: InMemoryMesh<ServiceMessage> =
        InMemoryMesh::with_links(NODES, LinkSpec::perfect(), 7);
    (0..NODES)
        .map(|i| mesh.endpoint(NodeId(i as u32)).expect("endpoint"))
        .collect()
}

/// A UDP plane cell: `NODES` nodes behind `sockets` sockets (`NODES` for
/// the per-node cell, 2 for the shared one). The endpoints keep the plane
/// (and its reader threads) alive; it shuts down when the cluster drops
/// them. A handle to the plane is returned alongside so the caller can
/// audit it after the run.
fn udp_endpoints(
    sockets: usize,
) -> (
    SharedUdpPlane<ServiceMessage>,
    Vec<sle_udp::SharedUdpEndpoint<ServiceMessage>>,
) {
    let plane = SharedUdpPlane::bind_loopback(NODES, sockets).expect("bind UDP plane");
    let endpoints = plane.endpoints();
    (plane, endpoints)
}

/// After the cluster has shut down (dropping its endpoints), no coalescing
/// cell may still hold buffered bytes: every send path — runtime batch
/// boundaries, endpoint drop, plane drop — must have flushed. A non-zero
/// backlog means a datagram was composed but never handed to the socket.
fn assert_no_stranded_sends(plane: &SharedUdpPlane<ServiceMessage>, transport: &str) {
    assert_eq!(
        plane.pending_backlog(),
        0,
        "{transport}: coalesced sends stranded in the plane after shutdown"
    );
}

/// Asserts the scenario's pinned outcome: the staggered construction makes
/// node 0 win the initial election, and after its crash the earliest
/// surviving rank — node 1 — takes over, with a clean invariant verdict.
fn assert_expected_outcome(run: &Outcome) {
    assert_eq!(
        run.initial_leader.node,
        NodeId(0),
        "{}: wrong initial leader",
        run.transport
    );
    assert_eq!(
        run.recovered_leader.node,
        NodeId(1),
        "{}: wrong recovered leader",
        run.transport
    );
    assert!(
        run.violations.is_empty(),
        "{}: invariant violations: {:?}",
        run.transport,
        run.violations
    );
}

fn assert_identical(a: &Outcome, b: &Outcome) {
    assert_eq!(a.initial_leader, b.initial_leader);
    assert_eq!(a.recovered_leader, b.recovered_leader);
    assert_eq!(a.violations, b.violations);
}

/// Asserts one driver's row of the matrix: every cell has the pinned
/// outcome, and all pairs are identical (leaders *and* invariant-checker
/// verdicts). The pinned outcome also equalizes the rows against each
/// other: a cell in the other row that diverged would fail its own pinned
/// assertion, so passing both tests proves all six cells identical.
fn assert_matrix_row(runs: &[Outcome]) {
    for run in runs {
        assert_expected_outcome(run);
    }
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            assert_identical(a, b);
        }
    }
}

#[test]
fn legacy_driver_matrix_executes_the_identical_state_machine() {
    // The one-worker-per-node row: in-process mesh, one socket per node,
    // and nodes sharing sockets.
    let (per_node_plane, per_node) = udp_endpoints(NODES);
    let (shared_plane, shared) = udp_endpoints(2);
    let runs = [
        run_scenario(mesh_endpoints(), "mesh/legacy".into(), Driver::Legacy),
        run_scenario(per_node, "udp-per-node/legacy".into(), Driver::Legacy),
        run_scenario(shared, "udp-shared/legacy".into(), Driver::Legacy),
    ];
    assert_no_stranded_sends(&per_node_plane, "udp-per-node/legacy");
    assert_no_stranded_sends(&shared_plane, "udp-shared/legacy");
    assert_matrix_row(&runs);
}

#[test]
fn sharded_driver_matrix_executes_the_identical_state_machine() {
    // The 2-worker shard-pool row. On the shared plane this is the full
    // production shape: push-mode delivery into shard mailboxes plus
    // coalesced sends flushed at the runtime's batch boundaries.
    let (per_node_plane, per_node) = udp_endpoints(NODES);
    let (shared_plane, shared) = udp_endpoints(2);
    let runs = [
        run_scenario(mesh_endpoints(), "mesh/sharded".into(), Driver::Sharded(2)),
        run_scenario(per_node, "udp-per-node/sharded".into(), Driver::Sharded(2)),
        run_scenario(shared, "udp-shared/sharded".into(), Driver::Sharded(2)),
    ];
    assert_no_stranded_sends(&per_node_plane, "udp-per-node/sharded");
    assert_no_stranded_sends(&shared_plane, "udp-shared/sharded");
    assert_matrix_row(&runs);
}
