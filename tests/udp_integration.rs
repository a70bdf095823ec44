//! End-to-end over real sockets: the full service stack (wire codec + UDP
//! transport + failure detector + elector + service) running as three
//! real-time nodes on 127.0.0.1, one socket per node: exactly the
//! daemon-per-workstation deployment of the paper, but on one machine.

use std::time::{Duration, Instant};

use sle_core::messages::ServiceMessage;
use sle_core::{Cluster, GroupId, JoinConfig};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_sim::NodeId;
use sle_udp::SharedUdpPlane;

const GROUP: GroupId = GroupId(1);

#[test]
fn three_udp_nodes_elect_and_survive_a_leader_crash() {
    let n = 3u32;
    let plane = SharedUdpPlane::<ServiceMessage>::bind_loopback(n as usize, n as usize)
        .expect("bind loopback");
    let cluster = Cluster::start_with_endpoints(plane.endpoints(), ElectorKind::OmegaLc);

    for i in 0..n {
        cluster
            .handle(NodeId(i))
            .unwrap()
            .join(GROUP, JoinConfig::candidate())
            .expect("join over UDP");
    }

    // Initial, stable election over real sockets.
    let leader = cluster
        .await_agreement(GROUP, None, Duration::from_secs(10))
        .expect("initial election");

    // The leadership must be *stable*: with no crash, the same leader must
    // still hold office a moment later.
    std::thread::sleep(Duration::from_secs(1));
    assert_eq!(
        cluster.agreed_leader(GROUP, None),
        Some(leader),
        "leadership changed without any failure"
    );

    // Kill the leader and require a re-election within the configured QoS
    // bound. The paper-default FD budget is T_D^U = 1 s of detection; the
    // service adds its self-election grace and the survivors must then
    // converge. A 10 s wall-clock ceiling covers that with generous
    // scheduling slack — the in-simulator figures put recovery around the
    // detection bound itself.
    assert_eq!(
        QosSpec::paper_default().detection_time(),
        sle_sim::time::SimDuration::from_secs(1)
    );
    cluster.crash(leader.node);
    let crashed_at = Instant::now();
    let new_leader = cluster
        .await_agreement(GROUP, Some(leader.node), Duration::from_secs(10))
        .expect("re-election within the detection + grace bound");
    assert_ne!(new_leader.node, leader.node, "old leader was not demoted");

    // Belt and braces: the bound actually held, with room to spare.
    assert!(
        crashed_at.elapsed() <= Duration::from_secs(10),
        "re-election exceeded the configured bound"
    );

    cluster.shutdown();

    // Real datagrams flowed, and the plane refused none of our own traffic
    // (every peer speaks the same wire version, every message the protocol
    // emits fits one record, and each socket hosts exactly one node).
    let snapshot = plane.stats();
    assert!(snapshot.delivered > 0, "no datagrams were delivered");
    assert_eq!(snapshot.dropped_malformed, 0);
    assert_eq!(snapshot.dropped_oversized, 0);
    assert_eq!(snapshot.dropped_truncated, 0);
    assert_eq!(snapshot.dropped_misaddressed, 0);
    assert_eq!(snapshot.send_unencodable, 0);
}

#[test]
fn udp_cluster_matches_mesh_cluster_behaviour() {
    // The same protocol over the two transports must produce the same
    // outcome: each cluster reaches agreement on one leader, and that
    // leadership is stable (no spurious demotion while nothing fails).
    let plane = SharedUdpPlane::<ServiceMessage>::bind_loopback(2, 2).expect("bind loopback");
    let over_udp = Cluster::start_with_endpoints(plane.endpoints(), ElectorKind::OmegaL);
    let over_mesh = Cluster::start(2, ElectorKind::OmegaL);

    for cluster in [&over_udp, &over_mesh] {
        for i in 0..2 {
            cluster
                .handle(NodeId(i))
                .unwrap()
                .join(GROUP, JoinConfig::candidate())
                .expect("join");
        }
    }
    let udp_leader = over_udp
        .await_agreement(GROUP, None, Duration::from_secs(10))
        .expect("no leader over UDP");
    let mesh_leader = over_mesh
        .await_agreement(GROUP, None, Duration::from_secs(10))
        .expect("no leader over the in-memory mesh");

    // Both leaderships hold under continued observation.
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(
        over_udp.agreed_leader(GROUP, None),
        Some(udp_leader),
        "UDP leadership was not stable"
    );
    assert_eq!(
        over_mesh.agreed_leader(GROUP, None),
        Some(mesh_leader),
        "mesh leadership was not stable"
    );

    over_udp.shutdown();
    over_mesh.shutdown();
}
