//! Integration test for the UDP plane's datagram hardening: garbage
//! injected into a *live* socket — one carrying real election traffic —
//! must be dropped, attributed to the right per-reason counter, and must
//! not disturb the service. The attack datagrams are framed as plane
//! records (`dest u32 BE | frame_len u16 BE | frame`, see `docs/WIRE.md`),
//! one per refusal reason, so each must land in its own counter.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use sle_core::{Cluster, GroupId, JoinConfig, ServiceMessage};
use sle_election::ElectorKind;
use sle_sim::actor::NodeId;
use sle_udp::{SharedUdpPlane, MAX_PLANE_DATAGRAM, RECORD_HEADER};
use sle_wire::encode_frame;

const GROUP: GroupId = GroupId(1);

/// One plane record for `dest`, whose header claims `frame_len` bytes of
/// frame however many of `frame` actually follow.
fn record(dest: u32, frame_len: usize, frame: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER + frame.len());
    rec.extend_from_slice(&dest.to_be_bytes());
    rec.extend_from_slice(&(frame_len as u16).to_be_bytes());
    rec.extend_from_slice(frame);
    rec
}

#[test]
fn per_reason_drop_counters_increment_on_a_live_socket() {
    // A real 3-node deployment over loopback UDP, one socket per node.
    let plane =
        SharedUdpPlane::<ServiceMessage>::bind_loopback(3, 3).expect("bind loopback sockets");
    let target = plane.node_addr(NodeId(0)).expect("node 0 is in the plane");
    let cluster = Cluster::start_with_endpoints(plane.endpoints(), ElectorKind::OmegaLc);
    for i in 0..3u32 {
        cluster
            .handle(NodeId(i))
            .expect("handle exists")
            .join(GROUP, JoinConfig::candidate())
            .expect("join");
    }
    // The cluster is live: the election settles over the same socket we are
    // about to attack.
    cluster
        .await_agreement(GROUP, None, Duration::from_secs(10))
        .expect("initial election over UDP");

    let attacker = UdpSocket::bind("127.0.0.1:0").expect("bind attacker socket");
    let inject = |epoch: u64| {
        // Oversized: larger than any datagram the plane emits, dropped
        // before a single record header is read.
        attacker
            .send_to(&[0u8; MAX_PLANE_DATAGRAM + 1], target)
            .expect("send oversized");
        // Truncated: a record header claiming more frame bytes than the
        // datagram holds.
        let cut = b"only part of a frame";
        attacker
            .send_to(&record(0, cut.len() + 100, cut), target)
            .expect("send truncated");
        // Malformed: intact record framing around bytes the codec rejects.
        let garbage = b"not a frame at all, sorry";
        attacker
            .send_to(&record(0, garbage.len(), garbage), target)
            .expect("send malformed");
        // Spoofed: a well-formed record and frame claiming to be node 1,
        // but from a socket that is not node 1's plane socket.
        let spoof = encode_frame(
            NodeId(1),
            &ServiceMessage::Accuse {
                group: GROUP,
                epoch,
            },
        )
        .expect("encode spoofed frame");
        attacker
            .send_to(&record(0, spoof.len(), &spoof), target)
            .expect("send spoofed");
    };

    // The reader thread drains asynchronously, and loopback UDP is not
    // lossless under load — so keep re-injecting until every reason has
    // been attributed at least once. (Exact per-reason accounting on an
    // unloaded socket is covered by sle-udp's demux tests.)
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut round = 0u64;
    loop {
        inject(round);
        round += 1;
        std::thread::sleep(Duration::from_millis(20));
        let snapshot = plane.stats();
        if snapshot.dropped_oversized >= 1
            && snapshot.dropped_truncated >= 1
            && snapshot.dropped_malformed >= 1
            && snapshot.dropped_misaddressed >= 1
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "some drop reason was never attributed: {snapshot:?}"
        );
    }

    let snapshot = plane.stats();
    // Nothing is ever over-attributed: each reason counts at most its own
    // injections, and real protocol traffic contributes to `delivered` only.
    assert!(snapshot.dropped_oversized <= round);
    assert!(snapshot.dropped_truncated <= round);
    assert!(snapshot.dropped_malformed <= round);
    assert!(snapshot.dropped_misaddressed <= round);
    assert_eq!(snapshot.dropped_misrouted, 0, "every record named node 0");
    assert!(
        snapshot.delivered > 0,
        "legitimate election traffic must keep flowing"
    );

    // And the attack changed nothing for the application: the group still
    // agrees on a leader afterwards.
    cluster
        .await_agreement(GROUP, None, Duration::from_secs(10))
        .expect("agreement survives the garbage flood");
    cluster.shutdown();
}
