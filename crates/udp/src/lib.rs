//! # sle-udp — the service over real UDP sockets
//!
//! The DSN 2008 paper runs the leader-election service as **one lightweight
//! daemon per workstation exchanging UDP datagrams** (Section 6 evaluates
//! exactly that deployment on a 12-workstation cluster). This crate carries
//! that traffic for the reproduction with one binding, the
//! [`SharedUdpPlane`]: it binds `sockets` `std::net::UdpSocket`s, places
//! node `i` behind socket `i % sockets`, and runs one demultiplexing reader
//! thread per socket that decodes arriving records with the `sle-wire`
//! codec (`docs/WIRE.md`) and routes them to the addressed node.
//!
//! The same binding covers both deployment shapes:
//!
//! * `sockets = nodes` — one socket and one reader per node, the paper's
//!   daemon-per-workstation shape (the `udp_cluster` example and the
//!   loopback integration tests);
//! * `sockets ≪ nodes` — O(workers) threads when one process hosts a whole
//!   cell (`bench_runtime`'s shared-plane cell).
//!
//! Every [`SharedUdpEndpoint`] implements the same
//! [`MessageEndpoint`](sle_net::transport::MessageEndpoint) contract as the
//! in-memory mesh of `sle-net`, so `sle-core`'s real-time
//! [`Cluster`](sle_core::runtime::Cluster) drives either transport with the
//! *identical* protocol state machine — swapping channels for sockets is
//! `Cluster::start_with_endpoints(SharedUdpPlane::bind_loopback(n, n)?.endpoints(), …)`.
//!
//! The plane is hardened the way a daemon facing a real network must be:
//! oversized datagrams, truncated records, corrupted frames, unknown
//! senders and spoofed source addresses are counted per reason
//! ([`PlaneStats`]) and dropped, never parsed into a panic (the codec is
//! total; see `sle-wire`'s property tests).
//!
//! ## Example: two nodes, one socket each, on the loopback interface
//!
//! ```
//! use sle_net::transport::MessageEndpoint;
//! use sle_sim::actor::NodeId;
//! use sle_udp::SharedUdpPlane;
//! use std::time::Duration;
//!
//! // Two sockets on 127.0.0.1 with ephemeral ports, already introduced to
//! // each other.
//! let plane = SharedUdpPlane::<u64>::bind_loopback(2, 2).unwrap();
//! let endpoints = plane.endpoints();
//! assert_ne!(plane.node_addr(NodeId(0)), plane.node_addr(NodeId(1)));
//!
//! endpoints[0].send(NodeId(1), 42).unwrap();
//! let incoming = endpoints[1].recv_timeout(Duration::from_secs(5)).expect("delivered");
//! assert_eq!(incoming.from, NodeId(0));
//! assert_eq!(incoming.msg, 42);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod plane;
pub mod pool;

pub use plane::{
    PlaneStats, PlaneStatsSnapshot, SharedUdpEndpoint, SharedUdpPlane, COALESCE_BUDGET,
    MAX_PLANE_DATAGRAM, RECORD_HEADER,
};
pub use pool::{BufferPool, PoolStats, PoolStatsSnapshot, PooledBuf};
