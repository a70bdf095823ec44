//! # sle-core — the stable leader-election service
//!
//! This crate is the primary contribution of the reproduced paper
//! (Schiper & Toueg, *"A Robust and Lightweight Stable Leader Election
//! Service for Dynamic Systems"*, DSN 2008): a fault-tolerant service that
//! elects and maintains an operational leader for any dynamically changing
//! group of application processes, with QoS control over failure detection,
//! leader stability, and a choice of election algorithms.
//!
//! The architecture mirrors the paper's Figure 2:
//!
//! * **registration and groups** — processes register with their local
//!   service instance ([`ServiceNode::register_process`]) and join/leave
//!   groups with per-join parameters ([`JoinConfig`]: candidate flag,
//!   notification style, failure-detection QoS),
//! * **Group Maintenance** — HELLO gossip plus failure-detector input
//!   maintains each group's membership ([`group`]),
//! * **Failure Detector** — the Chen et al. QoS detector from `sle-fd`,
//! * **Leader Election Algorithm** — Ωid, Ωlc or Ωl from `sle-election`,
//!   selected per service instance ([`ServiceConfig::algorithm`]).
//!
//! The protocol logic is a sans-io state machine ([`ServiceNode`]) that runs
//! identically under the discrete-event simulator (`sle-sim`, used by the
//! evaluation harness) and under the real-time runtime
//! ([`runtime::Cluster`]), which is generic over its transport
//! ([`sle_net::transport::MessageEndpoint`]): the in-memory mesh by
//! default, or real UDP sockets via the `sle-udp` crate — the paper's
//! daemon-per-workstation deployment (§2), speaking the datagram format of
//! `docs/WIRE.md`.
//!
//! ## Quick start (real time)
//!
//! ```no_run
//! use sle_core::prelude::*;
//! use sle_election::ElectorKind;
//! use std::time::Duration;
//!
//! // Three "workstations" running the S2 (Omega_lc) version of the service.
//! let cluster = Cluster::start(3, ElectorKind::OmegaLc);
//! let group = GroupId(1);
//! for i in 0..3u32 {
//!     cluster.handle(sle_sim::NodeId(i)).unwrap().join(group, JoinConfig::candidate());
//! }
//! std::thread::sleep(Duration::from_secs(2));
//! let leader = cluster.handle(sle_sim::NodeId(0)).unwrap().leader_of(group);
//! println!("group {group} is led by {leader:?}");
//! cluster.shutdown();
//! ```
//!
//! ## Quick start (simulated time)
//!
//! ```
//! use sle_core::prelude::*;
//! use sle_election::ElectorKind;
//! use sle_sim::prelude::*;
//!
//! let n = 4;
//! let group = GroupId(1);
//! let mut world: ParWorld<ServiceNode, PerfectMedium> = ParWorld::new(
//!     n,
//!     1,
//!     Box::new(move |node, _| {
//!         ServiceNode::new(
//!             ServiceConfig::full_mesh(node, n, ElectorKind::OmegaL)
//!                 .with_auto_join(group, JoinConfig::candidate()),
//!         )
//!     }),
//!     PerfectMedium,
//!     1,
//! );
//! world.run_for(SimDuration::from_secs(5), &mut [NullObserver]);
//! let leader = world.actor(NodeId(0)).unwrap().leader_of(group);
//! assert!(leader.is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod error;
pub mod events;
pub mod group;
pub mod lease;
pub mod messages;
pub mod node;
pub mod obs;
pub mod process;
pub mod runtime;

/// Convenient re-exports of the items most users need.
pub mod prelude {
    pub use crate::config::{AutoJoin, JoinConfig, NotificationMode, ServiceConfig};
    pub use crate::error::{AgreementTimeout, ServiceError};
    pub use crate::events::ServiceEvent;
    pub use crate::lease::{FencedApp, FencingToken, LeaderLease, StaleToken};
    pub use crate::messages::{AliveHeader, GroupAlive, GroupAnnouncement, ServiceMessage};
    pub use crate::node::{ServiceContext, ServiceNode};
    pub use crate::process::{GroupId, ProcessId};
    pub use crate::runtime::{Cluster, ClusterConfig, ClusterEvent, ClusterHandle, RuntimeStats};
    pub use sle_adaptive::{TunerConfig, TuningPolicy};
}

pub use config::{AutoJoin, JoinConfig, NotificationMode, ServiceConfig};
pub use error::{AgreementTimeout, ServiceError};
pub use events::ServiceEvent;
pub use group::{GroupState, MemberEntry, MemberTable};
pub use lease::{FencedApp, FencingToken, LeaderLease, StaleToken};
pub use messages::{AliveHeader, GroupAlive, GroupAnnouncement, ServiceMessage};
pub use node::{ServiceContext, ServiceNode};
pub use obs::NodeInstruments;
pub use process::{GroupId, ProcessId};
pub use runtime::{Cluster, ClusterConfig, ClusterEvent, ClusterHandle, RuntimeStats};
pub use sle_adaptive::{TunerConfig, TuningPolicy};
