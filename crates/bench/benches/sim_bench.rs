//! Macro-benchmark of the simulation substrate: how much wall-clock time it
//! takes to push a full 12-workstation service deployment through one
//! virtual minute (this is the quantity that determines how long the figure
//! reproductions take).

use sle_bench::bench_once;
use sle_core::{JoinConfig, ServiceConfig, ServiceNode};
use sle_election::ElectorKind;
use sle_net::link::LinkSpec;
use sle_net::network::NetworkModel;
use sle_sim::prelude::*;

fn run_virtual_minute(algorithm: ElectorKind, link: LinkSpec) -> u64 {
    let n = 12usize;
    let group = sle_core::GroupId(1);
    let medium = NetworkModel::new(link).build(7);
    let mut world: ParWorld<ServiceNode, _> = ParWorld::new(
        n,
        1,
        Box::new(move |node, _| {
            ServiceNode::new(
                ServiceConfig::full_mesh(node, n, algorithm)
                    .with_auto_join(group, JoinConfig::candidate()),
            )
        }),
        medium,
        11,
    );
    let mut observer = [CountingObserver::new()];
    world.run_for(SimDuration::from_secs(60), &mut observer);
    observer[0].delivered
}

fn main() {
    bench_once("simulate_one_virtual_minute_12_nodes/S2_lan", || {
        run_virtual_minute(ElectorKind::OmegaLc, LinkSpec::lan())
    });
    bench_once("simulate_one_virtual_minute_12_nodes/S3_lan", || {
        run_virtual_minute(ElectorKind::OmegaL, LinkSpec::lan())
    });
    bench_once(
        "simulate_one_virtual_minute_12_nodes/S2_lossy_100ms_0.1",
        || run_virtual_minute(ElectorKind::OmegaLc, LinkSpec::from_paper_tuple(100.0, 0.1)),
    );
}
