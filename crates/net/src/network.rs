//! Whole-network models implementing the simulator's [`Medium`] interface.
//!
//! A [`NetworkModel`] describes the full mesh of `n(n-1)` directed links of a
//! group (paper Section 6.1): a default [`LinkSpec`] for every link,
//! optional per-link overrides, and an optional crash-prone overlay in which
//! each directed link independently alternates between up and down periods.

use std::collections::HashMap;

use sle_sim::actor::NodeId;
use sle_sim::medium::{Fate, Medium, Verdict};
use sle_sim::rng::SimRng;
use sle_sim::time::SimInstant;

use crate::link::{LinkCrashSpec, LinkOutageState, LinkSpec};

/// Builder-style description of the network connecting a set of nodes.
///
/// ```
/// use sle_net::network::NetworkModel;
/// use sle_net::link::{LinkCrashSpec, LinkSpec};
/// use sle_sim::time::SimDuration;
///
/// // 12 workstations, every link loses 1 message in 10 and has a 100 ms
/// // average delay, and every link crashes for ~3 s every ~60 s.
/// let model = NetworkModel::new(LinkSpec::from_paper_tuple(100.0, 0.1))
///     .with_link_crashes(LinkCrashSpec::from_paper_uptime_secs(60));
/// assert!(model.crash_spec().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct NetworkModel {
    default_link: LinkSpec,
    overrides: HashMap<(NodeId, NodeId), LinkSpec>,
    crash_spec: Option<LinkCrashSpec>,
    /// Links that are administratively severed for the whole run (useful for
    /// partition experiments and tests).
    severed: HashMap<(NodeId, NodeId), bool>,
}

impl NetworkModel {
    /// A network in which every directed link follows `default_link`.
    pub fn new(default_link: LinkSpec) -> Self {
        NetworkModel {
            default_link,
            overrides: HashMap::new(),
            crash_spec: None,
            severed: HashMap::new(),
        }
    }

    /// A network with perfect links; useful in tests.
    pub fn perfect() -> Self {
        NetworkModel::new(LinkSpec::perfect())
    }

    /// The authors' real LAN (0.025 ms delay, no losses).
    pub fn lan() -> Self {
        NetworkModel::new(LinkSpec::lan())
    }

    /// Overrides the behaviour of the directed link `from -> to`.
    pub fn with_link(mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> Self {
        self.overrides.insert((from, to), spec);
        self
    }

    /// Makes every directed link crash-prone with the given up/down times.
    pub fn with_link_crashes(mut self, spec: LinkCrashSpec) -> Self {
        self.crash_spec = Some(spec);
        self
    }

    /// Permanently severs the directed link `from -> to` (all messages lost).
    pub fn with_severed_link(mut self, from: NodeId, to: NodeId) -> Self {
        self.severed.insert((from, to), true);
        self
    }

    /// The default behaviour of links without an override.
    pub fn default_link(&self) -> LinkSpec {
        self.default_link
    }

    /// The behaviour of the directed link `from -> to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkSpec {
        self.overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// The crash-prone overlay, if configured.
    pub fn crash_spec(&self) -> Option<LinkCrashSpec> {
        self.crash_spec
    }

    /// Returns whether the directed link `from -> to` is permanently severed.
    pub fn is_severed(&self, from: NodeId, to: NodeId) -> bool {
        self.severed.get(&(from, to)).copied().unwrap_or(false)
    }

    /// The minimum delay any delivered message can experience on any link:
    /// the smallest [`LinkSpec::min_delay`] across the default link and all
    /// per-link overrides. This is the conservative lookahead bound the
    /// parallel simulation driver queries through
    /// [`Medium::min_delay`].
    pub fn min_delay(&self) -> sle_sim::time::SimDuration {
        self.overrides
            .values()
            .map(LinkSpec::min_delay)
            .fold(self.default_link.min_delay(), |acc, d| acc.min(d))
    }

    /// Instantiates the runtime state for this model, ready to be handed to a
    /// [`ParWorld`](sle_sim::par::ParWorld). `seed` controls the per-link outage
    /// processes and is independent from the world's message-level seed.
    pub fn build(self, seed: u64) -> SimulatedNetwork {
        SimulatedNetwork {
            model: self,
            outages: HashMap::new(),
            outage_seed: seed,
            stats: NetworkStats::default(),
            partition: None,
        }
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::perfect()
    }
}

/// Aggregate counters maintained by [`SimulatedNetwork`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages offered to the network.
    pub offered: u64,
    /// Messages dropped because of random loss.
    pub lost: u64,
    /// Messages dropped because the link was crashed or severed.
    pub blocked: u64,
    /// Messages dropped because an active partition separated the endpoints.
    pub partitioned: u64,
    /// Messages accepted for delivery.
    pub delivered: u64,
    /// Messages the network duplicated (a second copy of an accepted
    /// message; not included in `delivered`).
    pub duplicated: u64,
    /// Total payload bytes accepted for delivery.
    pub delivered_bytes: u64,
}

impl NetworkStats {
    /// Fraction of offered messages that were dropped (for any reason).
    pub fn drop_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.lost + self.blocked + self.partitioned) as f64 / self.offered as f64
        }
    }

    /// Publishes this snapshot into `registry` as gauges named
    /// `<prefix>.<counter>` (e.g. `sim.net.offered`).
    ///
    /// `NetworkStats` is deliberately a plain `Copy` value — the chaos
    /// engine compares whole snapshots for run determinism — so instead of
    /// live registry-backed cells the simulation publishes a snapshot
    /// whenever an exporter is about to read the registry.
    pub fn publish(&self, registry: &sle_obs::Registry, prefix: &str) {
        let set = |name: &str, value: u64| {
            registry
                .gauge(&format!("{prefix}.{name}"))
                .set(value as i64);
        };
        set("offered", self.offered);
        set("lost", self.lost);
        set("blocked", self.blocked);
        set("partitioned", self.partitioned);
        set("delivered", self.delivered);
        set("duplicated", self.duplicated);
        set("delivered_bytes", self.delivered_bytes);
    }

    /// Adds another counter set into this one, field by field — how the
    /// parallel simulation driver folds the per-shard network clones into
    /// one whole-run snapshot.
    pub fn merge(&mut self, other: &NetworkStats) {
        self.offered += other.offered;
        self.lost += other.lost;
        self.blocked += other.blocked;
        self.partitioned += other.partitioned;
        self.delivered += other.delivered;
        self.duplicated += other.duplicated;
        self.delivered_bytes += other.delivered_bytes;
    }

    /// Accounts for a link-level fate: loss, delivery, or duplication of a
    /// `wire_bytes`-byte message (blocked/partitioned drops are counted at
    /// their own call sites, before a link fate is ever sampled).
    pub fn record_fate(&mut self, fate: Fate, wire_bytes: usize) {
        match fate {
            Fate::Dropped => {
                self.lost += 1;
            }
            Fate::Deliver { .. } => {
                self.delivered += 1;
                self.delivered_bytes += wire_bytes as u64;
            }
            Fate::DeliverTwice { .. } => {
                self.delivered += 1;
                self.duplicated += 1;
                self.delivered_bytes += 2 * wire_bytes as u64;
            }
        }
    }
}

/// The runtime network state: implements [`Medium`] for the simulator.
#[derive(Debug, Clone)]
pub struct SimulatedNetwork {
    model: NetworkModel,
    outages: HashMap<(NodeId, NodeId), LinkOutageState>,
    /// Base seed of the per-link outage streams. Each link's stream is
    /// derived *purely* from `(outage_seed, from, to)` — never from a
    /// shared, mutating RNG — so the streams are independent of the order
    /// in which links are first queried. The parallel simulation driver
    /// relies on this: every shard holds a clone of this network and must
    /// see identical outage processes regardless of which links it happens
    /// to query.
    outage_seed: u64,
    stats: NetworkStats,
    /// Active partition: component id per node. `None` means the network is
    /// whole. Nodes absent from the map are isolated (every message to or
    /// from them is dropped).
    partition: Option<HashMap<NodeId, u32>>,
}

impl SimulatedNetwork {
    /// The model this network was built from.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    fn components_to_map(components: &[Vec<NodeId>]) -> HashMap<NodeId, u32> {
        let mut map = HashMap::new();
        for (id, component) in components.iter().enumerate() {
            for &node in component {
                map.insert(node, id as u32);
            }
        }
        map
    }

    /// Partitions the network into the given components: messages crossing
    /// a component boundary are dropped until [`SimulatedNetwork::heal_partition`].
    /// Nodes listed in no component are isolated entirely. Replaces any
    /// previously active partition.
    pub fn set_partition(&mut self, components: &[Vec<NodeId>]) {
        self.partition = Some(Self::components_to_map(components));
    }

    /// Removes any active partition: all links carry traffic again.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// Returns whether the currently active partition is exactly the one
    /// described by `components` (false when the network is whole).
    pub fn partition_matches(&self, components: &[Vec<NodeId>]) -> bool {
        self.partition
            .as_ref()
            .is_some_and(|current| *current == Self::components_to_map(components))
    }

    /// Returns whether a partition is currently active.
    pub fn is_partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// Replaces the behaviour of every link without an override — how the
    /// chaos engine applies (and later removes) duplication, reordering,
    /// burst-loss and delay-step overlays mid-run. Per-link overrides and
    /// accumulated outage state are untouched.
    pub fn set_default_link(&mut self, spec: LinkSpec) {
        self.model.default_link = spec;
    }

    /// Returns whether an active partition separates `from` and `to`.
    pub fn crosses_partition(&self, from: NodeId, to: NodeId) -> bool {
        match &self.partition {
            None => false,
            Some(map) => match (map.get(&from), map.get(&to)) {
                (Some(a), Some(b)) => a != b,
                // An endpoint in no component is isolated.
                _ => true,
            },
        }
    }

    /// Returns whether the directed link `from -> to` is up at `now`
    /// (considering both permanent severing and the crash-prone overlay).
    pub fn link_up_at(&mut self, now: SimInstant, from: NodeId, to: NodeId) -> bool {
        if self.model.is_severed(from, to) {
            return false;
        }
        let Some(crash_spec) = self.model.crash_spec else {
            return true;
        };
        let outage_seed = self.outage_seed;
        let state = self.outages.entry((from, to)).or_insert_with(|| {
            // Derive the link's stream purely from the seed and the link
            // endpoints (splitmix64-style finalizer), so neither first-use
            // order nor queries on other links perturb it.
            let label = ((from.0 as u64) << 32) | to.0 as u64;
            let mut z = outage_seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            LinkOutageState::new(crash_spec, SimRng::seed_from(z ^ (z >> 31)))
        });
        state.is_up_at(now)
    }
}

impl Medium for SimulatedNetwork {
    fn transmit(
        &mut self,
        now: SimInstant,
        from: NodeId,
        to: NodeId,
        wire_bytes: usize,
        rng: &mut SimRng,
    ) -> Verdict {
        self.transmit_fate(now, from, to, wire_bytes, rng).into()
    }

    fn transmit_fate(
        &mut self,
        now: SimInstant,
        from: NodeId,
        to: NodeId,
        wire_bytes: usize,
        rng: &mut SimRng,
    ) -> Fate {
        self.stats.offered += 1;
        if self.crosses_partition(from, to) {
            self.stats.partitioned += 1;
            return Fate::Dropped;
        }
        if !self.link_up_at(now, from, to) {
            self.stats.blocked += 1;
            return Fate::Dropped;
        }
        let fate = self.model.link(from, to).sample_fate(rng);
        self.stats.record_fate(fate, wire_bytes);
        fate
    }

    fn min_delay(&self) -> sle_sim::time::SimDuration {
        self.model.min_delay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sle_sim::time::SimDuration;

    fn transmit_many(net: &mut SimulatedNetwork, n: usize) -> (usize, usize) {
        let mut rng = SimRng::seed_from(11);
        let mut delivered = 0;
        let mut dropped = 0;
        for i in 0..n {
            let now = SimInstant::ZERO + SimDuration::from_millis(i as u64);
            match net.transmit(now, NodeId(0), NodeId(1), 100, &mut rng) {
                Verdict::Deliver { .. } => delivered += 1,
                Verdict::Dropped => dropped += 1,
            }
        }
        (delivered, dropped)
    }

    #[test]
    fn perfect_network_delivers_everything() {
        let mut net = NetworkModel::perfect().build(1);
        let (delivered, dropped) = transmit_many(&mut net, 1000);
        assert_eq!(delivered, 1000);
        assert_eq!(dropped, 0);
        assert_eq!(net.stats().delivered, 1000);
        assert_eq!(net.stats().delivered_bytes, 100_000);
        assert_eq!(net.stats().drop_ratio(), 0.0);
    }

    #[test]
    fn lossy_network_drops_at_the_configured_rate() {
        let mut net = NetworkModel::new(LinkSpec::from_paper_tuple(10.0, 0.1)).build(2);
        let (_, dropped) = transmit_many(&mut net, 20_000);
        let rate = dropped as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "drop rate {rate}");
        assert!(net.stats().lost > 0);
        assert_eq!(net.stats().blocked, 0);
    }

    #[test]
    fn per_link_override_applies_to_that_link_only() {
        let model = NetworkModel::perfect().with_link(
            NodeId(0),
            NodeId(1),
            LinkSpec::lossy(SimDuration::ZERO, 1.0),
        );
        assert_eq!(model.link(NodeId(0), NodeId(1)).loss_probability(), 1.0);
        assert_eq!(model.link(NodeId(1), NodeId(0)).loss_probability(), 0.0);
        let mut net = model.build(3);
        let mut rng = SimRng::seed_from(4);
        assert_eq!(
            net.transmit(SimInstant::ZERO, NodeId(0), NodeId(1), 10, &mut rng),
            Verdict::Dropped
        );
        assert!(net
            .transmit(SimInstant::ZERO, NodeId(1), NodeId(0), 10, &mut rng)
            .is_delivered());
    }

    #[test]
    fn severed_link_blocks_all_messages() {
        let mut net = NetworkModel::perfect()
            .with_severed_link(NodeId(0), NodeId(1))
            .build(5);
        let (delivered, dropped) = transmit_many(&mut net, 100);
        assert_eq!(delivered, 0);
        assert_eq!(dropped, 100);
        assert_eq!(net.stats().blocked, 100);
    }

    #[test]
    fn crash_prone_network_blocks_roughly_the_expected_fraction() {
        // Mean uptime 60s, downtime 3s => ~4.8% of transmissions blocked.
        let mut net = NetworkModel::perfect()
            .with_link_crashes(LinkCrashSpec::from_paper_uptime_secs(60))
            .build(6);
        let mut rng = SimRng::seed_from(12);
        let mut blocked = 0usize;
        let n = 200_000usize;
        for i in 0..n {
            let now = SimInstant::ZERO + SimDuration::from_millis(i as u64 * 20);
            if net.transmit(now, NodeId(0), NodeId(1), 10, &mut rng) == Verdict::Dropped {
                blocked += 1;
            }
        }
        let ratio = blocked as f64 / n as f64;
        assert!((ratio - 3.0 / 63.0).abs() < 0.02, "blocked ratio {ratio}");
    }

    #[test]
    fn crash_prone_links_are_independent_per_direction() {
        let mut net = NetworkModel::perfect()
            .with_link_crashes(LinkCrashSpec::new(
                SimDuration::from_secs(10),
                SimDuration::from_secs(10),
            ))
            .build(7);
        // Scan for a time where one direction is up and the other down.
        let mut diverged = false;
        for i in 0..10_000u64 {
            let t = SimInstant::ZERO + SimDuration::from_millis(i * 100);
            let a = net.link_up_at(t, NodeId(0), NodeId(1));
            let b = net.link_up_at(t, NodeId(1), NodeId(0));
            if a != b {
                diverged = true;
                break;
            }
        }
        assert!(
            diverged,
            "directions never diverged; outage streams look coupled"
        );
    }

    #[test]
    fn partition_blocks_cross_component_traffic_until_healed() {
        let mut net = NetworkModel::perfect().build(9);
        assert!(!net.is_partitioned());
        net.set_partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]);
        assert!(net.is_partitioned());
        let mut rng = SimRng::seed_from(2);
        // Within a component: delivered.
        assert!(net
            .transmit(SimInstant::ZERO, NodeId(0), NodeId(1), 10, &mut rng)
            .is_delivered());
        // Across components, both directions: dropped.
        assert_eq!(
            net.transmit(SimInstant::ZERO, NodeId(0), NodeId(2), 10, &mut rng),
            Verdict::Dropped
        );
        assert_eq!(
            net.transmit(SimInstant::ZERO, NodeId(2), NodeId(1), 10, &mut rng),
            Verdict::Dropped
        );
        // A node in no component is isolated.
        assert_eq!(
            net.transmit(SimInstant::ZERO, NodeId(0), NodeId(3), 10, &mut rng),
            Verdict::Dropped
        );
        assert_eq!(net.stats().partitioned, 3);
        assert!(net.stats().drop_ratio() > 0.0);

        net.heal_partition();
        assert!(!net.is_partitioned());
        assert!(net
            .transmit(SimInstant::ZERO, NodeId(0), NodeId(2), 10, &mut rng)
            .is_delivered());
    }

    #[test]
    fn duplication_overlay_is_applied_and_counted() {
        let spec = LinkSpec::perfect().with_duplication(1.0);
        let mut net = NetworkModel::new(spec).build(4);
        let mut rng = SimRng::seed_from(6);
        let fate = net.transmit_fate(SimInstant::ZERO, NodeId(0), NodeId(1), 100, &mut rng);
        assert_eq!(fate.copies(), 2);
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.stats().duplicated, 1);
        assert_eq!(net.stats().delivered_bytes, 200);
        // The single-delivery `transmit` view collapses to the first copy.
        assert!(net
            .transmit(SimInstant::ZERO, NodeId(0), NodeId(1), 100, &mut rng)
            .is_delivered());
    }

    #[test]
    fn set_default_link_swaps_overlays_mid_run() {
        let mut net = NetworkModel::perfect().build(7);
        let mut rng = SimRng::seed_from(3);
        assert!(net
            .transmit(SimInstant::ZERO, NodeId(0), NodeId(1), 10, &mut rng)
            .is_delivered());
        // Burst loss: everything dropped while the overlay is active.
        net.set_default_link(LinkSpec::lossy(SimDuration::ZERO, 1.0));
        assert_eq!(
            net.transmit(SimInstant::ZERO, NodeId(0), NodeId(1), 10, &mut rng),
            Verdict::Dropped
        );
        assert_eq!(net.stats().lost, 1);
        // Restore.
        net.set_default_link(LinkSpec::perfect());
        assert!(net
            .transmit(SimInstant::ZERO, NodeId(0), NodeId(1), 10, &mut rng)
            .is_delivered());
        assert_eq!(net.model().default_link(), LinkSpec::perfect());
    }

    #[test]
    fn stats_publish_as_gauges() {
        let mut net = NetworkModel::perfect().build(1);
        transmit_many(&mut net, 10);
        let registry = sle_obs::Registry::default();
        net.stats().publish(&registry, "sim.net");
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.get("sim.net.offered"),
            Some(&sle_obs::MetricValue::Gauge(10))
        );
        assert_eq!(
            snapshot.get("sim.net.delivered"),
            Some(&sle_obs::MetricValue::Gauge(10))
        );
    }

    #[test]
    fn model_min_delay_is_the_floor_over_all_links() {
        let base =
            LinkSpec::from_paper_tuple(10.0, 0.0).with_min_delay(SimDuration::from_millis(2));
        let model = NetworkModel::new(base);
        assert_eq!(model.min_delay(), SimDuration::from_millis(2));
        // An override with a smaller floor drags the bound down.
        let model = model.with_link(
            NodeId(0),
            NodeId(1),
            LinkSpec::perfect().with_min_delay(SimDuration::from_millis(1)),
        );
        assert_eq!(model.min_delay(), SimDuration::from_millis(1));
        // An override with *no* floor collapses it to zero.
        let model = model.with_link(NodeId(1), NodeId(2), LinkSpec::perfect());
        assert_eq!(model.min_delay(), SimDuration::ZERO);
        // The Medium view agrees.
        let net = model.build(1);
        assert_eq!(Medium::min_delay(&net), SimDuration::ZERO);
    }

    #[test]
    fn outage_streams_are_independent_of_query_order() {
        let model = NetworkModel::perfect().with_link_crashes(LinkCrashSpec::new(
            SimDuration::from_secs(5),
            SimDuration::from_secs(5),
        ));
        // One clone queries (0->1) first, the other (1->0) first; afterwards
        // both must agree on every link at every instant.
        let mut a = model.clone().build(42);
        let mut b = model.build(42);
        let t0 = SimInstant::ZERO;
        a.link_up_at(t0, NodeId(0), NodeId(1));
        b.link_up_at(t0, NodeId(1), NodeId(0));
        for i in 0..10_000u64 {
            let t = SimInstant::ZERO + SimDuration::from_millis(i * 10);
            assert_eq!(
                a.link_up_at(t, NodeId(0), NodeId(1)),
                b.link_up_at(t, NodeId(0), NodeId(1)),
                "link 0->1 diverged at {t}"
            );
            assert_eq!(
                a.link_up_at(t, NodeId(1), NodeId(0)),
                b.link_up_at(t, NodeId(1), NodeId(0)),
                "link 1->0 diverged at {t}"
            );
        }
    }

    #[test]
    fn stats_merge_sums_fields() {
        let mut a = NetworkStats {
            offered: 1,
            lost: 2,
            blocked: 3,
            partitioned: 4,
            delivered: 5,
            duplicated: 6,
            delivered_bytes: 7,
        };
        a.merge(&a.clone());
        assert_eq!(a.offered, 2);
        assert_eq!(a.lost, 4);
        assert_eq!(a.blocked, 6);
        assert_eq!(a.partitioned, 8);
        assert_eq!(a.delivered, 10);
        assert_eq!(a.duplicated, 12);
        assert_eq!(a.delivered_bytes, 14);
    }

    #[test]
    fn default_model_is_perfect() {
        let model = NetworkModel::default();
        assert_eq!(model.default_link(), LinkSpec::perfect());
        assert!(model.crash_spec().is_none());
        assert!(!model.is_severed(NodeId(0), NodeId(1)));
    }
}
