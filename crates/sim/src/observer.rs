//! Observation hooks for simulations.
//!
//! An [`Observer`] is notified of everything that happens while a
//! [`ParWorld`](crate::par::ParWorld) runs: messages sent, dropped and
//! delivered, timers firing, nodes crashing and recovering, and
//! application-level events emitted by actors. The experiment harness uses
//! observers to compute the paper's QoS metrics (leader recovery time,
//! mistake rate, leader availability) and the CPU/bandwidth overheads of
//! Figure 6 without touching protocol code.

use crate::actor::NodeId;
use crate::time::SimInstant;

/// Receives a callback for every observable simulation event.
///
/// All methods have empty default implementations so observers only override
/// what they need.
pub trait Observer<E> {
    /// An actor handed a message to the network.
    fn message_sent(&mut self, _now: SimInstant, _from: NodeId, _to: NodeId, _bytes: usize) {}

    /// The network dropped a message (loss, or the link/destination was down).
    fn message_dropped(&mut self, _now: SimInstant, _from: NodeId, _to: NodeId, _bytes: usize) {}

    /// A message reached its destination and was handled.
    fn message_delivered(&mut self, _now: SimInstant, _from: NodeId, _to: NodeId, _bytes: usize) {}

    /// A timer fired and was handled by its actor.
    fn timer_fired(&mut self, _now: SimInstant, _node: NodeId) {}

    /// A node crashed (its actor state is discarded).
    fn node_crashed(&mut self, _now: SimInstant, _node: NodeId) {}

    /// A node recovered (a fresh actor was started with a new incarnation).
    fn node_recovered(&mut self, _now: SimInstant, _node: NodeId, _incarnation: u64) {}

    /// An actor emitted an application-level event.
    fn event_emitted(&mut self, _now: SimInstant, _node: NodeId, _event: &E) {}
}

/// An observer that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl<E> Observer<E> for NullObserver {}

/// A simple counting observer, convenient in tests and micro-benchmarks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingObserver {
    /// Number of messages handed to the network.
    pub sent: u64,
    /// Number of messages dropped by the network.
    pub dropped: u64,
    /// Number of messages delivered.
    pub delivered: u64,
    /// Number of timer firings handled.
    pub timers: u64,
    /// Number of node crashes.
    pub crashes: u64,
    /// Number of node recoveries.
    pub recoveries: u64,
    /// Number of application events emitted.
    pub events: u64,
    /// Total payload bytes handed to the network.
    pub bytes_sent: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
}

impl CountingObserver {
    /// Creates a fresh, all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<E> Observer<E> for CountingObserver {
    fn message_sent(&mut self, _now: SimInstant, _from: NodeId, _to: NodeId, bytes: usize) {
        self.sent += 1;
        self.bytes_sent += bytes as u64;
    }

    fn message_dropped(&mut self, _now: SimInstant, _from: NodeId, _to: NodeId, _bytes: usize) {
        self.dropped += 1;
    }

    fn message_delivered(&mut self, _now: SimInstant, _from: NodeId, _to: NodeId, bytes: usize) {
        self.delivered += 1;
        self.bytes_delivered += bytes as u64;
    }

    fn timer_fired(&mut self, _now: SimInstant, _node: NodeId) {
        self.timers += 1;
    }

    fn node_crashed(&mut self, _now: SimInstant, _node: NodeId) {
        self.crashes += 1;
    }

    fn node_recovered(&mut self, _now: SimInstant, _node: NodeId, _incarnation: u64) {
        self.recoveries += 1;
    }

    fn event_emitted(&mut self, _now: SimInstant, _node: NodeId, _event: &E) {
        self.events += 1;
    }
}

/// Combines two observers, forwarding every callback to both.
///
/// Useful when an experiment wants both traffic accounting and
/// leadership-interval tracking without merging the two collectors.
#[derive(Debug, Default)]
pub struct PairObserver<A, B> {
    /// First observer.
    pub first: A,
    /// Second observer.
    pub second: B,
}

impl<A, B> PairObserver<A, B> {
    /// Creates a pair from two observers.
    pub fn new(first: A, second: B) -> Self {
        PairObserver { first, second }
    }
}

impl<E, A: Observer<E>, B: Observer<E>> Observer<E> for PairObserver<A, B> {
    fn message_sent(&mut self, now: SimInstant, from: NodeId, to: NodeId, bytes: usize) {
        self.first.message_sent(now, from, to, bytes);
        self.second.message_sent(now, from, to, bytes);
    }

    fn message_dropped(&mut self, now: SimInstant, from: NodeId, to: NodeId, bytes: usize) {
        self.first.message_dropped(now, from, to, bytes);
        self.second.message_dropped(now, from, to, bytes);
    }

    fn message_delivered(&mut self, now: SimInstant, from: NodeId, to: NodeId, bytes: usize) {
        self.first.message_delivered(now, from, to, bytes);
        self.second.message_delivered(now, from, to, bytes);
    }

    fn timer_fired(&mut self, now: SimInstant, node: NodeId) {
        self.first.timer_fired(now, node);
        self.second.timer_fired(now, node);
    }

    fn node_crashed(&mut self, now: SimInstant, node: NodeId) {
        self.first.node_crashed(now, node);
        self.second.node_crashed(now, node);
    }

    fn node_recovered(&mut self, now: SimInstant, node: NodeId, incarnation: u64) {
        self.first.node_recovered(now, node, incarnation);
        self.second.node_recovered(now, node, incarnation);
    }

    fn event_emitted(&mut self, now: SimInstant, node: NodeId, event: &E) {
        self.first.event_emitted(now, node, event);
        self.second.event_emitted(now, node, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_observer_counts() {
        let mut obs = CountingObserver::new();
        let t = SimInstant::ZERO;
        Observer::<u32>::message_sent(&mut obs, t, NodeId(0), NodeId(1), 10);
        Observer::<u32>::message_delivered(&mut obs, t, NodeId(0), NodeId(1), 10);
        Observer::<u32>::message_dropped(&mut obs, t, NodeId(0), NodeId(1), 10);
        Observer::<u32>::timer_fired(&mut obs, t, NodeId(0));
        Observer::<u32>::node_crashed(&mut obs, t, NodeId(0));
        Observer::<u32>::node_recovered(&mut obs, t, NodeId(0), 1);
        Observer::<u32>::event_emitted(&mut obs, t, NodeId(0), &42);
        assert_eq!(obs.sent, 1);
        assert_eq!(obs.delivered, 1);
        assert_eq!(obs.dropped, 1);
        assert_eq!(obs.timers, 1);
        assert_eq!(obs.crashes, 1);
        assert_eq!(obs.recoveries, 1);
        assert_eq!(obs.events, 1);
        assert_eq!(obs.bytes_sent, 10);
        assert_eq!(obs.bytes_delivered, 10);
    }

    #[test]
    fn pair_observer_forwards_to_both() {
        let mut pair = PairObserver::new(CountingObserver::new(), CountingObserver::new());
        Observer::<u32>::message_sent(&mut pair, SimInstant::ZERO, NodeId(0), NodeId(1), 5);
        Observer::<u32>::event_emitted(&mut pair, SimInstant::ZERO, NodeId(0), &1);
        assert_eq!(pair.first.sent, 1);
        assert_eq!(pair.second.sent, 1);
        assert_eq!(pair.first.events, 1);
        assert_eq!(pair.second.events, 1);
    }

    #[test]
    fn null_observer_is_a_no_op() {
        let mut obs = NullObserver;
        Observer::<u32>::message_sent(&mut obs, SimInstant::ZERO, NodeId(0), NodeId(1), 5);
    }
}
