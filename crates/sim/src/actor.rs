//! The sans-io actor model shared by the simulator and the real-time runtime.
//!
//! A protocol node (in this repository, the leader-election service's
//! `ServiceNode`) implements [`Actor`]: it receives `on_start`, `on_message`
//! and `on_timer` callbacks and records the effects it wants to perform —
//! messages to send, timers to arm, application events to raise — into the
//! [`Context`]. Whoever drives the actor (the discrete-event
//! [`ParWorld`](crate::par::ParWorld) or a threaded runtime) interprets those
//! effects. Protocol code therefore contains no I/O and no clock reads,
//! which is what makes it possible to run the exact same code for days of
//! virtual time in seconds of wall-clock time.

use std::fmt;

use crate::time::{SimDuration, SimInstant};

/// Identifier of a node (a "workstation" in the paper's terminology).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the identifier as an index usable for vectors of nodes.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// An actor-chosen tag identifying one of its timers.
///
/// Setting a timer with a tag that is already armed re-arms it (the previous
/// deadline is cancelled), which gives actors exactly-once semantics per tag.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimerTag(pub u64);

impl fmt::Debug for TimerTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// Messages that can be transported by a runtime must report the number of
/// bytes they would occupy on the wire, so traffic statistics (Figure 6 of
/// the paper) can be computed without a real network.
pub trait WireSize {
    /// Number of payload bytes this message would occupy when encoded.
    fn wire_size(&self) -> usize;
}

impl WireSize for () {
    fn wire_size(&self) -> usize {
        0
    }
}

impl WireSize for Vec<u8> {
    fn wire_size(&self) -> usize {
        self.len()
    }
}

/// An effect requested by an actor while handling a callback.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect<M, E> {
    /// Send `msg` to node `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to deliver.
        msg: M,
    },
    /// Arm (or re-arm) the timer identified by `tag` to fire at `at`.
    SetTimer {
        /// The actor-chosen timer identifier.
        tag: TimerTag,
        /// Absolute virtual time at which the timer should fire.
        at: SimInstant,
    },
    /// Cancel the timer identified by `tag` if it is armed.
    CancelTimer {
        /// The actor-chosen timer identifier.
        tag: TimerTag,
    },
    /// Raise an application-level event (e.g. "leader of group g changed").
    Emit(E),
}

/// The callback context handed to actors.
///
/// It exposes the current virtual time, the actor's own identity and
/// incarnation, and collects the actor's effects.
#[derive(Debug)]
pub struct Context<M, E> {
    now: SimInstant,
    node: NodeId,
    incarnation: u64,
    effects: Vec<Effect<M, E>>,
}

impl<M, E> Context<M, E> {
    /// Creates a detached context. Runtimes use this; actors only consume
    /// contexts they are given.
    pub fn new(now: SimInstant, node: NodeId, incarnation: u64) -> Self {
        Context {
            now,
            node,
            incarnation,
            effects: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// The identity of the actor being called.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The incarnation number of the actor (incremented by the runtime every
    /// time the node recovers from a crash).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Requests that `msg` be sent to `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Arms (or re-arms) timer `tag` to fire at absolute time `at`.
    pub fn set_timer_at(&mut self, tag: TimerTag, at: SimInstant) {
        self.effects.push(Effect::SetTimer { tag, at });
    }

    /// Arms (or re-arms) timer `tag` to fire `after` from now.
    pub fn set_timer_after(&mut self, tag: TimerTag, after: SimDuration) {
        let at = self.now + after;
        self.set_timer_at(tag, at);
    }

    /// Cancels timer `tag`.
    pub fn cancel_timer(&mut self, tag: TimerTag) {
        self.effects.push(Effect::CancelTimer { tag });
    }

    /// Raises an application-level event.
    pub fn emit(&mut self, event: E) {
        self.effects.push(Effect::Emit(event));
    }

    /// Number of effects recorded so far.
    pub fn effect_count(&self) -> usize {
        self.effects.len()
    }

    /// Consumes the context and returns the recorded effects in order.
    pub fn into_effects(self) -> Vec<Effect<M, E>> {
        self.effects
    }

    /// Drains the recorded effects, leaving the context reusable.
    pub fn drain_effects(&mut self) -> Vec<Effect<M, E>> {
        std::mem::take(&mut self.effects)
    }
}

/// A protocol node driven by a runtime.
///
/// Implementations must be deterministic functions of the inputs they are
/// given: all timing comes from the context and all randomness (if any) must
/// be owned by the actor and seeded explicitly.
pub trait Actor {
    /// The message type exchanged between actors of this kind.
    type Msg: Clone + WireSize;
    /// The application-level event type raised by this actor.
    type Event;

    /// Called once when the node starts (and again, on a fresh instance,
    /// after each recovery from a crash).
    fn on_start(&mut self, ctx: &mut Context<Self::Msg, Self::Event>);

    /// Called when a message from `from` is delivered.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        ctx: &mut Context<Self::Msg, Self::Event>,
    );

    /// Called when an armed timer fires.
    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<Self::Msg, Self::Event>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);
    impl WireSize for Ping {
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[test]
    fn context_records_effects_in_order() {
        let mut ctx: Context<Ping, &'static str> =
            Context::new(SimInstant::ZERO + SimDuration::from_secs(1), NodeId(3), 2);
        assert_eq!(ctx.now(), SimInstant::from_nanos(1_000_000_000));
        assert_eq!(ctx.node(), NodeId(3));
        assert_eq!(ctx.incarnation(), 2);

        ctx.send(NodeId(1), Ping(7));
        ctx.set_timer_after(TimerTag(9), SimDuration::from_millis(500));
        ctx.cancel_timer(TimerTag(4));
        ctx.emit("leader-changed");
        assert_eq!(ctx.effect_count(), 4);

        let effects = ctx.into_effects();
        assert_eq!(
            effects[0],
            Effect::Send {
                to: NodeId(1),
                msg: Ping(7)
            }
        );
        assert_eq!(
            effects[1],
            Effect::SetTimer {
                tag: TimerTag(9),
                at: SimInstant::from_nanos(1_500_000_000)
            }
        );
        assert_eq!(effects[2], Effect::CancelTimer { tag: TimerTag(4) });
        assert_eq!(effects[3], Effect::Emit("leader-changed"));
    }

    #[test]
    fn drain_leaves_context_reusable() {
        let mut ctx: Context<Ping, ()> = Context::new(SimInstant::ZERO, NodeId(0), 0);
        ctx.send(NodeId(1), Ping(1));
        assert_eq!(ctx.drain_effects().len(), 1);
        assert_eq!(ctx.effect_count(), 0);
        ctx.send(NodeId(2), Ping(2));
        assert_eq!(ctx.drain_effects().len(), 1);
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(5).to_string(), "n5");
        assert_eq!(format!("{:?}", NodeId(5)), "n5");
        assert_eq!(NodeId(5).index(), 5);
        assert_eq!(NodeId::from(8u32), NodeId(8));
    }

    #[test]
    fn wire_size_of_builtin_impls() {
        assert_eq!(().wire_size(), 0);
        assert_eq!(vec![0u8; 10].wire_size(), 10);
    }
}
