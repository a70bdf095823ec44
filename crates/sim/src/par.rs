//! The discrete-event simulation engine: a sharded world with conservative
//! lookahead.
//!
//! A [`ParWorld`] owns a set of nodes (each running one [`Actor`], here the
//! leader-election `ServiceNode`), a [`Medium`] deciding the fate of every
//! message, a virtual clock and per-node deterministic RNG streams. Node
//! crashes and recoveries — the "module that simulates the crashes and
//! recoveries of workstations" of the paper's Section 6.1 — are injected by
//! scheduling [`ParWorld::schedule_crash`] / [`ParWorld::schedule_recovery`]
//! events, exactly like the authors killed and restarted service instances.
//!
//! The nodes are partitioned across `W` sim workers round-robin by node id
//! (the same dense interning idea as [`dense`](crate::dense): global node
//! `g` lives in shard `g % W` at local slot `g / W`). Each shard owns its
//! slice of node state, its own [`EventWheel`], its own clone of the medium
//! and one RNG stream per node. Workers advance through
//! *barrier-delimited epochs* whose width is the medium's
//! [`min_delay`](crate::medium::Medium::min_delay) — the *lookahead* `L` of
//! a conservative parallel simulation. Within the half-open window
//! `[T, T + L)` no shard can receive a message sent inside the same window
//! (every delivery takes at least `L`), so shards process their local
//! events independently and exchange the buffered cross-shard sends at the
//! epoch barrier. No null messages are needed: the barrier itself bounds
//! the skew. With one worker, or a medium without a delay floor, the world
//! runs inline on the calling thread and spawns no threads.
//!
//! # Determinism
//!
//! Every coordinate of the execution is *partition-independent*, so every
//! worker count replays the same execution:
//!
//! * every event carries a canonical key `(origin_node << 32) | per_node_seq`
//!   — ties at equal virtual time resolve by origin node, then by the
//!   origin's own event counter, an order no shard boundary can perturb;
//! * message fates are drawn by the sender's shard from the *sender's*
//!   per-node RNG stream (seeded from `(world_seed, node_id)`), so a link's
//!   loss/delay sequence depends only on the sender's canonical event order.
//!
//! A given `(seed, workload)` therefore produces identical observers,
//! event counts and final actor states for **any** `workers` value,
//! including `workers = 1`.
//!
//! # Zero lookahead
//!
//! When the medium cannot promise a positive minimum delay
//! (`min_delay() == 0`, e.g. [`PerfectMedium`](crate::medium::PerfectMedium)),
//! the epoch width collapses and `ParWorld` falls back to a sequential
//! merged loop that pops the globally minimal `(time, key)` event across
//! all shards — the exact canonical order the epochs would have produced,
//! just without parallel speedup.
//!
//! # Panics on sim workers
//!
//! A panic inside an actor or observer on any worker fails the run rather
//! than hanging it: the worker records the panic, keeps taking part in the
//! epoch barriers until the coordinator ends the run, and
//! [`ParWorld::run_until`] then resumes the first recorded panic on the
//! calling thread.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use crate::actor::{Actor, Context, Effect, NodeId, TimerTag, WireSize};
use crate::dense::TagMap;
use crate::medium::{Fate, Medium};
use crate::observer::Observer;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimInstant};
use crate::wheel::EventWheel;

/// Builds (or rebuilds, after a recovery) the actor for a node.
///
/// The second argument is the incarnation number: 0 for the initial start and
/// incremented by one on every recovery, so protocol code can distinguish
/// state from previous lives of the same workstation. Recoveries execute on
/// sim worker threads, so the factory must be callable from any of them.
pub type SharedActorFactory<A> = Box<dyn Fn(NodeId, u64) -> A + Send + Sync>;

/// The event vocabulary of a shard's wheel.
#[derive(Debug)]
enum EventKind<M> {
    Start {
        node: NodeId,
    },
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        bytes: usize,
    },
    Timer {
        node: NodeId,
        tag: TimerTag,
        node_epoch: u64,
        generation: u64,
    },
    Crash {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
}

struct NodeSlot<A> {
    actor: Option<A>,
    up: bool,
    incarnation: u64,
    /// Bumped on every crash so stale timer events are discarded.
    epoch: u64,
    /// Per-tag generation counters; a timer event only fires if its recorded
    /// generation still matches. Keyed by the raw tag value in a dense
    /// open-addressing map — this table is touched on every arm/cancel/fire.
    timers: TagMap,
    timer_generation: u64,
}

impl<A> NodeSlot<A> {
    fn new(actor: A) -> Self {
        NodeSlot {
            actor: Some(actor),
            up: true,
            incarnation: 0,
            epoch: 0,
            timers: TagMap::new(),
            timer_generation: 0,
        }
    }
}

/// An event en route to another shard: `(arrival, canonical key, payload)`.
type OutEvent<M> = (SimInstant, u64, EventKind<M>);

/// splitmix64-style finalizer mixing the world seed with a node id, so each
/// node gets an independent, partition-independent RNG stream.
fn mix_seed(seed: u64, node: u64) -> u64 {
    let mut z = seed ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The canonical, partition-independent tie-break key of an event.
fn canonical_key(origin: NodeId, seq: u32) -> u64 {
    (u64::from(origin.0) << 32) | u64::from(seq)
}

/// One shard: a worker's slice of nodes, wheel, and per-node RNG streams.
struct Shard<A: Actor, M> {
    /// This shard's index; owns every node with `id % stride == index`.
    index: usize,
    /// Number of shards (the round-robin stride).
    stride: usize,
    /// Total node count of the world (for out-of-range send detection).
    total_nodes: usize,
    nodes: Vec<NodeSlot<A>>,
    /// Per-node deterministic RNG streams, indexed like `nodes`.
    rngs: Vec<SimRng>,
    /// Per-node canonical event sequence counters, indexed like `nodes`.
    seqs: Vec<u32>,
    wheel: EventWheel<EventKind<A::Msg>>,
    medium: M,
    now: SimInstant,
    events_processed: u64,
    intra_sends: u64,
    cross_sends: u64,
}

impl<A: Actor, M: Medium> Shard<A, M> {
    #[inline]
    fn local(&self, node: NodeId) -> usize {
        debug_assert_eq!(node.index() % self.stride, self.index);
        node.index() / self.stride
    }

    /// Allocates the next canonical key of `origin`.
    fn alloc_key(&mut self, origin: NodeId) -> u64 {
        let l = self.local(origin);
        let s = self.seqs[l];
        self.seqs[l] = s.wrapping_add(1);
        canonical_key(origin, s)
    }

    /// Executes one event at `at`, routing cross-shard sends into `out`.
    fn exec<O: Observer<A::Event>>(
        &mut self,
        at: SimInstant,
        kind: EventKind<A::Msg>,
        factory: &(dyn Fn(NodeId, u64) -> A + Send + Sync),
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        debug_assert!(at >= self.now, "time must not go backwards");
        self.now = at;
        self.events_processed += 1;
        match kind {
            EventKind::Start { node } => self.handle_start(node, observer, out),
            EventKind::Deliver {
                from,
                to,
                msg,
                bytes,
            } => self.handle_deliver(from, to, msg, bytes, observer, out),
            EventKind::Timer {
                node,
                tag,
                node_epoch,
                generation,
            } => self.handle_timer(node, tag, node_epoch, generation, observer, out),
            EventKind::Crash { node } => self.handle_crash(node, observer),
            EventKind::Recover { node } => self.handle_recover(node, factory, observer, out),
        }
    }

    fn handle_start<O: Observer<A::Event>>(
        &mut self,
        node: NodeId,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        let l = self.local(node);
        let slot = &mut self.nodes[l];
        if !slot.up {
            return;
        }
        let mut ctx = Context::new(self.now, node, slot.incarnation);
        if let Some(actor) = slot.actor.as_mut() {
            actor.on_start(&mut ctx);
        }
        let effects = ctx.into_effects();
        self.apply_effects(node, effects, observer, out);
    }

    fn handle_deliver<O: Observer<A::Event>>(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: A::Msg,
        bytes: usize,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        let l = self.local(to);
        let slot = &mut self.nodes[l];
        if !slot.up {
            observer.message_dropped(self.now, from, to, bytes);
            return;
        }
        observer.message_delivered(self.now, from, to, bytes);
        let mut ctx = Context::new(self.now, to, slot.incarnation);
        if let Some(actor) = slot.actor.as_mut() {
            actor.on_message(from, msg, &mut ctx);
        }
        let effects = ctx.into_effects();
        self.apply_effects(to, effects, observer, out);
    }

    fn handle_timer<O: Observer<A::Event>>(
        &mut self,
        node: NodeId,
        tag: TimerTag,
        node_epoch: u64,
        generation: u64,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        let l = self.local(node);
        let slot = &mut self.nodes[l];
        if !slot.up || slot.epoch != node_epoch {
            return;
        }
        match slot.timers.get(tag.0) {
            Some(g) if g == generation => {}
            _ => return, // re-armed or cancelled since this event was queued
        }
        slot.timers.remove(tag.0);
        observer.timer_fired(self.now, node);
        let mut ctx = Context::new(self.now, node, slot.incarnation);
        if let Some(actor) = slot.actor.as_mut() {
            actor.on_timer(tag, &mut ctx);
        }
        let effects = ctx.into_effects();
        self.apply_effects(node, effects, observer, out);
    }

    fn handle_crash<O: Observer<A::Event>>(&mut self, node: NodeId, observer: &mut O) {
        let l = self.local(node);
        let slot = &mut self.nodes[l];
        if !slot.up {
            return;
        }
        slot.up = false;
        slot.actor = None;
        slot.epoch += 1;
        slot.timers.clear();
        observer.node_crashed(self.now, node);
    }

    fn handle_recover<O: Observer<A::Event>>(
        &mut self,
        node: NodeId,
        factory: &(dyn Fn(NodeId, u64) -> A + Send + Sync),
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        let l = self.local(node);
        {
            let slot = &mut self.nodes[l];
            if slot.up {
                return;
            }
            slot.up = true;
            slot.incarnation += 1;
        }
        let incarnation = self.nodes[l].incarnation;
        self.nodes[l].actor = Some(factory(node, incarnation));
        observer.node_recovered(self.now, node, incarnation);
        self.handle_start(node, observer, out);
    }

    fn apply_effects<O: Observer<A::Event>>(
        &mut self,
        node: NodeId,
        effects: Vec<Effect<A::Msg, A::Event>>,
        observer: &mut O,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    let bytes = msg.wire_size();
                    observer.message_sent(self.now, node, to, bytes);
                    if to.index() >= self.total_nodes {
                        // Destination unknown to this world: treated as lost.
                        observer.message_dropped(self.now, node, to, bytes);
                        continue;
                    }
                    let l = self.local(node);
                    match self
                        .medium
                        .transmit_fate(self.now, node, to, bytes, &mut self.rngs[l])
                    {
                        Fate::Dropped => observer.message_dropped(self.now, node, to, bytes),
                        Fate::Deliver { delay } => {
                            self.route(node, to, msg, bytes, self.now + delay, out);
                        }
                        Fate::DeliverTwice { first, second } => {
                            self.route(node, to, msg.clone(), bytes, self.now + first, out);
                            self.route(node, to, msg, bytes, self.now + second, out);
                        }
                    }
                }
                Effect::SetTimer { tag, at } => {
                    let l = self.local(node);
                    let slot = &mut self.nodes[l];
                    slot.timer_generation += 1;
                    let generation = slot.timer_generation;
                    slot.timers.insert(tag.0, generation);
                    let node_epoch = slot.epoch;
                    let fire_at = at.max(self.now);
                    let key = self.alloc_key(node);
                    self.wheel.push(
                        fire_at,
                        key,
                        EventKind::Timer {
                            node,
                            tag,
                            node_epoch,
                            generation,
                        },
                    );
                }
                Effect::CancelTimer { tag } => {
                    let l = self.local(node);
                    self.nodes[l].timers.remove(tag.0);
                }
                Effect::Emit(event) => {
                    observer.event_emitted(self.now, node, &event);
                }
            }
        }
    }

    /// Routes one delivery: into the local wheel if the destination lives on
    /// this shard, into the cross-shard outbox otherwise.
    fn route(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: A::Msg,
        bytes: usize,
        at: SimInstant,
        out: &mut [Vec<OutEvent<A::Msg>>],
    ) {
        let key = self.alloc_key(from);
        let kind = EventKind::Deliver {
            from,
            to,
            msg,
            bytes,
        };
        let dest = to.index() % self.stride;
        if dest == self.index {
            self.intra_sends += 1;
            self.wheel.push(at, key, kind);
        } else {
            self.cross_sends += 1;
            out[dest].push((at, key, kind));
        }
    }
}

/// The discrete-event simulator driving a set of actors.
///
/// See the [module documentation](self) for the execution model.
/// [`ParWorld::run_until`] takes one observer **per worker**; the caller
/// merges them afterwards (counters sum, traces merge-sort by time).
pub struct ParWorld<A: Actor, M: Medium> {
    now: SimInstant,
    workers: usize,
    num_nodes: usize,
    shards: Vec<Shard<A, M>>,
    factory: SharedActorFactory<A>,
}

impl<A: Actor, M: Medium> ParWorld<A, M> {
    /// Creates a world with `num_nodes` nodes sharded across `workers` sim
    /// workers (clamped to the node count), all initially up.
    ///
    /// Each shard receives an independent clone of `medium`. Every node's
    /// actor is built by `factory`, in global node-id order, and receives its
    /// `on_start` callback at time zero.
    pub fn new(
        num_nodes: usize,
        workers: usize,
        factory: SharedActorFactory<A>,
        medium: M,
        seed: u64,
    ) -> Self
    where
        M: Clone,
    {
        assert!(workers >= 1, "at least one sim worker is required");
        let workers = workers.min(num_nodes.max(1));
        let mut shards: Vec<Shard<A, M>> = (0..workers)
            .map(|index| Shard {
                index,
                stride: workers,
                total_nodes: num_nodes,
                nodes: Vec::with_capacity(num_nodes.div_ceil(workers)),
                rngs: Vec::with_capacity(num_nodes.div_ceil(workers)),
                seqs: Vec::with_capacity(num_nodes.div_ceil(workers)),
                wheel: EventWheel::new(),
                medium: medium.clone(),
                now: SimInstant::ZERO,
                events_processed: 0,
                intra_sends: 0,
                cross_sends: 0,
            })
            .collect();
        for g in 0..num_nodes {
            let node = NodeId(g as u32);
            let shard = &mut shards[g % workers];
            shard.nodes.push(NodeSlot::new(factory(node, 0)));
            shard.rngs.push(SimRng::seed_from(mix_seed(seed, g as u64)));
            shard.seqs.push(0);
        }
        for g in 0..num_nodes {
            let node = NodeId(g as u32);
            let shard = &mut shards[g % workers];
            let key = shard.alloc_key(node);
            shard
                .wheel
                .push(SimInstant::ZERO, key, EventKind::Start { node });
        }
        ParWorld {
            now: SimInstant::ZERO,
            workers,
            num_nodes,
            shards,
            factory,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Number of nodes in the world.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of sim workers (shards) driving this world.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total number of events processed so far, across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed).sum()
    }

    /// `(intra_shard, cross_shard)` delivery routing counts so far: how much
    /// traffic stayed shard-local versus crossed an epoch boundary.
    pub fn routing_stats(&self) -> (u64, u64) {
        self.shards
            .iter()
            .fold((0, 0), |(i, c), s| (i + s.intra_sends, c + s.cross_sends))
    }

    /// The lookahead currently in force: the minimum over all shard media of
    /// [`Medium::min_delay`]. Zero means the next run falls back to
    /// sequential canonical-order execution.
    pub fn lookahead(&self) -> SimDuration {
        self.shards
            .iter()
            .map(|s| s.medium.min_delay())
            .fold(SimDuration::MAX, SimDuration::min)
    }

    #[inline]
    fn shard_of(&self, node: NodeId) -> usize {
        node.index() % self.workers
    }

    /// Returns whether `node` is currently up.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_up(&self, node: NodeId) -> bool {
        let s = self.shard_of(node);
        self.shards[s].nodes[node.index() / self.workers].up
    }

    /// Returns the current incarnation of `node`.
    pub fn incarnation(&self, node: NodeId) -> u64 {
        let s = self.shard_of(node);
        self.shards[s].nodes[node.index() / self.workers].incarnation
    }

    /// Immutable access to the actor of `node`, if the node is up.
    pub fn actor(&self, node: NodeId) -> Option<&A> {
        let s = self.shard_of(node);
        let slot = &self.shards[s].nodes[node.index() / self.workers];
        if slot.up {
            slot.actor.as_ref()
        } else {
            None
        }
    }

    /// Mutable access to the actor of `node`, if the node is up.
    ///
    /// Intended for test instrumentation and the experiment harness;
    /// protocol interactions should go through messages and timers.
    pub fn actor_mut(&mut self, node: NodeId) -> Option<&mut A> {
        let s = self.shard_of(node);
        let local = node.index() / self.workers;
        let slot = &mut self.shards[s].nodes[local];
        if slot.up {
            slot.actor.as_mut()
        } else {
            None
        }
    }

    /// Applies `f` to every shard's medium clone, in shard order.
    ///
    /// Mid-run topology mutations (partitions, link overlays) must reach
    /// every clone to stay consistent.
    pub fn for_each_medium(&mut self, mut f: impl FnMut(&mut M)) {
        for shard in &mut self.shards {
            f(&mut shard.medium);
        }
    }

    /// Iterates the per-shard medium clones, in shard order (e.g. to sum
    /// per-shard traffic statistics).
    pub fn media(&self) -> impl Iterator<Item = &M> + '_ {
        self.shards.iter().map(|s| &s.medium)
    }

    /// Schedules a crash of `node` at absolute time `at`.
    ///
    /// Crashing an already-crashed node is a no-op at processing time.
    pub fn schedule_crash(&mut self, node: NodeId, at: SimInstant) {
        let s = self.shard_of(node);
        let shard = &mut self.shards[s];
        let key = shard.alloc_key(node);
        shard.wheel.push(at, key, EventKind::Crash { node });
    }

    /// Schedules a recovery of `node` at absolute time `at`.
    ///
    /// Recovering an already-up node is a no-op at processing time.
    pub fn schedule_recovery(&mut self, node: NodeId, at: SimInstant) {
        let s = self.shard_of(node);
        let shard = &mut self.shards[s];
        let key = shard.alloc_key(node);
        shard.wheel.push(at, key, EventKind::Recover { node });
    }

    /// Applies a closure to a live actor through the same effect-processing
    /// path as message and timer callbacks. This is how the harness issues
    /// API commands (register, join group, leave group) to service nodes.
    pub fn with_actor<O, F>(&mut self, node: NodeId, observer: &mut O, f: F)
    where
        O: Observer<A::Event>,
        F: FnOnce(&mut A, &mut Context<A::Msg, A::Event>),
    {
        let s = self.shard_of(node);
        let now = self.now;
        let mut out: Vec<Vec<OutEvent<A::Msg>>> = (0..self.workers).map(|_| Vec::new()).collect();
        {
            let shard = &mut self.shards[s];
            shard.now = shard.now.max(now);
            let l = shard.local(node);
            let slot = &mut shard.nodes[l];
            if !slot.up {
                return;
            }
            let mut ctx = Context::new(shard.now, node, slot.incarnation);
            if let Some(actor) = slot.actor.as_mut() {
                f(actor, &mut ctx);
            }
            let effects = ctx.into_effects();
            shard.apply_effects(node, effects, observer, &mut out);
        }
        self.flush_out(&mut out);
    }

    /// Pushes buffered cross-shard events straight into their destination
    /// wheels (main-thread contexts: sequential fallback, `with_actor`).
    fn flush_out(&mut self, out: &mut [Vec<OutEvent<A::Msg>>]) {
        for (dest, buf) in out.iter_mut().enumerate() {
            for (at, key, kind) in buf.drain(..) {
                self.shards[dest].wheel.push(at, key, kind);
            }
        }
    }

    /// Runs the simulation until virtual time `deadline`, reporting shard
    /// `w`'s activity to `observers[w]`. Events scheduled exactly at
    /// `deadline` are processed.
    ///
    /// # Panics
    ///
    /// Panics unless `observers.len() == self.workers()`, and resumes the
    /// panic of any actor or observer that panicked on a sim worker.
    pub fn run_until<O>(&mut self, deadline: SimInstant, observers: &mut [O])
    where
        O: Observer<A::Event> + Send,
        A: Send,
        A::Msg: Send,
        M: Send,
    {
        assert_eq!(
            observers.len(),
            self.workers,
            "one observer per sim worker is required"
        );
        let lookahead = self.lookahead();
        if self.workers == 1 || lookahead.is_zero() {
            self.run_until_sequential(deadline, observers);
        } else {
            self.run_until_epochs(deadline, lookahead, observers);
        }
        self.now = self.now.max(deadline);
        for shard in &mut self.shards {
            shard.now = self.now;
        }
    }

    /// Runs the simulation for `span` of virtual time from the current clock.
    pub fn run_for<O>(&mut self, span: SimDuration, observers: &mut [O])
    where
        O: Observer<A::Event> + Send,
        A: Send,
        A::Msg: Send,
        M: Send,
    {
        let deadline = self.now + span;
        self.run_until(deadline, observers);
    }

    /// The zero-lookahead (or single-worker) driver: one thread pops the
    /// globally minimal `(time, key)` event across all shards — the same
    /// canonical total order the epoch driver realizes in parallel.
    fn run_until_sequential<O: Observer<A::Event>>(
        &mut self,
        deadline: SimInstant,
        observers: &mut [O],
    ) {
        let mut out: Vec<Vec<OutEvent<A::Msg>>> = (0..self.workers).map(|_| Vec::new()).collect();
        loop {
            let mut best: Option<(SimInstant, u64, usize)> = None;
            for (s, shard) in self.shards.iter_mut().enumerate() {
                if let Some((at, key, _)) = shard.wheel.peek() {
                    if best.is_none_or(|(bat, bkey, _)| (at, key) < (bat, bkey)) {
                        best = Some((at, key, s));
                    }
                }
            }
            let Some((at, _, s)) = best else { break };
            if at > deadline {
                break;
            }
            let shard = &mut self.shards[s];
            let (at, _, kind) = shard.wheel.pop().expect("peeked event must pop");
            shard.exec(at, kind, &*self.factory, &mut observers[s], &mut out);
            self.flush_out(&mut out);
        }
    }

    /// The parallel driver: conservative barrier-delimited epochs of width
    /// `lookahead` (see the [module documentation](self)).
    fn run_until_epochs<O>(
        &mut self,
        deadline: SimInstant,
        lookahead: SimDuration,
        observers: &mut [O],
    ) where
        O: Observer<A::Event> + Send,
        A: Send,
        A::Msg: Send,
        M: Send,
    {
        let workers = self.workers;
        let lookahead_ns = lookahead.as_nanos();
        let deadline_ns = deadline.as_nanos();
        let barrier = Barrier::new(workers);
        let global_next = AtomicU64::new(u64::MAX);
        let epoch_upper = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let failure: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let inboxes: Vec<Mutex<Vec<OutEvent<A::Msg>>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        let sync = EpochSync {
            barrier: &barrier,
            global_next: &global_next,
            epoch_upper: &epoch_upper,
            done: &done,
            failure: &failure,
            inboxes: &inboxes,
            lookahead_ns,
            deadline_ns,
        };
        let factory: &(dyn Fn(NodeId, u64) -> A + Send + Sync) = &*self.factory;

        std::thread::scope(|scope| {
            let mut pairs: Vec<(&mut Shard<A, M>, &mut O)> =
                self.shards.iter_mut().zip(observers.iter_mut()).collect();
            // Worker 0 (the coordinator) runs on the calling thread.
            let (shard0, observer0) = pairs.remove(0);
            for (shard, observer) in pairs {
                let sync = &sync;
                scope.spawn(move || epoch_worker(shard, observer, factory, sync, false));
            }
            epoch_worker(shard0, observer0, factory, &sync, true);
        });
        let failure = failure.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(payload) = failure {
            panic::resume_unwind(payload);
        }
    }
}

/// The state the epoch workers of one [`ParWorld::run_until`] share.
struct EpochSync<'a, Msg> {
    barrier: &'a Barrier,
    /// Minimum next-event time over all shards, published in phase A.
    global_next: &'a AtomicU64,
    /// Exclusive upper bound of the current epoch, fixed in phase B.
    epoch_upper: &'a AtomicU64,
    /// Set by the coordinator in phase B when the run is over.
    done: &'a AtomicBool,
    /// The first panic a worker caught in phase C.
    failure: &'a Mutex<Option<Box<dyn Any + Send>>>,
    inboxes: &'a [Mutex<Vec<OutEvent<Msg>>>],
    lookahead_ns: u64,
    deadline_ns: u64,
}

/// One worker's epoch loop.
///
/// Three barriers per epoch: (A) drain the inbox and publish the local
/// next-event time, (B) the coordinator picks the epoch window
/// `[T, min(T + L, deadline + 1))` (or signals completion), (C) process
/// local events inside the window and flush buffered cross-shard sends to
/// the destination inboxes. The lookahead guarantees every cross-shard send
/// from inside the window arrives at or after its upper bound, so next
/// epoch's inbox drain can never deliver into the past.
///
/// A panic in phase C is caught and recorded, and the worker keeps meeting
/// the barriers; the coordinator ends the run at the next phase B, so no
/// surviving worker is left waiting on a barrier its peer never reaches.
fn epoch_worker<A, M, O>(
    shard: &mut Shard<A, M>,
    observer: &mut O,
    factory: &(dyn Fn(NodeId, u64) -> A + Send + Sync),
    sync: &EpochSync<'_, A::Msg>,
    coordinator: bool,
) where
    A: Actor,
    M: Medium,
    O: Observer<A::Event>,
{
    let mut out: Vec<Vec<OutEvent<A::Msg>>> = (0..sync.inboxes.len()).map(|_| Vec::new()).collect();
    loop {
        // Phase A: merge cross-shard arrivals, publish the local horizon.
        {
            let mut inbox = sync.inboxes[shard.index].lock().expect("inbox poisoned");
            for (at, key, kind) in inbox.drain(..) {
                shard.wheel.push(at, key, kind);
            }
        }
        let local_next = shard.wheel.peek_time().map_or(u64::MAX, |t| t.as_nanos());
        sync.global_next.fetch_min(local_next, Ordering::SeqCst);
        sync.barrier.wait();

        // Phase B: the coordinator fixes this epoch's window.
        if coordinator {
            let t = sync.global_next.swap(u64::MAX, Ordering::SeqCst);
            let failed = sync.failure.lock().map_or(true, |f| f.is_some());
            if failed || t == u64::MAX || t > sync.deadline_ns {
                sync.done.store(true, Ordering::SeqCst);
            } else {
                let upper = t
                    .saturating_add(sync.lookahead_ns)
                    .min(sync.deadline_ns.saturating_add(1));
                sync.epoch_upper.store(upper, Ordering::SeqCst);
            }
        }
        sync.barrier.wait();
        if sync.done.load(Ordering::SeqCst) {
            break;
        }
        let upper = sync.epoch_upper.load(Ordering::SeqCst);

        // Phase C: process everything strictly inside the window; newly
        // produced intra-shard events join in, cross-shard sends buffer.
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            while let Some(t) = shard.wheel.peek_time() {
                if t.as_nanos() >= upper {
                    break;
                }
                let (at, _, kind) = shard.wheel.pop().expect("peeked event must pop");
                shard.exec(at, kind, factory, observer, &mut out);
            }
        }));
        if let Err(payload) = run {
            let mut failure = sync.failure.lock().unwrap_or_else(|e| e.into_inner());
            failure.get_or_insert(payload);
        }
        for (dest, buf) in out.iter_mut().enumerate() {
            if !buf.is_empty() {
                sync.inboxes[dest]
                    .lock()
                    .expect("inbox poisoned")
                    .append(buf);
            }
        }
        sync.barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::{FixedDelayMedium, PerfectMedium, Verdict};
    use crate::observer::CountingObserver;

    /// A small test actor: pings its successor every 100 ms and counts pongs.
    #[derive(Debug, Clone, PartialEq)]
    enum TestMsg {
        Ping(u64),
        Pong(u64),
    }

    impl WireSize for TestMsg {
        fn wire_size(&self) -> usize {
            9
        }
    }

    struct PingActor {
        id: NodeId,
        n: u32,
        pings_sent: u64,
        pongs_received: u64,
        incarnation: u64,
        /// The actor panics on its first tick at or after this instant.
        panic_at: Option<SimInstant>,
    }

    const TICK: TimerTag = TimerTag(1);

    impl Actor for PingActor {
        type Msg = TestMsg;
        type Event = String;

        fn on_start(&mut self, ctx: &mut Context<TestMsg, String>) {
            self.incarnation = ctx.incarnation();
            ctx.set_timer_after(TICK, SimDuration::from_millis(100));
        }

        fn on_message(&mut self, from: NodeId, msg: TestMsg, ctx: &mut Context<TestMsg, String>) {
            match msg {
                TestMsg::Ping(n) => ctx.send(from, TestMsg::Pong(n)),
                TestMsg::Pong(_) => {
                    self.pongs_received += 1;
                    ctx.emit(format!("pong at {}", ctx.now()));
                }
            }
        }

        fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<TestMsg, String>) {
            assert_eq!(tag, TICK);
            if self.panic_at.is_some_and(|at| ctx.now() >= at) {
                panic!("{:?} fails at {}", self.id, ctx.now());
            }
            let next = NodeId((self.id.0 + 1) % self.n);
            self.pings_sent += 1;
            ctx.send(next, TestMsg::Ping(self.pings_sent));
            ctx.set_timer_after(TICK, SimDuration::from_millis(100));
        }
    }

    fn ping_factory(n: u32) -> SharedActorFactory<PingActor> {
        Box::new(move |id, incarnation| PingActor {
            id,
            n,
            pings_sent: 0,
            pongs_received: 0,
            incarnation,
            panic_at: None,
        })
    }

    fn ping_world<M: Medium + Clone>(
        n: u32,
        workers: usize,
        medium: M,
        seed: u64,
    ) -> ParWorld<PingActor, M> {
        ParWorld::new(n as usize, workers, ping_factory(n), medium, seed)
    }

    /// Sums per-worker counters into one.
    fn total(observers: &[CountingObserver]) -> CountingObserver {
        let mut total = CountingObserver::new();
        for o in observers {
            total.sent += o.sent;
            total.dropped += o.dropped;
            total.delivered += o.delivered;
            total.timers += o.timers;
            total.crashes += o.crashes;
            total.recoveries += o.recoveries;
            total.events += o.events;
            total.bytes_sent += o.bytes_sent;
            total.bytes_delivered += o.bytes_delivered;
        }
        total
    }

    /// Runs `world` for `span` with one counter per worker; returns the sum.
    fn run_counted<M: Medium + Send>(
        world: &mut ParWorld<PingActor, M>,
        span: SimDuration,
    ) -> CountingObserver {
        let mut obs = vec![CountingObserver::new(); world.workers()];
        world.run_for(span, &mut obs);
        total(&obs)
    }

    /// One run's comparable fingerprint: totals plus per-node actor state.
    fn fingerprint<M: Medium + Send + Clone>(
        n: u32,
        workers: usize,
        medium: M,
        with_churn: bool,
    ) -> (CountingObserver, u64, Vec<(u64, u64, u64)>) {
        let mut world = ping_world(n, workers, medium, 42);
        if with_churn {
            world.schedule_crash(NodeId(1), SimInstant::from_secs_f64(0.45));
            world.schedule_recovery(NodeId(1), SimInstant::from_secs_f64(0.75));
        }
        let total = run_counted(&mut world, SimDuration::from_secs(2));
        let actors = (0..n)
            .map(|i| {
                let node = NodeId(i);
                match world.actor(node) {
                    Some(a) => (a.pings_sent, a.pongs_received, world.incarnation(node)),
                    None => (u64::MAX, u64::MAX, world.incarnation(node)),
                }
            })
            .collect();
        (total, world.events_processed(), actors)
    }

    #[test]
    fn actors_exchange_messages_over_virtual_time() {
        for workers in [1, 2] {
            let mut world = ping_world(3, workers, PerfectMedium, 42);
            let obs = run_counted(&mut world, SimDuration::from_secs(1));
            // Each of 3 actors pings 10 times in 1s => 30 pings + 30 pongs sent.
            assert_eq!(obs.sent, 60, "workers={workers}");
            assert_eq!(obs.delivered, 60);
            assert_eq!(obs.dropped, 0);
            assert_eq!(obs.events, 30);
            let a = world.actor(NodeId(0)).unwrap();
            assert_eq!(a.pings_sent, 10);
            assert_eq!(a.pongs_received, 10);
            assert_eq!(world.now(), SimInstant::from_secs_f64(1.0));
        }
    }

    #[test]
    fn crash_discards_state_and_recovery_restarts_fresh() {
        for workers in [1, 2] {
            let mut world = ping_world(2, workers, PerfectMedium, 42);
            world.schedule_crash(NodeId(1), SimInstant::from_secs_f64(0.45));
            world.schedule_recovery(NodeId(1), SimInstant::from_secs_f64(0.75));
            let obs = run_counted(&mut world, SimDuration::from_secs(1));

            assert_eq!(obs.crashes, 1, "workers={workers}");
            assert_eq!(obs.recoveries, 1);
            assert!(world.is_up(NodeId(1)));
            assert_eq!(world.incarnation(NodeId(1)), 1);
            let n1 = world.actor(NodeId(1)).unwrap();
            // Fresh actor after recovery at 0.75s: pings at 0.85 and 0.95 only.
            assert_eq!(n1.pings_sent, 2);
            assert_eq!(n1.incarnation, 1);
            // Node 0 keeps running the whole second.
            assert_eq!(world.actor(NodeId(0)).unwrap().pings_sent, 10);
            // Messages sent to node 1 while it was down were dropped.
            assert!(obs.dropped > 0);
        }
    }

    #[test]
    fn crash_of_crashed_node_and_recovery_of_up_node_are_noops() {
        for workers in [1, 2] {
            let mut world = ping_world(2, workers, PerfectMedium, 42);
            world.schedule_crash(NodeId(0), SimInstant::from_secs_f64(0.2));
            world.schedule_crash(NodeId(0), SimInstant::from_secs_f64(0.3));
            world.schedule_recovery(NodeId(1), SimInstant::from_secs_f64(0.2));
            let obs = run_counted(&mut world, SimDuration::from_millis(500));
            assert_eq!(obs.crashes, 1, "workers={workers}");
            assert_eq!(obs.recoveries, 0);
            assert!(!world.is_up(NodeId(0)));
            assert!(world.actor(NodeId(0)).is_none());
            assert_eq!(world.incarnation(NodeId(1)), 0);
        }
    }

    #[test]
    fn timers_do_not_survive_crash() {
        // Two nodes so the run really shards at W=2; both crash just before
        // their first tick at 100ms, so no timer may fire.
        let delay = FixedDelayMedium::new(SimDuration::from_millis(5));
        for workers in [1, 2] {
            let mut world = ping_world(2, workers, delay, 42);
            world.schedule_crash(NodeId(0), SimInstant::from_secs_f64(0.05));
            world.schedule_crash(NodeId(1), SimInstant::from_secs_f64(0.05));
            world.schedule_recovery(NodeId(1), SimInstant::from_secs_f64(0.06));
            let obs = run_counted(&mut world, SimDuration::from_millis(150));
            // Node 1's fresh life arms its first tick at 160ms: nothing
            // from either node's previous life fires.
            assert_eq!(obs.timers, 0, "workers={workers}");
            assert_eq!(obs.sent, 0);
        }
    }

    #[test]
    fn fixed_delay_medium_delays_delivery() {
        let delay = FixedDelayMedium::new(SimDuration::from_millis(40));
        for workers in [1, 2] {
            let mut world = ping_world(2, workers, delay, 7);
            let mut obs = vec![CountingObserver::new(); world.workers()];
            // Ping sent at 100ms arrives at 140ms, pong back at 180ms.
            world.run_until(SimInstant::from_secs_f64(0.139), &mut obs);
            assert_eq!(total(&obs).delivered, 0, "workers={workers}");
            world.run_until(SimInstant::from_secs_f64(0.141), &mut obs);
            // Both directions' pings delivered at 140ms.
            assert_eq!(total(&obs).delivered, 2, "workers={workers}");
        }
    }

    #[test]
    fn with_actor_runs_through_effect_pipeline() {
        for workers in [1, 2] {
            let mut world = ping_world(2, workers, PerfectMedium, 42);
            let mut obs = vec![CountingObserver::new(); world.workers()];
            world.run_for(SimDuration::from_millis(10), &mut obs);
            world.with_actor(NodeId(0), &mut obs[0], |_actor, ctx| {
                ctx.send(NodeId(1), TestMsg::Ping(99));
            });
            assert_eq!(total(&obs).sent, 1, "workers={workers}");
            world.run_for(SimDuration::from_millis(1), &mut obs);
            // The ping is delivered and node 1 immediately replies with a
            // pong, which is also delivered (zero-delay medium).
            assert_eq!(total(&obs).sent, 2);
            assert_eq!(total(&obs).delivered, 2);
        }
    }

    #[test]
    fn with_actor_routes_cross_shard_sends() {
        let mut world = ping_world(4, 2, FixedDelayMedium::new(SimDuration::from_millis(1)), 7);
        let mut obs = vec![CountingObserver::new(); world.workers()];
        world.run_for(SimDuration::from_millis(10), &mut obs);
        // Node 0 (shard 0) pings node 1 (shard 1): a cross-shard send.
        let mut extra = CountingObserver::new();
        world.with_actor(NodeId(0), &mut extra, |_a, ctx| {
            ctx.send(NodeId(1), TestMsg::Ping(99));
        });
        assert_eq!(extra.sent, 1);
        world.run_for(SimDuration::from_millis(5), &mut obs);
        assert!(total(&obs).delivered >= 1);
        let (_intra, cross) = world.routing_stats();
        assert!(cross >= 1, "ring traffic must cross the 2-shard cut");
    }

    #[test]
    fn determinism_same_seed_same_counts() {
        let run = |seed: u64| {
            let mut world = ping_world(4, 1, PerfectMedium, seed);
            world.schedule_crash(NodeId(2), SimInstant::from_secs_f64(1.5));
            world.schedule_recovery(NodeId(2), SimInstant::from_secs_f64(2.5));
            let obs = run_counted(&mut world, SimDuration::from_secs(5));
            (obs, world.events_processed())
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn worker_counts_replay_identically_with_lookahead() {
        let delay = FixedDelayMedium::new(SimDuration::from_millis(5));
        let base = fingerprint(6, 1, delay, true);
        for workers in [2, 3, 6] {
            assert_eq!(
                fingerprint(6, workers, delay, true),
                base,
                "workers={workers} diverged from workers=1"
            );
        }
    }

    #[test]
    fn zero_lookahead_falls_back_and_still_replays_identically() {
        let base = fingerprint(5, 1, PerfectMedium, false);
        for workers in [2, 4] {
            let run = fingerprint(5, workers, PerfectMedium, false);
            assert_eq!(run, base, "workers={workers} diverged from workers=1");
        }
    }

    #[test]
    fn crash_and_recovery_cross_worker_parity() {
        let delay = FixedDelayMedium::new(SimDuration::from_millis(3));
        let a = fingerprint(8, 2, delay, true);
        let b = fingerprint(8, 8, delay, true);
        assert_eq!(a, b);
        // The churn actually happened.
        assert_eq!(a.0.crashes, 1);
        assert_eq!(a.0.recoveries, 1);
    }

    #[test]
    fn workers_clamp_to_node_count_and_observe_lookahead() {
        let world = ping_world(2, 16, FixedDelayMedium::new(SimDuration::from_millis(2)), 1);
        assert_eq!(world.workers(), 2);
        assert_eq!(world.lookahead(), SimDuration::from_millis(2));
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut world = ping_world(0, 4, PerfectMedium, 1);
        let mut obs = vec![CountingObserver::new(); world.workers()];
        world.run_until(SimInstant::from_secs_f64(3.0), &mut obs);
        assert_eq!(world.now(), SimInstant::from_secs_f64(3.0));
        assert_eq!(world.num_nodes(), 0);
    }

    #[test]
    fn run_until_lands_on_the_target_between_events() {
        // Ticks fall on multiples of 100 ms; 350 ms has no event of its own.
        for workers in [1, 2] {
            let mut world = ping_world(3, workers, PerfectMedium, 1);
            let mut obs = vec![CountingObserver::new(); world.workers()];
            world.run_until(SimInstant::from_secs_f64(0.35), &mut obs);
            assert_eq!(world.now(), SimInstant::from_secs_f64(0.35));
            assert_eq!(total(&obs).timers, 9, "workers={workers}");
        }
    }

    /// A medium that duplicates every message with a 1 ms gap between the
    /// two copies.
    #[derive(Clone)]
    struct DuplicatingMedium;

    impl Medium for DuplicatingMedium {
        fn transmit(
            &mut self,
            _now: SimInstant,
            _from: NodeId,
            _to: NodeId,
            _wire_bytes: usize,
            _rng: &mut SimRng,
        ) -> Verdict {
            Verdict::immediate()
        }

        fn transmit_fate(
            &mut self,
            _now: SimInstant,
            _from: NodeId,
            _to: NodeId,
            _wire_bytes: usize,
            _rng: &mut SimRng,
        ) -> Fate {
            Fate::DeliverTwice {
                first: SimDuration::ZERO,
                second: SimDuration::from_millis(1),
            }
        }
    }

    #[test]
    fn duplicating_medium_delivers_every_message_twice() {
        let mut world = ping_world(1, 1, DuplicatingMedium, 5);
        let mut obs = [CountingObserver::new()];
        // One node pinging itself: each ping is duplicated, and each of the
        // two delivered pings triggers a pong, which is duplicated again.
        world.run_until(SimInstant::from_secs_f64(0.105), &mut obs);
        // 1 ping sent, delivered twice; 2 pongs sent, delivered 4 times.
        assert_eq!(obs[0].sent, 3);
        assert_eq!(obs[0].delivered, 6);
        assert_eq!(world.actor(NodeId(0)).unwrap().pongs_received, 4);
    }

    #[test]
    fn send_to_unknown_node_is_dropped() {
        for workers in [1, 2] {
            let mut world = ping_world(2, workers, PerfectMedium, 42);
            let mut obs = CountingObserver::new();
            world.with_actor(NodeId(1), &mut obs, |_a, ctx| {
                ctx.send(NodeId(57), TestMsg::Ping(1));
            });
            assert_eq!(obs.sent, 1, "workers={workers}");
            assert_eq!(obs.dropped, 1);
        }
    }

    /// Two nodes over a 1 ms medium at two workers, where `faulty` panics at
    /// its 100 ms tick: the run must fail, not hang on an epoch barrier.
    fn run_with_panicking_node(faulty: NodeId) {
        let factory: SharedActorFactory<PingActor> = Box::new(move |id, incarnation| PingActor {
            id,
            n: 2,
            pings_sent: 0,
            pongs_received: 0,
            incarnation,
            panic_at: (id == faulty).then(|| SimInstant::from_secs_f64(0.05)),
        });
        let medium = FixedDelayMedium::new(SimDuration::from_millis(1));
        let mut world = ParWorld::new(2, 2, factory, medium, 3);
        let mut obs = vec![CountingObserver::new(); world.workers()];
        world.run_for(SimDuration::from_secs(1), &mut obs);
    }

    #[test]
    #[should_panic(expected = "n1 fails at")]
    fn a_panic_on_a_spawned_worker_fails_the_run() {
        // Node 1 lives on shard 1, which runs on a spawned thread.
        run_with_panicking_node(NodeId(1));
    }

    #[test]
    #[should_panic(expected = "n0 fails at")]
    fn a_panic_on_the_coordinator_shard_fails_the_run() {
        // Node 0 lives on shard 0, which the calling thread drives.
        run_with_panicking_node(NodeId(0));
    }
}
