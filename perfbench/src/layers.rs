//! The benchmark's own wrappers around the service's layers.
//!
//! Each wrapper forwards every call unchanged and, when tracing is on,
//! records a span around it (see [`crate::spans`]):
//!
//! * [`TracedNode`] — an [`Actor`] around [`ServiceNode`] (`core.*`),
//! * [`TracedMedium`] — a [`Medium`] around the simulated network
//!   (`net.transmit`),
//! * [`TracedEndpoint`] — a [`MessageEndpoint`] around a UDP plane endpoint
//!   (`udp.send`, `udp.flush`); the client's endpoint also logs when each
//!   applied reply arrived, which is how request latency is measured.
//!
//! All three also feed the wire-codec sample: a bounded set of the
//! messages the workload really sent, timed through `encode_frame` /
//! `decode_frame` after the run.

use std::cell::Cell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sle_core::{ServiceEvent, ServiceMessage, ServiceNode};
use sle_net::transport::{Incoming, MessageEndpoint, ShardDelivery, TransportError};
use sle_sim::medium::{Fate, Medium, Verdict};
use sle_sim::{Actor, Context, NodeId, SimDuration, SimInstant, SimRng, TimerTag};

use crate::spans::{self, Count, Span};

/// Messages kept for the wire-codec measurement.
const WIRE_SAMPLE: usize = 4096;
/// Keep one sent message in this many.
const WIRE_STRIDE: u64 = 61;

static WIRE: OnceLock<Mutex<Vec<(NodeId, ServiceMessage)>>> = OnceLock::new();

thread_local! {
    static WIRE_SEEN: Cell<u64> = const { Cell::new(0) };
}

/// Offers a sent message to the wire-codec sample (tracing only).
fn sample_wire(from: NodeId, msg: &ServiceMessage) {
    let seen = WIRE_SEEN.with(|seen| {
        seen.set(seen.get() + 1);
        seen.get()
    });
    if seen.is_multiple_of(WIRE_STRIDE) {
        let mut wire = WIRE
            .get_or_init(|| Mutex::new(Vec::new()))
            .lock()
            .expect("wire sample poisoned");
        if wire.len() < WIRE_SAMPLE {
            wire.push((from, msg.clone()));
        }
    }
}

/// The sampled messages, taken out of the sample.
pub fn take_wire_sample() -> Vec<(NodeId, ServiceMessage)> {
    WIRE.get()
        .map(|w| std::mem::take(&mut *w.lock().expect("wire sample poisoned")))
        .unwrap_or_default()
}

/// A [`ServiceNode`] whose callbacks are timed per message kind.
pub struct TracedNode {
    /// The wrapped service instance.
    pub inner: ServiceNode,
    /// Simulator shard count (node `g` lives in shard `g % shards`).
    shards: usize,
}

impl TracedNode {
    /// Wraps `inner`, which runs in a world of `shards` shards.
    pub fn new(inner: ServiceNode, shards: usize) -> Self {
        TracedNode { inner, shards }
    }

    fn finish(
        &self,
        timer: spans::Timer,
        span: Span,
        ctx: &Context<ServiceMessage, ServiceEvent>,
        effects_before: usize,
    ) -> usize {
        let node = ctx.node();
        timer.finish(
            span,
            Some(node.index() % self.shards),
            ctx.now().as_nanos(),
            node.0,
        );
        let effects = ctx.effect_count() - effects_before;
        spans::count(Count::CoreEffects, effects as u64);
        effects
    }
}

fn message_span(msg: &ServiceMessage) -> Span {
    match msg {
        ServiceMessage::Alive { .. } | ServiceMessage::AliveBatch { .. } => Span::CoreAlive,
        ServiceMessage::Hello { .. } => Span::CoreHello,
        _ => Span::CoreOther,
    }
}

impl Actor for TracedNode {
    type Msg = ServiceMessage;
    type Event = ServiceEvent;

    fn on_start(&mut self, ctx: &mut Context<ServiceMessage, ServiceEvent>) {
        if !spans::enabled() {
            return self.inner.on_start(ctx);
        }
        let before = ctx.effect_count();
        let timer = spans::start();
        self.inner.on_start(ctx);
        self.finish(timer, Span::CoreStart, ctx, before);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: ServiceMessage,
        ctx: &mut Context<ServiceMessage, ServiceEvent>,
    ) {
        if !spans::enabled() {
            return self.inner.on_message(from, msg, ctx);
        }
        let span = message_span(&msg);
        sample_wire(from, &msg);
        let before = ctx.effect_count();
        let timer = spans::start();
        self.inner.on_message(from, msg, ctx);
        self.finish(timer, span, ctx, before);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<ServiceMessage, ServiceEvent>) {
        if !spans::enabled() {
            return self.inner.on_timer(tag, ctx);
        }
        let before = ctx.effect_count();
        let timer = spans::start();
        self.inner.on_timer(tag, ctx);
        if self.finish(timer, Span::CoreTimer, ctx, before) == 0 {
            spans::count(Count::CoreIdleTimers, 1);
        }
    }
}

/// A [`Medium`] whose transmissions are timed and whose drops are counted.
#[derive(Clone)]
pub struct TracedMedium<M> {
    inner: M,
    shards: usize,
}

impl<M> TracedMedium<M> {
    /// Wraps `inner`, shared by a world of `shards` shards.
    pub fn new(inner: M, shards: usize) -> Self {
        TracedMedium { inner, shards }
    }
}

impl<M: Medium> Medium for TracedMedium<M> {
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
        if !spans::enabled() {
            return self.inner.transmit_fate(now, from, to, wire_bytes, rng);
        }
        let timer = spans::start();
        let fate = self.inner.transmit_fate(now, from, to, wire_bytes, rng);
        timer.finish(
            Span::NetTransmit,
            Some(from.index() % self.shards),
            now.as_nanos(),
            from.0,
        );
        if !fate.is_delivered() {
            spans::count(Count::NetDropped, 1);
        }
        fate
    }

    fn min_delay(&self) -> SimDuration {
        self.inner.min_delay()
    }
}

/// When each applied client reply arrived, keyed by `(session, seq)`.
#[derive(Default)]
pub struct ReplyLog {
    applied: Mutex<Vec<(u64, u64, Instant)>>,
}

impl ReplyLog {
    /// Takes every logged arrival out of the log.
    pub fn take(&self) -> Vec<(u64, u64, Instant)> {
        std::mem::take(&mut *self.applied.lock().expect("reply log poisoned"))
    }
}

/// A [`MessageEndpoint`] whose sends and flushes are timed.
pub struct TracedEndpoint<E> {
    inner: E,
    /// Set on the client's endpoint: applied replies are logged here.
    replies: Option<Arc<ReplyLog>>,
    /// Wall-clock origin of the protocol timeline (for the raw sample).
    origin: Instant,
}

impl<E> TracedEndpoint<E> {
    /// Wraps a service node's endpoint.
    pub fn new(inner: E, origin: Instant) -> Self {
        TracedEndpoint {
            inner,
            replies: None,
            origin,
        }
    }

    /// Wraps the client's endpoint, logging applied replies into `replies`.
    pub fn client(inner: E, origin: Instant, replies: Arc<ReplyLog>) -> Self {
        TracedEndpoint {
            inner,
            replies: Some(replies),
            origin,
        }
    }

    fn at_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn log(&self, incoming: Option<Incoming<ServiceMessage>>) -> Option<Incoming<ServiceMessage>> {
        if let (
            Some(log),
            Some(Incoming {
                msg:
                    ServiceMessage::ClientReply {
                        session,
                        seq,
                        applied: true,
                        ..
                    },
                ..
            }),
        ) = (&self.replies, &incoming)
        {
            log.applied
                .lock()
                .expect("reply log poisoned")
                .push((*session, *seq, Instant::now()));
        }
        incoming
    }
}

impl<E: MessageEndpoint<ServiceMessage>> MessageEndpoint<ServiceMessage> for TracedEndpoint<E> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&self, to: NodeId, msg: ServiceMessage) -> Result<(), TransportError> {
        if !spans::enabled() {
            return self.inner.send(to, msg);
        }
        sample_wire(self.inner.node(), &msg);
        let at_ns = self.at_ns();
        let timer = spans::start();
        let result = self.inner.send(to, msg);
        timer.finish(Span::UdpSend, None, at_ns, self.inner.node().0);
        result
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Incoming<ServiceMessage>> {
        self.log(self.inner.recv_timeout(timeout))
    }

    fn try_recv(&self) -> Option<Incoming<ServiceMessage>> {
        self.log(self.inner.try_recv())
    }

    fn set_delivery_sink(&self, sink: ShardDelivery<ServiceMessage>) -> bool {
        self.inner.set_delivery_sink(sink)
    }

    fn flush_sends(&self) {
        if !spans::enabled() {
            return self.inner.flush_sends();
        }
        let at_ns = self.at_ns();
        let timer = spans::start();
        self.inner.flush_sends();
        timer.finish(Span::UdpFlush, None, at_ns, self.inner.node().0);
    }
}
