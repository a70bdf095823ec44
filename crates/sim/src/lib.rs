//! # sle-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate on which the stable leader-election service
//! (the reproduction of Schiper & Toueg, *"A Robust and Lightweight Stable
//! Leader Election Service for Dynamic Systems"*, DSN 2008) is evaluated.
//! The paper ran its experiments on a 12-workstation cluster for days at a
//! time, injecting workstation crashes, message losses, message delays and
//! link crashes with dedicated modules. This crate provides the equivalent
//! apparatus in virtual time:
//!
//! * [`time`] — nanosecond-resolution virtual instants and durations,
//! * [`rng`] — deterministic, fork-able random number generation,
//! * [`actor`] — the sans-io protocol-node abstraction (messages, timers,
//!   application events) shared with the real-time runtime,
//! * [`dense`] — allocation-light maps/indices for hot per-node state,
//! * [`medium`] — the pluggable link-model interface,
//! * [`wheel`] — the hierarchical timer wheel backing the event loop
//!   (`O(1)` scheduling at any population of pending timers),
//! * [`par`] — the event loop with node crash/recovery support, sharded
//!   across sim workers with conservative lookahead (see `docs/SIM.md`),
//! * [`observer`] — hooks from which the experiment harness computes the
//!   paper's QoS metrics.
//!
//! ## Example
//!
//! ```
//! use sle_sim::prelude::*;
//!
//! // A node that emits one event per second.
//! struct Ticker;
//! impl Actor for Ticker {
//!     type Msg = ();
//!     type Event = u64;
//!     fn on_start(&mut self, ctx: &mut Context<(), u64>) {
//!         ctx.set_timer_after(TimerTag(0), SimDuration::from_secs(1));
//!     }
//!     fn on_message(&mut self, _: NodeId, _: (), _: &mut Context<(), u64>) {}
//!     fn on_timer(&mut self, _: TimerTag, ctx: &mut Context<(), u64>) {
//!         ctx.emit(ctx.now().as_nanos());
//!         ctx.set_timer_after(TimerTag(0), SimDuration::from_secs(1));
//!     }
//! }
//!
//! let mut world = ParWorld::new(1, 1, Box::new(|_, _| Ticker), PerfectMedium, 1);
//! let mut counter = [CountingObserver::new()];
//! world.run_for(SimDuration::from_secs(10), &mut counter);
//! assert_eq!(counter[0].events, 10);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod actor;
pub mod dense;
pub mod medium;
pub mod observer;
pub mod par;
pub mod rng;
pub mod time;
pub mod timeline;
pub mod wheel;

/// Convenient re-exports of the items most users need.
pub mod prelude {
    pub use crate::actor::{Actor, Context, Effect, NodeId, TimerTag, WireSize};
    pub use crate::medium::{
        Fate, FixedDelayMedium, Medium, PerfectMedium, SteppedDelayMedium, Verdict,
    };
    pub use crate::observer::{CountingObserver, NullObserver, Observer, PairObserver};
    pub use crate::par::{ParWorld, SharedActorFactory};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimInstant};
    pub use crate::timeline::Timeline;
    pub use crate::wheel::{EventWheel, TimerWheel};
}

pub use actor::{Actor, Context, Effect, NodeId, TimerTag, WireSize};
pub use dense::{SlotIndex, TagMap};
pub use medium::{Fate, FixedDelayMedium, Medium, PerfectMedium, SteppedDelayMedium, Verdict};
pub use observer::{CountingObserver, NullObserver, Observer, PairObserver};
pub use par::{ParWorld, SharedActorFactory};
pub use rng::SimRng;
pub use time::{SimDuration, SimInstant};
pub use timeline::Timeline;
pub use wheel::{EventWheel, TimerWheel};
