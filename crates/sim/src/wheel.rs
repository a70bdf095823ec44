//! A hierarchical timer wheel: the event queue of each [`ParWorld`] shard.
//!
//! The simulator used to keep every pending event in one sorted timeline (a
//! binary heap), paying `O(log n)` per schedule and per pop. At the scale
//! the ROADMAP targets — thousands of groups, each arming heartbeat and
//! failure-detector timers — the heap becomes the hot path of the whole
//! simulation. An [`EventWheel`] replaces it with the classic hashed
//! hierarchical timer wheel (Varghese & Lauck, SOSP '87): scheduling is
//! `O(1)` (a shift, a mask, a `Vec::push`), cancellation stays the lazy
//! generation-check it always was, and popping amortises to `O(1)` through
//! per-level occupancy bitmaps (one `u64` per level, so "find the next
//! non-empty slot" is a single `trailing_zeros`).
//!
//! Determinism is preserved exactly: events are delivered in `(time, seq)`
//! order, the same total order the sorted timeline produced, so any
//! execution replays identically after the swap.
//!
//! # Geometry
//!
//! One tick is 2¹⁶ ns (≈ 65.5 µs). Eight levels of 64 slots each cover
//! 64⁸ ticks = 2⁴⁸ ticks = the entire `u64` nanosecond range, so there is
//! no overflow list: even a timer armed for [`SimInstant::FAR_FUTURE`]
//! lands in a (top-level) slot.
//!
//! [`ParWorld`]: crate::par::ParWorld
//! [`SimInstant::FAR_FUTURE`]: crate::time::SimInstant::FAR_FUTURE

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimInstant;

/// log2 of the tick length in nanoseconds (one tick = 65 536 ns).
const TICK_BITS: u32 = 16;
/// log2 of the number of slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels; `64^8` ticks of 2^16 ns span the whole u64 range.
const LEVELS: usize = 8;

fn tick_of(at: SimInstant) -> u64 {
    at.as_nanos() >> TICK_BITS
}

/// An event stored in the wheel.
#[derive(Debug)]
struct Entry<T> {
    at: SimInstant,
    seq: u64,
    item: T,
}

/// Entries of the tick currently being drained, ordered earliest-first.
struct Pending<T>(Entry<T>);

impl<T> PartialEq for Pending<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for Pending<T> {}
impl<T> PartialOrd for Pending<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Pending<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // `(time, seq)` on top.
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// A hierarchical timer wheel holding `(time, seq, item)` events and
/// yielding them in `(time, seq)` order.
///
/// `seq` is the caller's insertion counter; it breaks ties between events
/// scheduled for the same instant, which is what makes the simulation
/// deterministic.
///
/// ```
/// use sle_sim::time::SimInstant;
/// use sle_sim::wheel::EventWheel;
///
/// let mut wheel = EventWheel::new();
/// wheel.push(SimInstant::from_secs_f64(2.0), 1, "late");
/// wheel.push(SimInstant::from_secs_f64(1.0), 2, "early");
/// assert_eq!(wheel.peek_time(), Some(SimInstant::from_secs_f64(1.0)));
/// assert_eq!(wheel.pop().map(|(_, _, item)| item), Some("early"));
/// assert_eq!(wheel.pop().map(|(_, _, item)| item), Some("late"));
/// assert!(wheel.pop().is_none());
/// ```
pub struct EventWheel<T> {
    /// `levels[k][s]` holds entries whose tick differs from `elapsed` first
    /// (most significantly) in digit `k`, with digit value `s`.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// One occupancy bit per slot per level.
    occupied: [u64; LEVELS],
    /// The tick the wheel has drained up to: every entry still in a slot
    /// has `tick > elapsed`; entries with `tick <= elapsed` sit in
    /// `current`.
    elapsed: u64,
    /// Entries of already-reached ticks, ordered by `(time, seq)`.
    current: BinaryHeap<Pending<T>>,
    len: usize,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// Creates an empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        EventWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            elapsed: 0,
            current: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` at `(at, seq)`. `O(1)`.
    ///
    /// Events are yielded in `(at, seq)` order, so callers must hand out
    /// monotonically increasing `seq` values to preserve insertion order
    /// among ties.
    pub fn push(&mut self, at: SimInstant, seq: u64, item: T) {
        self.len += 1;
        let entry = Entry { at, seq, item };
        let tick = tick_of(at);
        if tick <= self.elapsed {
            self.current.push(Pending(entry));
            return;
        }
        // The level is the most significant 6-bit digit in which `tick`
        // differs from the cursor; the slot is that digit's value. Since
        // `tick > elapsed`, the slot index always lies strictly above the
        // cursor's digit at that level, so occupied slots never wrap.
        let differing = tick ^ self.elapsed;
        let level = ((63 - differing.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level][slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// The instant of the earliest queued event, if any.
    ///
    /// Takes `&mut self` because finding the next event may cascade
    /// higher-level slots down the hierarchy (a pure relocation: no event
    /// is gained, lost or reordered by it).
    pub fn peek_time(&mut self) -> Option<SimInstant> {
        self.advance_to_next();
        self.current.peek().map(|pending| pending.0.at)
    }

    /// The earliest queued event as `(at, seq, &item)` without removing it.
    ///
    /// Like [`EventWheel::peek_time`], this may cascade slots internally,
    /// hence `&mut self`.
    pub fn peek(&mut self) -> Option<(SimInstant, u64, &T)> {
        self.advance_to_next();
        self.current
            .peek()
            .map(|pending| (pending.0.at, pending.0.seq, &pending.0.item))
    }

    /// Removes and returns the earliest event as `(at, seq, item)`.
    pub fn pop(&mut self) -> Option<(SimInstant, u64, T)> {
        self.advance_to_next();
        let Pending(entry) = self.current.pop()?;
        self.len -= 1;
        Some((entry.at, entry.seq, entry.item))
    }

    /// Moves the cursor forward until the earliest pending tick has been
    /// drained into `current` (cascading coarser levels as needed).
    fn advance_to_next(&mut self) {
        while self.current.is_empty() {
            // The earliest event lives in the lowest non-empty level's
            // lowest occupied slot: finer levels always hold nearer ticks.
            let Some(level) = (0..LEVELS).find(|&k| self.occupied[k] != 0) else {
                return;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            // Jump the cursor to the start of that slot's tick range and
            // re-home its entries, which now belong to finer levels (or,
            // at level 0, to the tick being drained).
            let shift = SLOT_BITS * level as u32;
            let above = SLOT_BITS * (level as u32 + 1);
            let prefix = if above >= 64 {
                0
            } else {
                self.elapsed & !((1u64 << above) - 1)
            };
            self.elapsed = prefix | ((slot as u64) << shift);
            self.occupied[level] &= !(1 << slot);
            let entries = std::mem::take(&mut self.levels[level][slot]);
            if level == 0 {
                // Every entry in a level-0 slot has exactly this tick.
                self.current.extend(entries.into_iter().map(Pending));
            } else {
                self.len -= entries.len();
                for entry in entries {
                    let Entry { at, seq, item } = entry;
                    self.push(at, seq, item);
                }
            }
        }
    }
}

impl<T> std::fmt::Debug for EventWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventWheel")
            .field("len", &self.len)
            .field("elapsed_tick", &self.elapsed)
            .finish()
    }
}

/// A keyed, cancelable timer facade over [`EventWheel`]: the same `O(1)`
/// hierarchical wheel, generalized over the caller's key (the sharded
/// real-time runtime in `sle-core` keys it by `(NodeId, TimerTag)`).
///
/// Scheduling a key that is already armed re-arms it (the previous deadline
/// is superseded), and [`TimerWheel::cancel`] disarms it — both in `O(1)`,
/// using the same lazy generation check the simulator's `ParWorld` uses: stale
/// wheel entries are discarded when they surface. The clock is whatever the
/// caller's [`SimInstant`]s mean — virtual time under the simulator, or
/// nanoseconds since some wall-clock epoch under a real-time runtime.
///
/// ```
/// use sle_sim::time::SimInstant;
/// use sle_sim::wheel::TimerWheel;
///
/// let mut wheel: TimerWheel<&str> = TimerWheel::new();
/// wheel.schedule("hello", SimInstant::from_secs_f64(1.0));
/// wheel.schedule("alive", SimInstant::from_secs_f64(0.5));
/// wheel.schedule("hello", SimInstant::from_secs_f64(2.0)); // re-arm
/// wheel.cancel(&"alive");
/// assert_eq!(wheel.next_deadline(), Some(SimInstant::from_secs_f64(2.0)));
/// let now = SimInstant::from_secs_f64(3.0);
/// assert_eq!(wheel.pop_due(now), Some((SimInstant::from_secs_f64(2.0), "hello")));
/// assert_eq!(wheel.pop_due(now), None);
/// ```
pub struct TimerWheel<K> {
    wheel: EventWheel<K>,
    /// Per-key arm state: the generation of the live wheel entry (its `seq`)
    /// and the deadline it was armed for. A wheel entry whose `seq` no
    /// longer matches is stale (re-armed or cancelled) and is dropped when
    /// it reaches the front.
    armed: std::collections::HashMap<K, (u64, SimInstant)>,
    generation: u64,
}

impl<K> Default for TimerWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> TimerWheel<K> {
    /// Creates an empty timer wheel.
    pub fn new() -> Self {
        TimerWheel {
            wheel: EventWheel::new(),
            armed: std::collections::HashMap::new(),
            generation: 0,
        }
    }
}

impl<K: Clone + Eq + std::hash::Hash> TimerWheel<K> {
    /// Number of armed timers (stale wheel entries do not count).
    pub fn len(&self) -> usize {
        self.armed.len()
    }

    /// True if no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Arms (or re-arms) `key` to fire at `at`. `O(1)`.
    ///
    /// Generations are handed out in call order, so two timers armed for
    /// the same instant fire in the order they were (most recently) armed —
    /// the same deterministic tie-break the simulator uses.
    pub fn schedule(&mut self, key: K, at: SimInstant) {
        self.generation += 1;
        self.armed.insert(key.clone(), (self.generation, at));
        self.wheel.push(at, self.generation, key);
    }

    /// Disarms `key` if it is armed. `O(1)` (the wheel entry is dropped
    /// lazily when it surfaces).
    pub fn cancel(&mut self, key: &K) {
        self.armed.remove(key);
    }

    /// The deadline `key` is currently armed for, if any.
    pub fn deadline_of(&self, key: &K) -> Option<SimInstant> {
        self.armed.get(key).map(|&(_, at)| at)
    }

    /// The earliest live deadline, if any timer is armed.
    ///
    /// Takes `&mut self`: stale entries in front are discarded and wheel
    /// slots may cascade while searching.
    pub fn next_deadline(&mut self) -> Option<SimInstant> {
        loop {
            let (at, seq, key) = self.wheel.peek()?;
            match self.armed.get(key) {
                Some(&(generation, _)) if generation == seq => return Some(at),
                _ => {
                    // Re-armed or cancelled since it was pushed: discard.
                    self.wheel.pop();
                }
            }
        }
    }

    /// Removes and returns the earliest timer whose deadline is `<= now`,
    /// as `(deadline, key)` — or `None` when nothing is due yet.
    pub fn pop_due(&mut self, now: SimInstant) -> Option<(SimInstant, K)> {
        let at = self.next_deadline()?;
        if at > now {
            return None;
        }
        let (at, _seq, key) = self.wheel.pop().expect("next_deadline saw an entry");
        self.armed.remove(&key);
        Some((at, key))
    }
}

impl<K> std::fmt::Debug for TimerWheel<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("armed", &self.armed.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    #[test]
    fn yields_in_time_then_seq_order() {
        let mut wheel = EventWheel::new();
        wheel.push(SimInstant::from_nanos(500), 3, 'c');
        wheel.push(SimInstant::from_nanos(500), 1, 'a');
        wheel.push(SimInstant::from_nanos(100), 2, 'b');
        wheel.push(SimInstant::from_nanos(500), 2, 'd');
        let order: Vec<char> = std::iter::from_fn(|| wheel.pop().map(|(_, _, c)| c)).collect();
        assert_eq!(order, vec!['b', 'a', 'd', 'c']);
        assert!(wheel.is_empty());
    }

    #[test]
    fn events_in_the_same_tick_still_order_by_exact_nanos() {
        // 2^16 ns per tick: 10 and 20000 ns share tick 0 but must pop in
        // nanosecond order regardless of insertion order.
        let mut wheel = EventWheel::new();
        wheel.push(SimInstant::from_nanos(20_000), 1, "later");
        wheel.push(SimInstant::from_nanos(10), 2, "sooner");
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("sooner"));
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("later"));
    }

    #[test]
    fn far_future_events_are_representable() {
        let mut wheel = EventWheel::new();
        wheel.push(SimInstant::FAR_FUTURE, 1, "doomsday");
        wheel.push(SimInstant::from_secs_f64(1.0), 2, "soon");
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("soon"));
        assert_eq!(wheel.peek_time(), Some(SimInstant::FAR_FUTURE));
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("doomsday"));
        assert_eq!(wheel.peek_time(), None);
    }

    #[test]
    fn pushing_at_or_before_the_cursor_still_delivers() {
        let mut wheel = EventWheel::new();
        wheel.push(SimInstant::from_secs_f64(5.0), 1, "first");
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("first"));
        // The cursor now sits at t=5 s; a push for an earlier instant (the
        // simulator never does this, but the wheel must not lose it) is
        // delivered immediately rather than silently dropped.
        wheel.push(SimInstant::from_secs_f64(1.0), 2, "stale");
        wheel.push(SimInstant::from_secs_f64(9.0), 3, "later");
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("stale"));
        assert_eq!(wheel.pop().map(|(_, _, i)| i), Some("later"));
    }

    #[test]
    fn matches_a_sorted_model_over_random_workloads() {
        // Differential test against a plain sorted model: interleaved
        // pushes and pops across the full range of delays (same tick,
        // same level, cross-level, multi-day) must agree exactly.
        let mut rng = SimRng::seed_from(0xD1CE);
        for _case in 0..20 {
            let mut wheel = EventWheel::new();
            let mut model: Vec<(SimInstant, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut now = SimInstant::ZERO;
            for _step in 0..400 {
                let pushes = rng.uniform_usize(4);
                for _ in 0..pushes {
                    let exponent = 4 + rng.uniform_usize(40) as u32;
                    let delay = rng.next_u64() % (1u64 << exponent);
                    let at = now + SimDuration::from_nanos(delay);
                    wheel.push(at, seq, seq);
                    model.push((at, seq));
                    seq += 1;
                }
                model.sort();
                let pops = rng.uniform_usize(4);
                for _ in 0..pops {
                    let expected = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0))
                    };
                    assert_eq!(wheel.peek_time(), expected.map(|(at, _)| at));
                    let got = wheel.pop().map(|(at, s, _)| (at, s));
                    assert_eq!(got, expected);
                    if let Some((at, _)) = got {
                        now = at; // the simulator's clock follows the pops
                    }
                }
                assert_eq!(wheel.len(), model.len());
            }
            // Drain what's left: still in exact order.
            while let Some(expected) = if model.is_empty() {
                None
            } else {
                Some(model.remove(0))
            } {
                assert_eq!(wheel.pop().map(|(at, s, _)| (at, s)), Some(expected));
            }
            assert!(wheel.is_empty());
            assert_eq!(wheel.pop().map(|(_, _, i)| i), None);
        }
    }

    #[test]
    fn len_tracks_cascades() {
        let mut wheel = EventWheel::new();
        // A spread of delays guaranteed to occupy several levels.
        for (i, secs) in [0.0001, 0.01, 1.0, 70.0, 5000.0].iter().enumerate() {
            wheel.push(SimInstant::from_secs_f64(*secs), i as u64, i);
        }
        assert_eq!(wheel.len(), 5);
        assert!(!wheel.is_empty());
        let mut seen = 0;
        while wheel.pop().is_some() {
            seen += 1;
            assert_eq!(wheel.len(), 5 - seen);
        }
        assert_eq!(seen, 5);
    }

    #[test]
    fn debug_formatting_is_compact() {
        let wheel: EventWheel<u8> = EventWheel::new();
        let rendered = format!("{wheel:?}");
        assert!(rendered.contains("EventWheel"));
        assert!(rendered.contains("len"));
        let timers: TimerWheel<u8> = TimerWheel::default();
        assert!(format!("{timers:?}").contains("TimerWheel"));
    }

    #[test]
    fn timer_wheel_rearms_and_cancels() {
        let mut wheel: TimerWheel<(u32, u32)> = TimerWheel::new();
        assert!(wheel.is_empty());
        wheel.schedule((0, 1), SimInstant::from_nanos(500));
        wheel.schedule((0, 2), SimInstant::from_nanos(200));
        wheel.schedule((1, 1), SimInstant::from_nanos(300));
        assert_eq!(wheel.len(), 3);
        // Re-arm supersedes the earlier deadline...
        wheel.schedule((0, 2), SimInstant::from_nanos(900));
        assert_eq!(wheel.len(), 3);
        assert_eq!(
            wheel.deadline_of(&(0, 2)),
            Some(SimInstant::from_nanos(900))
        );
        // ...and cancel disarms entirely.
        wheel.cancel(&(1, 1));
        assert_eq!(wheel.deadline_of(&(1, 1)), None);
        assert_eq!(wheel.next_deadline(), Some(SimInstant::from_nanos(500)));

        assert_eq!(wheel.pop_due(SimInstant::from_nanos(100)), None);
        assert_eq!(
            wheel.pop_due(SimInstant::from_nanos(1_000)),
            Some((SimInstant::from_nanos(500), (0, 1)))
        );
        assert_eq!(
            wheel.pop_due(SimInstant::from_nanos(1_000)),
            Some((SimInstant::from_nanos(900), (0, 2)))
        );
        assert_eq!(wheel.pop_due(SimInstant::FAR_FUTURE), None);
        assert!(wheel.is_empty());
    }

    #[test]
    fn timer_wheel_matches_a_sorted_model_over_random_workloads() {
        // Differential test against a sorted map model: random interleaved
        // schedules (often re-arming a live key), cancels and pops must
        // agree with the model exactly.
        let mut rng = SimRng::seed_from(0xFACE);
        for _case in 0..20 {
            let mut wheel: TimerWheel<u32> = TimerWheel::new();
            let mut model: std::collections::BTreeMap<u32, (SimInstant, u64)> =
                std::collections::BTreeMap::new();
            let mut order = 0u64;
            let mut now = SimInstant::ZERO;
            for _step in 0..300 {
                for _ in 0..rng.uniform_usize(4) {
                    let key = rng.next_u64() as u32 % 24;
                    let exponent = 4 + rng.uniform_usize(38) as u32;
                    let at = now + SimDuration::from_nanos(rng.next_u64() % (1u64 << exponent));
                    order += 1;
                    wheel.schedule(key, at);
                    model.insert(key, (at, order));
                }
                if rng.uniform_usize(3) == 0 {
                    let key = rng.next_u64() as u32 % 24;
                    wheel.cancel(&key);
                    model.remove(&key);
                }
                assert_eq!(wheel.len(), model.len());
                let expected_next = model.values().map(|&(at, _)| at).min();
                assert_eq!(wheel.next_deadline(), expected_next);
                // Advance time and drain everything now due, in order.
                now += SimDuration::from_nanos(rng.next_u64() % (1u64 << 24));
                loop {
                    let due = model
                        .iter()
                        .filter(|(_, &(at, _))| at <= now)
                        .min_by_key(|(_, &(at, ord))| (at, ord))
                        .map(|(&key, &(at, _))| (at, key));
                    assert_eq!(wheel.pop_due(now), due);
                    match due {
                        Some((_, key)) => {
                            model.remove(&key);
                        }
                        None => break,
                    }
                }
            }
        }
    }
}
