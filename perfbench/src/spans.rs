//! In-memory span and count recording for the traced run.
//!
//! Every wrapper boundary of [`crate::layers`] records a span: a name (one
//! of [`Span`]), a start and an end, and a parent (the span's statically
//! known caller, [`Span::parent`]). Spans are aggregated per name into
//! per-thread cells — count, total nanoseconds, plus per-name event counts
//! recorded at the same boundaries — so the hot path never takes a lock or
//! shares a cache line with another worker. A bounded raw sample of spans
//! whose protocol time falls just after a crash is kept as well, and the
//! whole trace is written out once, when the run ends.
//!
//! Recording is off unless [`enable`] was called: the untraced run pays one
//! predictable branch per boundary.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Every span the benchmark records, named `<layer>.<operation>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// One `ParWorld::run_until` call (all shards).
    SimRun,
    /// `Actor::on_message` with an ALIVE or ALIVE batch.
    CoreAlive,
    /// `Actor::on_message` with a HELLO.
    CoreHello,
    /// `Actor::on_message` with any other message.
    CoreOther,
    /// `Actor::on_timer`.
    CoreTimer,
    /// `Actor::on_start`.
    CoreStart,
    /// A `join_group` applied through `ParWorld::with_actor`.
    CoreJoin,
    /// A `leave_group` applied through `ParWorld::with_actor`.
    CoreLeave,
    /// `Medium::transmit_fate`.
    NetTransmit,
    /// `MessageEndpoint::send` on a UDP plane endpoint.
    UdpSend,
    /// `MessageEndpoint::flush_sends` on a UDP plane endpoint.
    UdpFlush,
}

/// Number of [`Span`] variants.
pub const SPANS: usize = 11;

impl Span {
    /// All spans, in index order.
    pub const ALL: [Span; SPANS] = [
        Span::SimRun,
        Span::CoreAlive,
        Span::CoreHello,
        Span::CoreOther,
        Span::CoreTimer,
        Span::CoreStart,
        Span::CoreJoin,
        Span::CoreLeave,
        Span::NetTransmit,
        Span::UdpSend,
        Span::UdpFlush,
    ];

    /// The span's name.
    pub fn name(self) -> &'static str {
        match self {
            Span::SimRun => "sim.run",
            Span::CoreAlive => "core.alive",
            Span::CoreHello => "core.hello",
            Span::CoreOther => "core.other",
            Span::CoreTimer => "core.timer",
            Span::CoreStart => "core.start",
            Span::CoreJoin => "core.membership.join",
            Span::CoreLeave => "core.membership.leave",
            Span::NetTransmit => "net.transmit",
            Span::UdpSend => "udp.send",
            Span::UdpFlush => "udp.flush",
        }
    }

    /// The span that calls this one, if any. Callbacks and transmissions
    /// happen inside a simulator run call; the other spans are roots.
    pub fn parent(self) -> Option<Span> {
        match self {
            Span::CoreAlive
            | Span::CoreHello
            | Span::CoreOther
            | Span::CoreTimer
            | Span::CoreStart
            | Span::NetTransmit => Some(Span::SimRun),
            _ => None,
        }
    }
}

/// Counts recorded at the same boundaries as the spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    /// Effects recorded by core callbacks.
    CoreEffects,
    /// Timer callbacks that recorded no effect (wasted wakeups).
    CoreIdleTimers,
    /// Transmissions the medium dropped.
    NetDropped,
}

const COUNTS: usize = 3;

/// Shards whose busy time is tracked separately (more are folded in).
pub const MAX_SHARDS: usize = 8;

/// One thread's aggregate cells. Only the owning thread writes; readers
/// sum all registered cells after the writers are joined or quiescent, so
/// relaxed load/store pairs suffice (no read-modify-write contention).
struct Cells {
    count: [AtomicU64; SPANS],
    ns: [AtomicU64; SPANS],
    counts: [AtomicU64; COUNTS],
    shard_busy_ns: [AtomicU64; MAX_SHARDS],
    /// Raw spans sampled by this thread, and how many fell in each window.
    raw: Mutex<(Vec<RawSpan>, [usize; RAW_WINDOWS])>,
}

impl Cells {
    fn new() -> Self {
        Cells {
            count: std::array::from_fn(|_| AtomicU64::new(0)),
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            shard_busy_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            raw: Mutex::new((Vec::new(), [0; RAW_WINDOWS])),
        }
    }
}

fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// One raw span of the sample kept around crashes.
#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    /// The span's name.
    pub span: Span,
    /// Wall-clock start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Wall-clock end, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Protocol time (virtual or runtime clock) of the span, nanoseconds.
    pub at_ns: u64,
    /// The node the span concerns.
    pub node: u32,
}

/// Raw spans kept per crash window, and crash windows sampled.
const RAW_PER_WINDOW: usize = 256;
const RAW_WINDOWS: usize = 16;

struct Global {
    epoch: Instant,
    threads: Mutex<Vec<Arc<Cells>>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Global> = OnceLock::new();
/// Protocol-time crash windows `[start, end)`, in ns, set once per run.
static WINDOWS: OnceLock<Vec<(u64, u64)>> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Option<Arc<Cells>>> = const { RefCell::new(None) };
}

fn global() -> &'static Global {
    GLOBAL.get_or_init(|| Global {
        epoch: Instant::now(),
        threads: Mutex::new(Vec::new()),
    })
}

fn with_cells<R>(f: impl FnOnce(&Cells) -> R) -> R {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let cells = local.get_or_insert_with(|| {
            let cells = Arc::new(Cells::new());
            global()
                .threads
                .lock()
                .expect("span registry poisoned")
                .push(Arc::clone(&cells));
            cells
        });
        f(cells)
    })
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    global();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the protocol-time windows (ns) whose spans are sampled raw: one
/// window after each crash, at most [`RAW_WINDOWS`] of them. Later calls
/// are ignored.
pub fn set_crash_windows(mut windows: Vec<(u64, u64)>) {
    windows.sort_unstable();
    windows.truncate(RAW_WINDOWS);
    let _ = WINDOWS.set(windows);
}

/// A started span; [`Timer::finish`] records it.
pub struct Timer {
    start: Instant,
}

/// Starts timing a span (call only when [`enabled`]).
#[inline]
pub fn start() -> Timer {
    Timer {
        start: Instant::now(),
    }
}

impl Timer {
    /// Records the span, attributing its time to `shard`'s busy total and,
    /// if `at_ns` falls in a crash window, to the raw sample.
    #[inline]
    pub fn finish(self, span: Span, shard: Option<usize>, at_ns: u64, node: u32) {
        let end = Instant::now();
        let ns = end.duration_since(self.start).as_nanos() as u64;
        with_cells(|cells| {
            let i = span as usize;
            bump(&cells.count[i], 1);
            bump(&cells.ns[i], ns);
            if let Some(shard) = shard {
                bump(&cells.shard_busy_ns[shard.min(MAX_SHARDS - 1)], ns);
            }
        });
        if let Some(w) = WINDOWS.get().and_then(|ws| {
            ws.iter()
                .position(|&(from, to)| (from..to).contains(&at_ns))
        }) {
            let start_ns = self.start.duration_since(global().epoch).as_nanos() as u64;
            with_cells(|cells| {
                let mut raw = cells.raw.lock().expect("raw sample poisoned");
                if raw.1[w] < RAW_PER_WINDOW {
                    raw.1[w] += 1;
                    raw.0.push(RawSpan {
                        span,
                        start_ns,
                        end_ns: start_ns + ns,
                        at_ns,
                        node,
                    });
                }
            });
        }
    }
}

/// Adds `by` to a boundary count (call only when [`enabled`]).
#[inline]
pub fn count(which: Count, by: u64) {
    with_cells(|cells| bump(&cells.counts[which as usize], by));
}

/// Aggregate of one span name across threads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Total duration, nanoseconds.
    pub ns: u64,
}

impl Agg {
    /// Mean nanoseconds per span, or 0 with no spans.
    pub fn ns_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

/// A snapshot of every thread's cells, summed.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    spans: [Agg; SPANS],
    counts: [u64; COUNTS],
    /// Busy nanoseconds (callback + transmit spans) per simulator shard.
    pub shard_busy_ns: [u64; MAX_SHARDS],
}

impl Totals {
    /// The aggregate of `span`.
    pub fn get(&self, span: Span) -> Agg {
        self.spans[span as usize]
    }

    /// The total of a boundary count.
    pub fn count(&self, which: Count) -> u64 {
        self.counts[which as usize]
    }

    /// Sum of the children of `parent`.
    pub fn children_ns(&self, parent: Span) -> u64 {
        Span::ALL
            .iter()
            .filter(|s| s.parent() == Some(parent))
            .map(|&s| self.get(s).ns)
            .sum()
    }

    /// `self - earlier`, per cell.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut out = self.clone();
        for i in 0..SPANS {
            out.spans[i].count -= earlier.spans[i].count;
            out.spans[i].ns -= earlier.spans[i].ns;
        }
        for i in 0..COUNTS {
            out.counts[i] -= earlier.counts[i];
        }
        for i in 0..MAX_SHARDS {
            out.shard_busy_ns[i] -= earlier.shard_busy_ns[i];
        }
        out
    }
}

/// Sums every thread's cells. Call while no recording thread is active.
pub fn totals() -> Totals {
    let mut t = Totals::default();
    let Some(g) = GLOBAL.get() else {
        return t;
    };
    for cells in g.threads.lock().expect("span registry poisoned").iter() {
        for i in 0..SPANS {
            t.spans[i].count += cells.count[i].load(Ordering::Relaxed);
            t.spans[i].ns += cells.ns[i].load(Ordering::Relaxed);
        }
        for i in 0..COUNTS {
            t.counts[i] += cells.counts[i].load(Ordering::Relaxed);
        }
        for i in 0..MAX_SHARDS {
            t.shard_busy_ns[i] += cells.shard_busy_ns[i].load(Ordering::Relaxed);
        }
    }
    t
}

/// Records a span measured elsewhere (the simulator run call, timed by the
/// caller so it can also take the process CPU clock around it).
pub fn record(span: Span, ns: u64) {
    with_cells(|cells| {
        bump(&cells.count[span as usize], 1);
        bump(&cells.ns[span as usize], ns);
    });
}

/// Renders the aggregate table and the raw crash-window sample as text:
/// one `span` line per name (`name parent count total_ns self_ns`), then
/// one `raw` line per sampled span.
pub fn render(totals: &Totals) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# span name parent count total_ns self_ns");
    for &span in &Span::ALL {
        let agg = totals.get(span);
        let self_ns = agg.ns.saturating_sub(totals.children_ns(span));
        let _ = writeln!(
            out,
            "span {} {} {} {} {}",
            span.name(),
            span.parent().map_or("-", Span::name),
            agg.count,
            agg.ns,
            self_ns
        );
    }
    let _ = writeln!(out, "# raw name parent node at_ns start_ns end_ns");
    if let Some(g) = GLOBAL.get() {
        let mut raw: Vec<RawSpan> = Vec::new();
        for cells in g.threads.lock().expect("span registry poisoned").iter() {
            raw.extend(
                cells
                    .raw
                    .lock()
                    .expect("raw sample poisoned")
                    .0
                    .iter()
                    .copied(),
            );
        }
        raw.sort_by_key(|r| (r.at_ns, r.start_ns));
        for r in raw {
            let _ = writeln!(
                out,
                "raw {} {} n{} {} {} {}",
                r.span.name(),
                r.span.parent().map_or("-", Span::name),
                r.node,
                r.at_ns,
                r.start_ns,
                r.end_ns
            );
        }
    }
    out
}
