//! The scale macro-benchmark: {processes × groups × service level} sweeps
//! with steady-state message-count assertions.
//!
//! ```text
//! cargo run --release -p sle-bench --bin bench_scale            # full sweep (1M procs / 100k groups)
//! cargo run --release -p sle-bench --bin bench_scale -- --smoke # CI-sized mini-sweep
//! ```
//!
//! Two experiment families run, both in virtual time over the simulator:
//!
//! 1. **Growth law** — one group of n candidates for a range of n, under S2
//!    (Ω_lc, every candidate keeps sending ALIVEs) and S3 (Ω_l, only the
//!    leader does). The measured steady-state ALIVE counts must grow
//!    O(n²) for S2 and O(n) for S3 — the communication-efficiency claim
//!    the paper makes for Ω_l, held as an executable assertion (the
//!    process exits 1 if the fitted log-log slopes disagree).
//! 2. **Scale-out** — many-group S3 deployments up to the frontier cell:
//!    10 000 workstations × 100 000 groups × 10 members each = 1 000 000
//!    group-member processes, which must settle, elect a leader in every
//!    group, and complete in tens of seconds of wall-clock time. This is
//!    the cell that exercises the timer wheel, the dense per-peer /
//!    per-group arenas, the per-node ALIVE tick with batched fan-out and
//!    the shared monitor arena together.
//!
//! A third family runs the same S3 scale-out shapes on **parallel sim
//! workers** ([`ParWorld`] over a 1 ms lookahead medium) at
//! `--sim-workers N`: one `w1` and one `wN` cell per probe shape, asserted to process *identical* event
//! counts and agree in every group (the parallel determinism claim), plus
//! the frontier at `wN`. A ≥1.5× `wN`-over-`w1` speedup sanity check is
//! enforced only when the machine actually has `N` cores and both cells ran
//! longer than the wall floor — on fewer cores the numbers are still
//! recorded, honestly, and the check reports itself skipped.
//!
//! The smoke cells are a strict subset of the full cells (same names, same
//! shapes), so a smoke run can be regression-gated against a checked-in
//! full-sweep baseline with `--gate-against PATH`: for every cell name the
//! two runs share, the simulator event-processing throughput
//! (`events_per_sec`) must not drop more than 15 % below the baseline.
//! Cells whose wall time sits below [`WALL_FLOOR_NS`] publish
//! `events_per_sec: null` and are never gate-compared — a sub-floor wall
//! makes the division garbage.
//!
//! Results are written to `BENCH_scale.json` (schema `sle-bench-scale/4`,
//! documented in `docs/BENCH.md`) so successive PRs leave a perf
//! trajectory; CI uploads the file as the `bench-scale` artifact. Each cell
//! records its `sim_workers`, nanosecond wall clock and the process's peak
//! RSS so the speedup and memory axes of the trajectory are
//! machine-readable too.
//!
//! Options: `--smoke` (CI sizes), `--out PATH` (default `BENCH_scale.json`),
//! `--gate-against PATH` (compare against a baseline JSON, exit 1 on an
//! `events_per_sec` regression deeper than 15 % in any shared cell), and
//! `--sim-workers N` (worker count for the parallel family, default
//! `min(8, cores)`).

use std::fmt::Write as _;
use std::time::Instant;

use sle_core::{GroupId, NodeInstruments, ProcessId};
use sle_core::{JoinConfig, ServiceConfig, ServiceNode};
use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_harness::deploy;
use sle_obs::{Registry, TraceRing};
use sle_sim::prelude::*;

/// Default virtual time a deployment gets to elect before measuring.
const SETTLE: SimDuration = SimDuration::from_secs(12);
/// Default virtual measurement window for steady-state counts.
const WINDOW: SimDuration = SimDuration::from_secs(10);
/// Default failure-detection bound `T_D^U` (the paper's §6.1 value).
const DETECTION: SimDuration = SimDuration::from_secs(1);
/// Maximum tolerated `events_per_sec` drop vs a `--gate-against` baseline.
const GATE_TOLERANCE: f64 = 0.15;
/// Below this wall time a cell's `events_per_sec` is published as null:
/// dividing a few million events by a near-zero wall reading produced
/// garbage throughput numbers for the tiny growth cells, which the CI gate
/// then "compared".
const WALL_FLOOR_NS: u128 = 50_000_000;
/// Link delay of the parallel cells — the conservative lookahead. The
/// growth and scale-out families run one worker over [`PerfectMedium`]
/// (zero delay) for baseline continuity; a parallel epoch needs a positive
/// minimum link delay.
const PAR_LOOKAHEAD: SimDuration = SimDuration::from_millis(1);
/// Minimum `wN`-over-`w1` throughput ratio on the parallel probe when the
/// host has at least `N` cores.
const MIN_PAR_SPEEDUP: f64 = 1.5;

struct Args {
    smoke: bool,
    out: String,
    gate_against: Option<String>,
    /// Ad-hoc single scale cell `nodes,groups,members,window_s,detection_ms`
    /// (replaces the built-in shape lists; for tuning new cells).
    cell: Option<(usize, usize, usize, u64, u64)>,
    /// Worker count for the parallel-simulator family (and for `--cell`).
    sim_workers: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        out: "BENCH_scale.json".to_string(),
        gate_against: None,
        cell: None,
        sim_workers: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                args.out = iter
                    .next()
                    .ok_or_else(|| "--out requires a path".to_string())?;
            }
            "--gate-against" => {
                args.gate_against = Some(
                    iter.next()
                        .ok_or_else(|| "--gate-against requires a path".to_string())?,
                );
            }
            "--cell" => {
                let spec = iter.next().ok_or_else(|| {
                    "--cell requires nodes,groups,members,window_s,detection_ms".to_string()
                })?;
                let parts: Vec<u64> = spec
                    .split(',')
                    .map(|p| p.trim().parse::<u64>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad --cell spec {spec}: {e}"))?;
                let [n, g, m, w, d] = parts[..] else {
                    return Err(format!("--cell wants 5 comma-separated fields, got {spec}"));
                };
                args.cell = Some((n as usize, g as usize, m as usize, w, d));
            }
            "--sim-workers" => {
                let n = iter
                    .next()
                    .ok_or_else(|| "--sim-workers requires a count".to_string())?;
                let n: usize = n
                    .parse()
                    .map_err(|e| format!("bad --sim-workers {n}: {e}"))?;
                if n == 0 {
                    return Err("--sim-workers must be at least 1".to_string());
                }
                args.sim_workers = Some(n);
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_scale [--smoke] [--out PATH] [--gate-against PATH] \
                     [--sim-workers N] [--cell N,G,M,W,D]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// What one measured cell produced.
struct Cell {
    name: String,
    algorithm: &'static str,
    nodes: usize,
    groups: usize,
    processes: usize,
    members_per_group: usize,
    settle: SimDuration,
    window: SimDuration,
    /// The failure-detection bound `T_D^U` each member joined with. The
    /// ALIVE rate scales inversely with it, so big cells relax it to keep
    /// wall-clock bounded; it is recorded per cell to keep runs comparable.
    detection: SimDuration,
    /// Per-group ALIVE payloads sent during the window (batch entries
    /// count individually).
    alive_payloads: u64,
    /// ALIVE datagrams sent during the window (a batch counts once).
    alive_datagrams: u64,
    /// All messages handed to the network during the window.
    messages_total: u64,
    /// All payload bytes handed to the network during the window.
    bytes_total: u64,
    /// Simulator events processed over the whole run.
    events_processed: u64,
    /// Simulator event-processing throughput: `events_processed` over the
    /// cell's wall-clock time (build + settle + window). The quantity the
    /// `--gate-against` regression gate compares. `None` (JSON null) when
    /// the wall time sat below [`WALL_FLOOR_NS`] — too short to divide by.
    events_per_sec: Option<f64>,
    /// Groups whose members all agreed on a live leader at the end.
    groups_agreed: usize,
    /// Monotonic wall clock of the cell, in nanoseconds.
    wall_ns: u128,
    /// `wall_ns` rounded to milliseconds, for human eyes and old tooling.
    wall_ms: u128,
    /// Sim workers that drove the cell.
    sim_workers: usize,
    /// Peak resident set of the whole process when the cell finished, in
    /// MiB (Linux `VmHWM`; `None` where unavailable). Monotonic across the
    /// sweep, so the largest cell owns the high-water mark.
    peak_rss_mb: Option<f64>,
    /// Election-latency percentiles from the live histograms: per-node
    /// time from group creation to the first leader announcement.
    election_p50_ms: f64,
    election_p99_ms: f64,
}

/// Throughput, or `None` below the wall floor (see [`WALL_FLOOR_NS`]).
fn throughput(events: u64, wall_ns: u128) -> Option<f64> {
    if wall_ns < WALL_FLOOR_NS {
        None
    } else {
        Some(events as f64 / (wall_ns as f64 / 1e9))
    }
}

/// Peak resident set size of this process in MiB, read from
/// `/proc/self/status` `VmHWM` (Linux-only; `None` elsewhere).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Sums each node's ALIVE payload/datagram counters.
fn alive_counts<'a>(
    nodes: usize,
    actor_of: impl Fn(NodeId) -> Option<&'a ServiceNode>,
) -> (u64, u64) {
    let mut payloads = 0;
    let mut datagrams = 0;
    for i in 0..nodes {
        if let Some(actor) = actor_of(NodeId(i as u32)) {
            payloads += actor.alive_payloads_sent();
            datagrams += actor.alive_datagrams_sent();
        }
    }
    (payloads, datagrams)
}

/// Counts the groups whose members all agreed on a common live leader.
fn count_groups_agreed<'a>(
    deployment: &Deployment,
    actor_of: impl Fn(NodeId) -> Option<&'a ServiceNode>,
) -> usize {
    let mut groups_agreed = 0;
    for (g, members) in deployment.groups.iter().enumerate() {
        let group = GroupId(g as u32 + 1);
        let mut agreed: Option<ProcessId> = None;
        let mut ok = true;
        for &member in members {
            match actor_of(member).and_then(|a| a.leader_of(group)) {
                Some(view) => match agreed {
                    None => agreed = Some(view),
                    Some(leader) if leader == view => {}
                    _ => {
                        ok = false;
                        break;
                    }
                },
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && agreed.is_some() {
            groups_agreed += 1;
        }
    }
    groups_agreed
}

/// A deployment shape: which workstations are members of which groups.
struct Deployment {
    nodes: usize,
    /// `groups[g]` lists the member workstations of group `g + 1`.
    groups: Vec<Vec<NodeId>>,
}

impl Deployment {
    /// One group over workstations `0..n`.
    fn single_group(n: usize) -> Self {
        Deployment {
            nodes: n,
            groups: vec![(0..n as u32).map(NodeId).collect()],
        }
    }

    /// `groups` groups of `members` workstations each, strided over
    /// `nodes` workstations so membership is spread evenly (with
    /// `groups == nodes`, every workstation is in exactly `members`
    /// groups). See [`deploy::strided_groups`].
    fn strided(nodes: usize, groups: usize, members: usize) -> Self {
        Deployment {
            nodes,
            groups: deploy::strided_groups(nodes, groups, members),
        }
    }

    fn processes(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }
}

fn algorithm_label(algorithm: ElectorKind) -> &'static str {
    match algorithm {
        ElectorKind::OmegaId => "S1/omega-id",
        ElectorKind::OmegaLc => "S2/omega-lc",
        ElectorKind::OmegaL => "S3/omega-l",
    }
}

/// Builds the world for a deployment, runs settle + window, and measures.
///
/// The world runs on `sim_workers` sim workers over `medium`. A given shape
/// and medium replay identically for every `sim_workers` value (same event
/// count, same agreements) — the cheap end of the determinism claim the
/// chaos suite checks exhaustively — but only a medium with a positive
/// delay floor (the epochs' conservative lookahead) lets the workers run
/// in parallel.
#[allow(clippy::too_many_arguments)]
fn run_cell<M: Medium + Clone + Send>(
    name: &str,
    deployment: &Deployment,
    algorithm: ElectorKind,
    seed: u64,
    settle: SimDuration,
    window: SimDuration,
    detection: SimDuration,
    medium: M,
    sim_workers: usize,
) -> Cell {
    let wall = Instant::now();
    let n = deployment.nodes;

    // Per-workstation membership and peer sets (a workstation only gossips
    // with workstations it shares a group with — the deployment shape a
    // sharded installation uses, and what keeps HELLO traffic O(n)).
    let deploy::Membership {
        groups_of,
        peers_of,
    } = deploy::membership(n, &deployment.groups);

    // Instrumented with the same registry the real-time runtime would
    // attach: the election histograms below come from live QoS telemetry,
    // not post-hoc trace analysis. The trace ring is small — this bench
    // reads histograms, not events.
    let registry = Registry::default();
    let ring = TraceRing::new(64);
    let factory: SharedActorFactory<ServiceNode> = Box::new({
        let registry = registry.clone();
        move |node, _inc| {
            let mut config = ServiceConfig::new(node, peers_of[node.index()].clone(), algorithm);
            let join =
                JoinConfig::candidate().with_qos(QosSpec::paper_default_with_detection(detection));
            for &group in &groups_of[node.index()] {
                config = config.with_auto_join(group, join);
            }
            let mut service = ServiceNode::new(config);
            service.set_instruments(NodeInstruments::new(&registry, ring.clone(), node));
            service
        }
    });
    let mut world = ParWorld::new(n, sim_workers, factory, medium, seed);

    let mut observers = vec![CountingObserver::new(); world.workers()];
    world.run_for(settle, &mut observers);
    let (payloads_before, datagrams_before) =
        alive_counts(world.num_nodes(), |node| world.actor(node));
    let messages_before: u64 = observers.iter().map(|o| o.sent).sum();
    let bytes_before: u64 = observers.iter().map(|o| o.bytes_sent).sum();

    world.run_for(window, &mut observers);
    let (payloads_after, datagrams_after) =
        alive_counts(world.num_nodes(), |node| world.actor(node));
    let messages_after: u64 = observers.iter().map(|o| o.sent).sum();
    let bytes_after: u64 = observers.iter().map(|o| o.bytes_sent).sum();

    // Every group must have converged on a common leader among its members.
    let groups_agreed = count_groups_agreed(deployment, |node| world.actor(node));

    let elections = registry.merged_histogram("node.", ".elect.election_ns");
    let wall_ns = wall.elapsed().as_nanos();
    let events_processed = world.events_processed();
    Cell {
        name: name.to_string(),
        algorithm: algorithm_label(algorithm),
        nodes: n,
        groups: deployment.groups.len(),
        processes: deployment.processes(),
        members_per_group: deployment.groups.first().map(Vec::len).unwrap_or(0),
        settle,
        window,
        detection,
        alive_payloads: payloads_after - payloads_before,
        alive_datagrams: datagrams_after - datagrams_before,
        messages_total: messages_after - messages_before,
        bytes_total: bytes_after - bytes_before,
        events_processed,
        events_per_sec: throughput(events_processed, wall_ns),
        groups_agreed,
        wall_ns,
        wall_ms: wall_ns / 1_000_000,
        sim_workers: world.workers(),
        peak_rss_mb: peak_rss_mb(),
        election_p50_ms: elections.percentile_ms(0.50),
        election_p99_ms: elections.percentile_ms(0.99),
    }
}

/// Fitted log-log slope of steady-state ALIVE count against group size
/// between the first and last point of a growth series.
fn growth_slope(cells: &[&Cell]) -> f64 {
    let first = cells.first().expect("non-empty series");
    let last = cells.last().expect("non-empty series");
    ((last.alive_payloads as f64).ln() - (first.alive_payloads as f64).ln())
        / ((last.members_per_group as f64).ln() - (first.members_per_group as f64).ln())
}

fn json_escape_free(name: &str) -> &str {
    debug_assert!(!name.contains('"') && !name.contains('\\'));
    name
}

/// `events_per_sec` as a JSON value: a number, or null below the wall floor.
fn eps_json(eps: Option<f64>) -> String {
    match eps {
        Some(v) => format!("{v:.0}"),
        None => "null".to_string(),
    }
}

/// `peak_rss_mb` as a JSON value: a number, or null off-Linux.
fn rss_json(rss: Option<f64>) -> String {
    match rss {
        Some(v) => format!("{v:.1}"),
        None => "null".to_string(),
    }
}

fn render_json(cells: &[Cell], s2_slope: f64, s3_slope: f64, smoke: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"sle-bench-scale/4\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"settle_secs\": {}, \"window_secs\": {},",
        SETTLE.as_secs_f64(),
        WINDOW.as_secs_f64()
    );
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"algorithm\": \"{}\", \"nodes\": {}, \"groups\": {}, \
             \"processes\": {}, \"members_per_group\": {}, \"settle_secs\": {}, \
             \"window_secs\": {}, \"detection_ms\": {}, \"sim_workers\": {}, \
             \"alive_payloads\": {}, \"alive_datagrams\": {}, \"messages_total\": {}, \
             \"bytes_total\": {}, \"events_processed\": {}, \"events_per_sec\": {}, \
             \"groups_agreed\": {}, \"wall_ms\": {}, \"wall_ns\": {}, \"peak_rss_mb\": {}, \
             \"election_p50_ms\": {:.1}, \"election_p99_ms\": {:.1}}}",
            json_escape_free(&cell.name),
            cell.algorithm,
            cell.nodes,
            cell.groups,
            cell.processes,
            cell.members_per_group,
            cell.settle.as_secs_f64(),
            cell.window.as_secs_f64(),
            cell.detection.as_millis_f64() as u64,
            cell.sim_workers,
            cell.alive_payloads,
            cell.alive_datagrams,
            cell.messages_total,
            cell.bytes_total,
            cell.events_processed,
            eps_json(cell.events_per_sec),
            cell.groups_agreed,
            cell.wall_ms,
            cell.wall_ns,
            rss_json(cell.peak_rss_mb),
            cell.election_p50_ms,
            cell.election_p99_ms,
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"assertions\": {{\"s2_growth_slope\": {s2_slope:.3}, \"s3_growth_slope\": {s3_slope:.3}, \
         \"s2_expected\": \"O(n^2)\", \"s3_expected\": \"O(n)\"}}"
    );
    out.push_str("}\n");
    out
}

/// Extracts `(name, events_per_sec)` pairs from a baseline JSON produced by
/// an earlier run of this binary. Hand-rolled scan (the workspace is
/// std-only): relies on each cell object carrying a `"name"` key before its
/// `"events_per_sec"` key, which `render_json` guarantees. Cells without an
/// `events_per_sec` key (schema < 3 baselines) are skipped.
fn parse_baseline_cells(json: &str) -> Vec<(String, f64)> {
    let mut cells = Vec::new();
    let mut rest = json;
    while let Some(start) = rest.find("\"name\": \"") {
        let after = &rest[start + "\"name\": \"".len()..];
        let Some(name_end) = after.find('"') else {
            break;
        };
        let name = &after[..name_end];
        let body = &after[name_end..];
        // The cell object ends at the next '}'; events_per_sec must appear
        // before it (and before the next cell's name).
        let object_end = body.find('}').unwrap_or(body.len());
        if let Some(pos) = body[..object_end].find("\"events_per_sec\": ") {
            let value = &body[pos + "\"events_per_sec\": ".len()..object_end];
            let end = value
                .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-' && c != 'e')
                .unwrap_or(value.len());
            if let Ok(eps) = value[..end].parse::<f64>() {
                cells.push((name.to_string(), eps));
            }
        }
        rest = &body[object_end..];
    }
    cells
}

/// Compares this run's cells against a baseline file: every cell name both
/// runs share must be within [`GATE_TOLERANCE`] of the baseline
/// `events_per_sec`. Cells that ran below the wall floor (no throughput
/// reading) are never compared — the baseline parser likewise skips null
/// entries, so neither side of the gate ever holds garbage. Returns `false`
/// (and prints FAIL lines) on regression.
fn gate_against(cells: &[Cell], path: &str) -> bool {
    let baseline = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read gate baseline {path}: {e}");
            std::process::exit(2);
        }
    };
    let baseline_cells = parse_baseline_cells(&baseline);
    if baseline_cells.is_empty() {
        println!(
            "gate: baseline {path} carries no events_per_sec cells (pre-/3 schema?) — skipping"
        );
        return true;
    }
    let mut ok = true;
    let mut compared = 0;
    for cell in cells {
        let Some(eps) = cell.events_per_sec else {
            println!(
                "gate: {} ran below the {} ms wall floor — not compared",
                cell.name,
                WALL_FLOOR_NS / 1_000_000
            );
            continue;
        };
        let Some((_, base)) = baseline_cells.iter().find(|(n, _)| n == &cell.name) else {
            continue;
        };
        compared += 1;
        let floor = base * (1.0 - GATE_TOLERANCE);
        let ratio = eps / base;
        if eps < floor {
            eprintln!(
                "GATE FAIL: {} events_per_sec {:.0} < {:.0} ({}% of baseline {:.0})",
                cell.name,
                eps,
                floor,
                (ratio * 100.0) as i64,
                base
            );
            ok = false;
        } else {
            println!(
                "gate: {} events_per_sec {:.0} vs baseline {:.0} ({}%) — ok",
                cell.name,
                eps,
                base,
                (ratio * 100.0) as i64
            );
        }
    }
    println!("gate: compared {compared} shared cell(s) against {path}");
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    };
    let total = Instant::now();
    let mut cells: Vec<Cell> = Vec::new();

    // Ad-hoc tuning mode: run one scale cell and report, no JSON, no gates.
    // An explicit `--sim-workers N` (any N, 1 included) runs the cell on
    // N workers over the fixed-delay lookahead medium, so
    // `--cell ... --sim-workers 8` vs `--sim-workers 1` measures the
    // speedup curve of one shape like-for-like; without the flag the cell
    // runs the scale-out sweep configuration (one worker, PerfectMedium).
    if let Some((nodes, groups, members, window_secs, detection_ms)) = args.cell {
        let deployment = Deployment::strided(nodes, groups, members);
        let window = SimDuration::from_secs(window_secs);
        let detection = SimDuration::from_millis(detection_ms);
        let cell = if let Some(workers) = args.sim_workers {
            run_cell(
                &format!("par-scale-s3-{nodes}x{groups}x{members}-w{workers}"),
                &deployment,
                ElectorKind::OmegaL,
                0x5CA1E,
                SETTLE,
                window,
                detection,
                FixedDelayMedium::new(PAR_LOOKAHEAD),
                workers,
            )
        } else {
            run_cell(
                &format!("scale-s3-{nodes}x{groups}x{members}"),
                &deployment,
                ElectorKind::OmegaL,
                0x5CA1E,
                SETTLE,
                window,
                detection,
                PerfectMedium,
                1,
            )
        };
        println!(
            "{}: procs {} agreed {}/{} events {} ({}/s) wall {} ms rss {} MiB p50 {:.1} ms p99 {:.1} ms",
            cell.name,
            cell.processes,
            cell.groups_agreed,
            cell.groups,
            cell.events_processed,
            eps_json(cell.events_per_sec),
            cell.wall_ms,
            rss_json(cell.peak_rss_mb),
            cell.election_p50_ms,
            cell.election_p99_ms
        );
        return;
    }

    // Family 1: the growth law, S2 vs S3 over one group of n candidates.
    // The smoke sizes are a prefix of the full sizes so smoke cells share
    // names (and shapes) with the checked-in full baseline.
    let sizes: &[usize] = if args.smoke {
        &[4, 8, 16]
    } else {
        &[4, 8, 16, 24]
    };
    println!(
        "growth law: 1 group x n candidates, window {} s",
        WINDOW.as_secs_f64()
    );
    println!(
        "{:<12} {:>5} {:>16} {:>16} {:>10} {:>8}",
        "service", "n", "alive-payloads", "alive-datagrams", "msgs", "wall-ms"
    );
    for &algorithm in &[ElectorKind::OmegaLc, ElectorKind::OmegaL] {
        for &n in sizes {
            let cell = run_cell(
                &format!("growth-{}-n{}", algorithm_label(algorithm), n),
                &Deployment::single_group(n),
                algorithm,
                0xBE1C_u64 + n as u64,
                SETTLE,
                WINDOW,
                DETECTION,
                PerfectMedium,
                1,
            );
            println!(
                "{:<12} {:>5} {:>16} {:>16} {:>10} {:>8}",
                cell.algorithm,
                n,
                cell.alive_payloads,
                cell.alive_datagrams,
                cell.messages_total,
                cell.wall_ms
            );
            assert_eq!(cell.groups_agreed, 1, "{}: no agreement", cell.name);
            cells.push(cell);
        }
    }

    let series = |label: &str| -> Vec<&Cell> {
        cells
            .iter()
            .filter(|c| c.algorithm == label && c.name.starts_with("growth-"))
            .collect()
    };
    let s2_slope = growth_slope(&series("S2/omega-lc"));
    let s3_slope = growth_slope(&series("S3/omega-l"));
    println!(
        "\nfitted growth slopes: S2 {s2_slope:.2} (want ≥ 1.7), S3 {s3_slope:.2} (want ≤ 1.4)"
    );

    // Family 2: the S3 scale-out cells, up to the million-process frontier
    // (10k workstations × 100k groups × 10 members each). Tuple:
    // (nodes, groups, members, window secs, detection T_D^U ms). The
    // frontier cell relaxes the detection bound — the ALIVE/FD event rate
    // scales inversely with T_D, and at 1M group-member processes the
    // paper-default 1 s bound would put the cell hundreds of millions of
    // events past a tens-of-seconds wall-clock envelope — and measures
    // over a shorter window for the same reason; both overrides are
    // recorded in the cell's JSON. The smoke shape list is a prefix of
    // the full list.
    let scale_shapes: &[(usize, usize, usize, u64, u64)] = if args.smoke {
        &[(200, 200, 5, 10, 1000)]
    } else {
        &[
            (200, 200, 5, 10, 1000),
            (400, 400, 5, 10, 1000),
            (1000, 1000, 10, 10, 1000),
            (10000, 100000, 10, 5, 8000),
        ]
    };
    println!("\nscale-out: S3 over strided multi-group deployments");
    println!(
        "{:<28} {:>6} {:>6} {:>8} {:>14} {:>14} {:>13} {:>9} {:>8}",
        "cell",
        "nodes",
        "groups",
        "procs",
        "alive-payloads",
        "datagrams",
        "events/s",
        "agreed",
        "wall-ms"
    );
    for &(nodes, groups, members, window_secs, detection_ms) in scale_shapes {
        let deployment = Deployment::strided(nodes, groups, members);
        let processes = deployment.processes();
        let cell = run_cell(
            &format!("scale-s3-{nodes}x{groups}x{members}"),
            &deployment,
            ElectorKind::OmegaL,
            0x5CA1E,
            SETTLE,
            SimDuration::from_secs(window_secs),
            SimDuration::from_millis(detection_ms),
            PerfectMedium,
            1,
        );
        println!(
            "{:<28} {:>6} {:>6} {:>8} {:>14} {:>14} {:>13} {:>9} {:>8}",
            cell.name,
            cell.nodes,
            cell.groups,
            processes,
            cell.alive_payloads,
            cell.alive_datagrams,
            eps_json(cell.events_per_sec),
            format!("{}/{}", cell.groups_agreed, cell.groups),
            cell.wall_ms
        );
        assert_eq!(
            cell.groups_agreed, cell.groups,
            "{}: not every group elected",
            cell.name
        );
        cells.push(cell);
    }

    // Family 3: the same S3 shapes on the sharded parallel simulator. Each
    // probe shape runs at w1 and wN — identical event counts and agreement
    // are asserted (determinism), and the w1→wN throughput ratio is the
    // speedup the JSON trajectory tracks. The full sweep adds the frontier
    // at wN. N defaults to min(8, host cores); the speedup sanity check
    // only bites when the host can actually run N workers in parallel.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let par_workers = args.sim_workers.unwrap_or_else(|| cores.min(8)).max(1);
    // (nodes, groups, members, window secs, detection ms) probe shapes; the
    // smoke list is a prefix-by-name of the full list's smoke-sized probe.
    let par_probe: (usize, usize, usize, u64, u64) = if args.smoke {
        (200, 200, 5, 10, 1000)
    } else {
        (1000, 10000, 10, 5, 2000)
    };
    println!(
        "\nparallel sim: S3 scale-out on ParWorld, {par_workers} sim worker(s), {cores} core(s)"
    );
    println!(
        "{:<34} {:>8} {:>8} {:>13} {:>9} {:>8}",
        "cell", "workers", "procs", "events/s", "agreed", "wall-ms"
    );
    let mut par_pair: Vec<usize> = vec![1];
    if par_workers > 1 {
        par_pair.push(par_workers);
    }
    let (p_nodes, p_groups, p_members, p_window, p_detection) = par_probe;
    let mut probe_cells: Vec<Cell> = Vec::new();
    for &workers in &par_pair {
        let deployment = Deployment::strided(p_nodes, p_groups, p_members);
        let cell = run_cell(
            &format!("par-scale-s3-{p_nodes}x{p_groups}x{p_members}-w{workers}"),
            &deployment,
            ElectorKind::OmegaL,
            0x5CA1E,
            SETTLE,
            SimDuration::from_secs(p_window),
            SimDuration::from_millis(p_detection),
            FixedDelayMedium::new(PAR_LOOKAHEAD),
            workers,
        );
        println!(
            "{:<34} {:>8} {:>8} {:>13} {:>9} {:>8}",
            cell.name,
            cell.sim_workers,
            cell.processes,
            eps_json(cell.events_per_sec),
            format!("{}/{}", cell.groups_agreed, cell.groups),
            cell.wall_ms
        );
        assert_eq!(
            cell.groups_agreed, cell.groups,
            "{}: not every group elected",
            cell.name
        );
        probe_cells.push(cell);
    }
    let mut failed = false;
    if let [w1, wn] = &probe_cells[..] {
        // The determinism claim, in cheap form: sharding must not change
        // what the simulation computes, only how fast.
        assert_eq!(
            w1.events_processed, wn.events_processed,
            "parallel probe diverged from the single-worker run"
        );
        assert_eq!(w1.groups_agreed, wn.groups_agreed);
        match (w1.events_per_sec, wn.events_per_sec) {
            (Some(a), Some(b)) if cores >= wn.sim_workers => {
                let speedup = b / a;
                println!(
                    "parallel speedup: {speedup:.2}x at w{} (floor {MIN_PAR_SPEEDUP}x)",
                    wn.sim_workers
                );
                if speedup < MIN_PAR_SPEEDUP {
                    eprintln!(
                        "FAIL: parallel probe speedup {speedup:.2}x < {MIN_PAR_SPEEDUP}x at w{} \
                         on {cores} cores",
                        wn.sim_workers
                    );
                    failed = true;
                }
            }
            _ => println!(
                "parallel speedup check skipped ({cores} core(s) < {} workers, or sub-floor wall)",
                wn.sim_workers
            ),
        }
    }
    cells.append(&mut probe_cells);
    if !args.smoke && par_workers > 1 {
        // The frontier on the parallel driver: the headline cell of the
        // speedup trajectory.
        let (nodes, groups, members, window_secs, detection_ms) =
            (10000, 100000, 10, 5u64, 8000u64);
        let deployment = Deployment::strided(nodes, groups, members);
        let cell = run_cell(
            &format!("par-scale-s3-{nodes}x{groups}x{members}-w{par_workers}"),
            &deployment,
            ElectorKind::OmegaL,
            0x5CA1E,
            SETTLE,
            SimDuration::from_secs(window_secs),
            SimDuration::from_millis(detection_ms),
            FixedDelayMedium::new(PAR_LOOKAHEAD),
            par_workers,
        );
        println!(
            "{:<34} {:>8} {:>8} {:>13} {:>9} {:>8}",
            cell.name,
            cell.sim_workers,
            cell.processes,
            eps_json(cell.events_per_sec),
            format!("{}/{}", cell.groups_agreed, cell.groups),
            cell.wall_ms
        );
        assert_eq!(
            cell.groups_agreed, cell.groups,
            "{}: not every group elected",
            cell.name
        );
        cells.push(cell);
    }

    let json = render_json(&cells, s2_slope, s3_slope, args.smoke);
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("error: cannot write {}: {e}", args.out);
        std::process::exit(2);
    });
    println!(
        "\nwrote {} ({} cells) in {:.1}s wall-clock",
        args.out,
        cells.len(),
        total.elapsed().as_secs_f64()
    );

    // The headline assertion: S3's steady-state ALIVE count grows O(n),
    // S2's O(n²). Generous tolerances keep the check insensitive to the
    // ±1 of "n" vs "n-1" and to settle jitter, while still cleanly
    // separating linear from quadratic growth.
    if s2_slope < 1.7 {
        eprintln!("FAIL: S2 growth slope {s2_slope:.2} < 1.7 — expected O(n^2) ALIVE traffic");
        failed = true;
    }
    if s3_slope > 1.4 {
        eprintln!("FAIL: S3 growth slope {s3_slope:.2} > 1.4 — expected O(n) ALIVE traffic");
        failed = true;
    }
    if let Some(path) = &args.gate_against {
        if !gate_against(&cells, path) {
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("OK: S3 ALIVE traffic grows O(n), S2 grows O(n^2)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the pinned-percentile bug: every cell used to report
    /// election_p50_ms 5.9 and election_p99_ms 1518.5 regardless of its
    /// detection parameter, because log-midpoint interpolation collapsed any
    /// symmetric bucket population to `bucket_lower * sqrt(2)`. Cells whose
    /// detection timeouts differ by 8x must report different election
    /// percentiles.
    #[test]
    fn cells_with_different_detection_report_different_percentiles() {
        let deployment = Deployment::single_group(8);
        let fast = run_cell(
            "pctl-fast",
            &deployment,
            ElectorKind::OmegaL,
            7,
            SimDuration::from_secs(30),
            SimDuration::from_secs(10),
            SimDuration::from_millis(1_000),
            PerfectMedium,
            1,
        );
        let slow = run_cell(
            "pctl-slow",
            &deployment,
            ElectorKind::OmegaL,
            7,
            SimDuration::from_secs(30),
            SimDuration::from_secs(10),
            SimDuration::from_millis(8_000),
            PerfectMedium,
            1,
        );
        // The median startup election is a few ms for either detection
        // bound; the *tail* elections are the ones that ride out a full
        // grace period, so p99 must track the detection parameter.
        assert!(
            (fast.election_p99_ms - slow.election_p99_ms).abs() > 1e-6,
            "p99 pinned: fast {} == slow {}",
            fast.election_p99_ms,
            slow.election_p99_ms
        );
        // And within one cell the histogram is not collapsed to a constant.
        assert!(
            fast.election_p99_ms > fast.election_p50_ms,
            "fast cell degenerate: p50 {} p99 {}",
            fast.election_p50_ms,
            fast.election_p99_ms
        );
    }

    /// One shape over the lookahead medium measures the same
    /// partition-independent aggregates at one worker and at four.
    #[test]
    fn parallel_cell_matches_itself_across_worker_counts() {
        let deployment = Deployment::strided(24, 6, 4);
        let w1 = run_cell(
            "par-w1",
            &deployment,
            ElectorKind::OmegaL,
            11,
            SimDuration::from_secs(20),
            SimDuration::from_secs(10),
            SimDuration::from_millis(1_000),
            FixedDelayMedium::new(PAR_LOOKAHEAD),
            1,
        );
        let w4 = run_cell(
            "par-w4",
            &deployment,
            ElectorKind::OmegaL,
            11,
            SimDuration::from_secs(20),
            SimDuration::from_secs(10),
            SimDuration::from_millis(1_000),
            FixedDelayMedium::new(PAR_LOOKAHEAD),
            4,
        );
        assert_eq!(w1.events_processed, w4.events_processed);
        assert_eq!(w1.groups_agreed, w4.groups_agreed);
        assert_eq!(w1.groups_agreed, w1.groups, "every group elected");
        assert_eq!(w1.alive_payloads, w4.alive_payloads);
        assert_eq!(w1.messages_total, w4.messages_total);
        assert_eq!(w1.election_p50_ms, w4.election_p50_ms);
        assert_eq!(w1.election_p99_ms, w4.election_p99_ms);
    }
}
