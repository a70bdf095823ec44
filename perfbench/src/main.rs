//! The leader-election service's benchmark: three workloads, end-to-end
//! metrics from untraced runs, per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-s3-crash --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, every metric's definition
//! and the layer → end-to-end map.

mod layers;
mod qos;
mod report;
mod sim;
mod spans;
mod udp;

use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::Outcome;

/// The metrics the result line carries with `--trace 0`, in order: the
/// end-to-end metrics of `BENCHMARK.json`. A simulated workload must
/// measure every one; `udp-failover` carries the ones it measures.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "run_s",
    "cpu_s",
    "peak_rss_mb",
    "recovery_p50_ms",
    "recovery_tail_ms",
    "leaderless_frac",
    "msgs_per_proc_s",
    "bytes_per_proc_s",
];

/// The metrics the result line carries with `--trace 1`, in order: the
/// per-layer metrics of `BENCHMARK.json`, which both simulated workloads
/// measure. The others are printed above the result line only.
const PER_LAYER: [&str; 24] = [
    "sim.events",
    "sim.dispatch_ns_per_event",
    "sim.shard_busy_ratio",
    "net.transmit_calls",
    "net.transmit_ns_per_call",
    "net.drop_frac",
    "core.alive.calls",
    "core.alive.ns_per_call",
    "core.hello.calls",
    "core.hello.ns_per_call",
    "core.timer.calls",
    "core.timer.ns_per_call",
    "core.timer.idle_frac",
    "core.effects_per_call",
    "wire.encode_ns_per_msg",
    "wire.decode_ns_per_msg",
    "wire.bytes_per_msg",
    "fd.suspicions",
    "fd.mistake_frac",
    "fd.detection_p50_ms",
    "election.accusations",
    "election.changes_per_recovery",
    "obs.trace_dropped",
    "trace.overhead_frac",
];

/// Salt of the held-out seed stream (`--holdout-seed`).
const HOLDOUT_SALT: u64 = 0x5EED_0FC1_A1A1_u64;

const WORKLOADS: [&str; 3] = ["sim-s3-crash", "sim-s2-churn", "udp-failover"];

struct Args {
    workload: String,
    seed: u64,
    holdout: bool,
    seconds: u64,
    trace: bool,
    /// Run as the untraced baseline of a traced run: also print the
    /// `baseline` line the parent compares against.
    baseline: bool,
}

fn usage() -> String {
    format!(
        "usage: sle-perfbench --workload <{}> (--seed N | --holdout-seed N) \
         --seconds N --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut holdout = false;
    let mut seconds = None;
    let mut trace = None;
    let mut baseline = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" | "--holdout-seed" => {
                holdout = arg == "--holdout-seed";
                let v = value(&arg)?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("{arg} {v}: {e}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s = v
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--baseline" => baseline = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        holdout,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        baseline,
    })
}

/// The simulator spec of a virtual-time workload; `None` for `udp-failover`.
fn sim_spec(workload: &str) -> Option<sim::SimSpec> {
    match workload {
        "sim-s3-crash" => Some(sim::SimSpec::s3_crash()),
        "sim-s2-churn" => Some(sim::SimSpec::s2_churn()),
        _ => None,
    }
}

fn run(args: &Args, input_seed: u64, traced: bool) -> Outcome {
    match sim_spec(&args.workload) {
        Some(spec) => sim::run(&spec, input_seed, args.seconds, traced),
        None => udp::run(input_seed, args.seconds, traced),
    }
}

/// A simulated workload's result line, which `BENCHMARK.json` describes,
/// must hold every metric of `names`: records a failure for any missing.
fn require_all(args: &Args, o: &mut Outcome, names: &[&str]) {
    let missing: Vec<&str> = names
        .iter()
        .copied()
        .filter(|name| o.metrics.get(name).is_none())
        .collect();
    if !missing.is_empty() && sim_spec(&args.workload).is_some() {
        o.failures
            .push(format!("not measured: {}", missing.join(", ")));
    }
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// What the untraced baseline run of a traced run reported.
struct Baseline {
    signature: String,
    run_s: f64,
    cpu_s: f64,
    /// Whether the baseline passed its own checks.
    passed: bool,
}

/// Runs the untraced baseline in its own process (its own peak memory,
/// no spans) and reads back its `baseline` line.
fn run_baseline(args: &Args) -> Result<Baseline, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            if args.holdout {
                "--holdout-seed"
            } else {
                "--seed"
            },
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
            "--baseline",
        ])
        .output()
        .map_err(|e| format!("starting the untraced baseline: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("baseline "))
        .ok_or_else(|| {
            format!(
                "the untraced baseline printed no baseline line (exit {:?})",
                output.status.code()
            )
        })?;
    let field = |key: &str| -> Option<&str> {
        line.split(" | ")
            .find_map(|part| part.strip_prefix(&format!("{key}=")))
    };
    let number = |key: &str| -> Result<f64, String> {
        field(key)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("baseline line lacks {key}"))
    };
    Ok(Baseline {
        signature: field("signature").unwrap_or("-").to_string(),
        run_s: number("run_s")?,
        cpu_s: number("cpu_s")?,
        passed: output.status.success(),
    })
}

/// Times `encode_frame` and `decode_frame` over the sampled messages:
/// `(encode ns/msg, decode ns/msg, bytes/msg)`.
fn measure_wire() -> Result<(f64, f64, f64), String> {
    let sample = layers::take_wire_sample();
    if sample.is_empty() {
        return Err("no message was sampled for the wire codec".to_string());
    }
    let frames: Vec<Vec<u8>> = sample
        .iter()
        .map(|(from, msg)| sle_wire::encode_frame(*from, msg))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("a sampled message does not encode: {e}"))?;
    for ((from, msg), frame) in sample.iter().zip(&frames) {
        let decoded: (sle_sim::NodeId, sle_core::ServiceMessage) =
            sle_wire::decode_frame(frame).map_err(|e| format!("a frame does not decode: {e}"))?;
        if decoded.0 != *from || decoded.1 != *msg {
            return Err("a sampled message does not survive the wire codec".to_string());
        }
    }
    let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;
    let time = |f: &dyn Fn()| -> f64 {
        let started = Instant::now();
        let mut rounds = 0u64;
        while started.elapsed().as_millis() < 50 {
            f();
            rounds += 1;
        }
        started.elapsed().as_nanos() as f64 / (rounds * sample.len() as u64) as f64
    };
    let encode = time(&|| {
        for (from, msg) in &sample {
            black_box(sle_wire::encode_frame(*from, black_box(msg)).ok());
        }
    });
    let decode = time(&|| {
        for frame in &frames {
            black_box(sle_wire::decode_frame::<sle_core::ServiceMessage>(black_box(frame)).ok());
        }
    });
    Ok((encode, decode, bytes))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let input_seed = if args.holdout {
        sim::mix(args.seed, HOLDOUT_SALT)
    } else {
        args.seed
    };
    let sim_workers = sim_spec(&args.workload).map_or("-".to_string(), |s| s.workers.to_string());
    println!(
        "# workload={} {}={} seconds={} trace={} host_cores={} sim_workers={} commit={}",
        args.workload,
        if args.holdout { "holdout_seed" } else { "seed" },
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::host_cores(),
        sim_workers,
        commit()
    );

    if !args.trace {
        let mut o = run(&args, input_seed, false);
        require_all(&args, &mut o, &END_TO_END);
        o.metrics.print("end-to-end metrics (untraced):");
        for failure in &o.failures {
            println!("CHECK FAILED: {failure}");
        }
        if args.baseline {
            println!(
                "baseline signature={} | run_s={:?} | cpu_s={:?}",
                o.signature.as_deref().unwrap_or("-"),
                o.metrics.get("run_s").unwrap_or(0.0),
                o.metrics.get("cpu_s").unwrap_or(0.0)
            );
        }
        let correct = o.failures.is_empty();
        if !o.metrics.0.is_empty() {
            println!(
                "{}",
                report::result_json(correct, o.attempted, o.failed, &o.metrics, &END_TO_END)
            );
        }
        return if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let baseline = run_baseline(&args);
    spans::enable();
    let mut o = run(&args, input_seed, true);
    match &baseline {
        Ok(b) => {
            if !b.passed {
                o.failures
                    .push("the untraced baseline failed its checks".to_string());
            }
            let signature = o.signature.as_deref().unwrap_or("-");
            if b.signature != signature {
                o.failures.push(format!(
                    "traced and untraced runs differ:\n  untraced {}\n  traced   {signature}",
                    b.signature
                ));
            }
            // The simulator's work is fixed, so its wall time compares;
            // the wall-clock workload is paced, so its CPU time does.
            let (basis, untraced) = if o.signature.is_some() {
                ("run_s", b.run_s)
            } else {
                ("cpu_s", b.cpu_s)
            };
            let traced = o.metrics.get(basis).unwrap_or(0.0);
            o.metrics.put_note(
                "trace.overhead_frac",
                report::ratio(traced, untraced) - 1.0,
                "ratio",
                format!("traced {basis} {traced:.3} s over untraced {untraced:.3} s"),
            );
        }
        Err(e) => o.failures.push(e.clone()),
    }
    let layer = spans::totals();
    match measure_wire() {
        Ok((encode, decode, bytes)) => {
            o.metrics.put("wire.encode_ns_per_msg", encode, "ns");
            o.metrics.put("wire.decode_ns_per_msg", decode, "ns");
            o.metrics.put("wire.bytes_per_msg", bytes, "B");
        }
        Err(e) => o.failures.push(e),
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{}.txt", args.workload, args.seed);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans::render(&layer))) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => o.failures.push(format!("writing {path}: {e}")),
    }
    require_all(&args, &mut o, &PER_LAYER);
    o.metrics.print("per-layer metrics (traced):");
    for failure in &o.failures {
        println!("CHECK FAILED: {failure}");
    }
    let correct = o.failures.is_empty();
    println!(
        "{}",
        report::result_json(correct, o.attempted, o.failed, &o.metrics, &PER_LAYER)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
