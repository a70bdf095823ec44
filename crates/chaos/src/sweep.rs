//! The multi-seed sweep runner: N seeds × M fault-plan families × the three
//! services, each failure shrunk to a minimal reproducer and rendered as a
//! ready-to-paste `#[test]`.

use sle_election::ElectorKind;
use sle_fd::QosSpec;
use sle_net::link::LinkSpec;
use sle_obs::{MetricValue, Snapshot, TraceRecord};
use sle_sim::time::SimDuration;

use crate::engine::{run_plan, ChaosConfig};
use crate::invariants::Violation;
use crate::plan::{link_to_code, FaultPlan, PlanKind};
use crate::shrink::shrink_plan;

/// What to sweep over.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Services under test.
    pub algorithms: Vec<ElectorKind>,
    /// Fault-plan families.
    pub plans: Vec<PlanKind>,
    /// Number of seeds per (algorithm, family) cell.
    pub seeds: u64,
    /// First seed; cell `k` uses `seed_base + k`.
    pub seed_base: u64,
    /// Workstations per run.
    pub nodes: usize,
    /// Fault window per run.
    pub duration: SimDuration,
    /// Baseline link behaviour.
    pub link: LinkSpec,
    /// Failure-detection QoS of every join.
    pub qos: QosSpec,
    /// Whether to shrink failing plans (disable for a faster triage pass).
    pub shrink_failures: bool,
}

impl SweepConfig {
    /// The acceptance sweep: 50 seeds × all six families × S1/S2/S3.
    pub fn new() -> Self {
        SweepConfig {
            algorithms: ElectorKind::all().to_vec(),
            plans: PlanKind::all().to_vec(),
            seeds: 50,
            seed_base: 1000,
            nodes: 5,
            duration: SimDuration::from_secs(45),
            link: LinkSpec::from_paper_tuple(10.0, 0.01),
            qos: QosSpec::paper_default(),
            shrink_failures: true,
        }
    }

    /// The CI smoke sweep: a pinned handful of seeds, sized to finish well
    /// under 30 s of wall-clock time.
    pub fn smoke() -> Self {
        SweepConfig {
            seeds: 4,
            duration: SimDuration::from_secs(35),
            ..SweepConfig::new()
        }
    }

    /// Overrides the number of seeds per cell.
    pub fn with_seeds(mut self, seeds: u64) -> Self {
        self.seeds = seeds;
        self
    }

    /// Overrides the number of workstations.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Overrides the QoS (e.g. to demonstrate that a weakened detector is
    /// caught).
    pub fn with_qos(mut self, qos: QosSpec) -> Self {
        self.qos = qos;
        self
    }

    /// Overrides the baseline link.
    pub fn with_link(mut self, link: LinkSpec) -> Self {
        self.link = link;
        self
    }

    fn chaos_config(&self, algorithm: ElectorKind, nodes: usize, seed: u64) -> ChaosConfig {
        ChaosConfig::new(algorithm, nodes)
            .with_seed(seed)
            .with_link(self.link)
            .with_qos(self.qos)
            .with_duration(self.duration)
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig::new()
    }
}

/// One failing sweep cell, shrunk and rendered.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// The service that failed.
    pub algorithm: ElectorKind,
    /// The fault-plan family.
    pub plan_name: String,
    /// The failing seed.
    pub seed: u64,
    /// The violations of the original run.
    pub violations: Vec<Violation>,
    /// The 1-minimal plan that still fails.
    pub shrunk: FaultPlan,
    /// A ready-to-paste `#[test]` reproducing the failure.
    pub reproducer: String,
    /// End-of-run metrics registry snapshot of the failing run.
    pub metrics: Snapshot,
    /// The last events of the failing run's protocol trace.
    pub proto_tail: Vec<TraceRecord>,
}

/// How many trailing protocol-trace events a failure report keeps.
const PROTO_TAIL: usize = 12;

/// Aggregate results of one cell (algorithm × family).
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// The service.
    pub algorithm: ElectorKind,
    /// The fault-plan family name.
    pub plan_name: String,
    /// Seeds run.
    pub runs: u64,
    /// Seeds that violated an invariant.
    pub failed: u64,
}

/// Everything a sweep produced.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Total runs executed.
    pub runs: u64,
    /// Per-cell aggregates, in execution order.
    pub cells: Vec<CellSummary>,
    /// Every failure, shrunk and rendered.
    pub failures: Vec<SweepFailure>,
}

impl SweepSummary {
    /// True if every run upheld every invariant.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the summary as a text table (printed by the `chaos_sweep`
    /// binary and published as the CI artifact).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos sweep: {} runs, {} failing\n\n",
            self.runs,
            self.failures.len()
        ));
        out.push_str(&format!(
            "{:<10} {:<16} {:>6} {:>8}\n",
            "service", "plan", "runs", "failed"
        ));
        for cell in &self.cells {
            out.push_str(&format!(
                "{:<10} {:<16} {:>6} {:>8}\n",
                algorithm_label(cell.algorithm),
                cell.plan_name,
                cell.runs,
                cell.failed
            ));
        }
        for failure in &self.failures {
            out.push_str(&format!(
                "\n--- FAILURE: {} / {} / seed {} ---\n",
                algorithm_label(failure.algorithm),
                failure.plan_name,
                failure.seed
            ));
            for violation in &failure.violations {
                out.push_str(&format!("  {violation}\n"));
            }
            out.push_str(&render_failure_metrics(&failure.metrics));
            if !failure.proto_tail.is_empty() {
                out.push_str(&format!(
                    "  last {} protocol events:\n",
                    failure.proto_tail.len()
                ));
                for record in &failure.proto_tail {
                    out.push_str(&format!("    {record}\n"));
                }
            }
            out.push_str(&format!(
                "  shrunk to {} action(s); regression test:\n\n{}\n",
                failure.shrunk.len(),
                failure.reproducer
            ));
        }
        out
    }
}

/// A compact digest of the failing run's registry snapshot: the aggregate
/// QoS histograms, the mistake count, and the network counters.
fn render_failure_metrics(metrics: &Snapshot) -> String {
    let mut out = String::new();
    let detection = metrics.merged_histogram("node.", ".fd.detection_ns");
    let election = metrics.merged_histogram("node.", ".elect.election_ns");
    let mistakes = metrics.sum_counters("node.", ".fd.mistakes");
    out.push_str(&format!(
        "  metrics: {} detections (p99 {:.1} ms), {} elections (p99 {:.1} ms), {} mistakes\n",
        detection.count,
        detection.percentile_ms(0.99),
        election.count,
        election.percentile_ms(0.99),
        mistakes,
    ));
    let gauge = |name: &str| match metrics.get(name) {
        Some(MetricValue::Gauge(v)) => *v,
        _ => 0,
    };
    out.push_str(&format!(
        "  network: {} offered, {} lost, {} blocked, {} partitioned\n",
        gauge("sim.net.offered"),
        gauge("sim.net.lost"),
        gauge("sim.net.blocked"),
        gauge("sim.net.partitioned"),
    ));
    out
}

fn algorithm_label(algorithm: ElectorKind) -> &'static str {
    match algorithm {
        ElectorKind::OmegaId => "S1/omega-id",
        ElectorKind::OmegaLc => "S2/omega-lc",
        ElectorKind::OmegaL => "S3/omega-l",
    }
}

fn algorithm_variant(algorithm: ElectorKind) -> &'static str {
    match algorithm {
        ElectorKind::OmegaId => "OmegaId",
        ElectorKind::OmegaLc => "OmegaLc",
        ElectorKind::OmegaL => "OmegaL",
    }
}

fn algorithm_slug(algorithm: ElectorKind) -> &'static str {
    match algorithm {
        ElectorKind::OmegaId => "omega_id",
        ElectorKind::OmegaLc => "omega_lc",
        ElectorKind::OmegaL => "omega_l",
    }
}

/// Runs the whole sweep, shrinking and rendering every failure.
pub fn run_sweep(config: &SweepConfig) -> SweepSummary {
    let mut runs = 0u64;
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for &algorithm in &config.algorithms {
        for &kind in &config.plans {
            let mut failed = 0u64;
            // Scale-hungry families (LargeChurn needs room for 100+
            // processes) raise the deployment to their floor; the others
            // keep the sweep's configured size.
            let nodes = config.nodes.max(kind.min_nodes());
            for offset in 0..config.seeds {
                let seed = config.seed_base + offset;
                let chaos = config.chaos_config(algorithm, nodes, seed);
                let plan = kind.generate(nodes, config.duration, config.link, seed);
                let report = run_plan(&chaos, &plan, 1);
                runs += 1;
                if report.ok() {
                    continue;
                }
                failed += 1;
                let shrunk = if config.shrink_failures {
                    shrink_plan(&chaos, &plan).plan
                } else {
                    plan.clone()
                };
                let reproducer = render_regression_test(&chaos, &shrunk, kind.name(), seed);
                let tail_from = report.proto_trace.len().saturating_sub(PROTO_TAIL);
                failures.push(SweepFailure {
                    algorithm,
                    plan_name: kind.name().to_string(),
                    seed,
                    violations: report.violations,
                    shrunk,
                    reproducer,
                    metrics: report.metrics,
                    proto_tail: report.proto_trace[tail_from..].to_vec(),
                });
            }
            cells.push(CellSummary {
                algorithm,
                plan_name: kind.name().to_string(),
                runs: config.seeds,
                failed,
            });
        }
    }
    SweepSummary {
        runs,
        cells,
        failures,
    }
}

/// Renders a failing `(config, plan)` pair as a self-contained `#[test]`
/// function, ready to paste into `crates/chaos/tests/`.
pub fn render_regression_test(
    config: &ChaosConfig,
    plan: &FaultPlan,
    family: &str,
    seed: u64,
) -> String {
    let mut actions = String::new();
    for timed in plan.actions() {
        actions.push_str(&format!(
            "\n        .at_nanos({}, {})",
            timed.at.as_nanos(),
            timed.action.to_code()
        ));
    }
    // The algorithm is part of the name: the same (family, seed) failing on
    // two services must render two distinct `#[test]` functions.
    let slug = format!(
        "{}_{}",
        algorithm_slug(config.algorithm),
        family.replace('-', "_")
    );
    format!(
        "#[test]\n\
         fn chaos_regression_{slug}_seed_{seed}() {{\n\
         \x20   let plan = sle_chaos::FaultPlan::new(\"{name}\"){actions};\n\
         \x20   let config = sle_chaos::ChaosConfig::new(\n\
         \x20       sle_election::ElectorKind::{algorithm},\n\
         \x20       {nodes},\n\
         \x20   )\n\
         \x20   .with_seed({seed})\n\
         \x20   .with_link({link})\n\
         \x20   .with_qos(\n\
         \x20       sle_fd::QosSpec::new(\n\
         \x20           sle_sim::SimDuration::from_nanos({qos_td}),\n\
         \x20           sle_sim::SimDuration::from_nanos({qos_tmr}),\n\
         \x20           {qos_pa:?},\n\
         \x20       )\n\
         \x20       .expect(\"valid QoS\"),\n\
         \x20   )\n\
         \x20   .with_duration(sle_sim::SimDuration::from_nanos({duration}))\n\
         \x20   .with_settle(sle_sim::SimDuration::from_nanos({settle}));\n\
         \x20   let report = sle_chaos::run_plan(&config, &plan, 1);\n\
         \x20   assert!(report.ok(), \"invariant violations: {{:#?}}\", report.violations);\n\
         }}\n",
        slug = slug,
        seed = seed,
        name = plan.name(),
        actions = actions,
        algorithm = algorithm_variant(config.algorithm),
        nodes = config.nodes,
        link = link_to_code(&config.link),
        qos_td = config.qos.detection_time().as_nanos(),
        qos_tmr = config.qos.mistake_recurrence().as_nanos(),
        qos_pa = config.qos.availability(),
        duration = config.duration.as_nanos(),
        settle = config.settle.as_nanos(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_healthy_sweep_is_clean() {
        let config = SweepConfig::new()
            .with_seeds(2)
            .with_nodes(4)
            .with_link(LinkSpec::lan());
        let config = SweepConfig {
            duration: SimDuration::from_secs(35),
            ..config
        };
        let summary = run_sweep(&config);
        assert_eq!(summary.runs, 2 * 6 * 3);
        assert!(summary.ok(), "{}", summary.render());
        assert_eq!(summary.cells.len(), 18);
        assert!(summary.render().contains("chaos sweep"));
        assert!(summary.render().contains("large-churn"));
    }

    #[test]
    fn a_weakened_detector_is_caught_and_rendered() {
        let weakened = QosSpec::new(
            SimDuration::from_millis(40),
            SimDuration::from_secs(3600),
            0.999,
        )
        .unwrap();
        let config = SweepConfig::new()
            .with_seeds(1)
            .with_nodes(3)
            .with_qos(weakened)
            .with_link(LinkSpec::from_paper_tuple(25.0, 0.1));
        let config = SweepConfig {
            algorithms: vec![ElectorKind::OmegaLc],
            plans: vec![PlanKind::LeaderChurn],
            duration: SimDuration::from_secs(30),
            ..config
        };
        let summary = run_sweep(&config);
        assert!(!summary.ok(), "the weakened detector must be caught");
        let failure = &summary.failures[0];
        // The failure block carries the run's observability context.
        assert!(
            !failure.metrics.metrics.is_empty(),
            "empty metrics snapshot"
        );
        assert!(!failure.proto_tail.is_empty(), "empty protocol trace tail");
        let rendered = summary.render();
        assert!(rendered.contains("metrics:"), "{rendered}");
        assert!(rendered.contains("last "), "{rendered}");
        assert!(failure.reproducer.contains("#[test]"));
        assert!(failure
            .reproducer
            .contains("chaos_regression_omega_lc_leader_churn"));
        assert!(
            failure.shrunk.len() <= 2,
            "shrinking failed: {:?}",
            failure.shrunk
        );
        assert!(summary.render().contains("FAILURE"));
    }
}
