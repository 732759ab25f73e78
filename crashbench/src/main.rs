//! Crash-campaign benchmark.
//!
//! Times calls into the public campaign API (`run_campaign`,
//! `run_resilience`, `Registry::scenarios_with`, `Scenario::run_batch`,
//! `Scenario::run_resilience`) and the public `sim`/`dist` primitives,
//! from one process with at most two worker threads (closed loop: each
//! campaign pass starts when the previous one ends). The outputs of every
//! pass are checked against pinned expectations.
//!
//! ```text
//! cargo run --release --manifest-path crashbench/Cargo.toml -- \
//!     --workload kernel-balanced [--seed 42] [--seconds 20] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` re-drives the
//! same plan through `Scenario::*` calls and prints the per-layer ones.
//! The last stdout line is one JSON object; the process exits 1 when any
//! output check fails.

mod check;
mod probes;
mod traced;

use std::time::Instant;

use adcc_campaign::report::CampaignReport;
use adcc_campaign::{run_campaign, run_resilience, CampaignConfig, Registry, Scenario, Schedule};
use adcc_dist::net::FaultProfile;

use check::Checker;

/// The seed the output pins in `pins.txt` were recorded at.
pub const PINNED_SEED: u64 = 42;

/// How a workload sizes its per-scenario plan.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Every scenario gets exactly this many stratified crash states.
    PerScenario(u64),
    /// Every scenario's whole unit space (site grain plus dense tail).
    FullSpace,
}

/// One benchmark workload: a registry swept by one campaign entry point.
pub struct Workload {
    pub name: &'static str,
    pub registry: Registry,
    pub faults: FaultProfile,
    pub budget: Budget,
    pub dense_units: u64,
    /// Sweep through the fused `run_resilience` instead of `run_campaign`.
    pub resilience: bool,
}

/// Why these four (see `BASELINE.md` for the full record):
/// * `kernel-balanced` — recovery plus resumed tail is ~95% of the time,
///   split ~60/40 between solver and MC scenarios; equal states per
///   scenario so a gain in either family shows.
/// * `kernel-resilience` — the only workload where the dirty-restart pass
///   and its duplicated forward execution do real work.
/// * `dist-chaotic` — cluster fork, reboot, `from_image` and the lossy
///   fabric carry the time; its tail is already short-circuited.
/// * `ds-dense` — ~0.1 ms states: fixed per-state costs (materialize,
///   image fork, classification), undo logs and op replay dominate.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kernel-balanced",
        registry: Registry::Kernel,
        faults: FaultProfile::Off,
        budget: Budget::PerScenario(100),
        dense_units: 400,
        resilience: false,
    },
    Workload {
        name: "kernel-resilience",
        registry: Registry::Kernel,
        faults: FaultProfile::Off,
        budget: Budget::PerScenario(50),
        dense_units: 400,
        resilience: true,
    },
    Workload {
        name: "dist-chaotic",
        registry: Registry::Dist,
        faults: FaultProfile::Chaotic,
        budget: Budget::FullSpace,
        dense_units: 0,
        resilience: false,
    },
    Workload {
        name: "ds-dense",
        registry: Registry::Ds,
        faults: FaultProfile::Off,
        budget: Budget::FullSpace,
        dense_units: 200,
        resilience: false,
    },
];

/// A planned campaign: the engine config plus the crash points the engine
/// will draw for each scenario, re-derived from the public schedule API.
pub struct Plan {
    pub cfg: CampaignConfig,
    pub scenarios: Vec<Box<dyn Scenario>>,
    pub points: Vec<Vec<u64>>,
}

impl Workload {
    /// Build the registry and plan the campaign: the benchmark's set-up.
    /// Mirrors the engine's split — `budget / n` per scenario, remainder
    /// to the earliest — over `Schedule::crash_points`.
    pub fn plan(&self, seed: u64, threads: usize) -> Plan {
        let scenarios = self.registry.scenarios_with(self.faults);
        let n = scenarios.len() as u64;
        let budget = match self.budget {
            Budget::PerScenario(p) => p * n,
            Budget::FullSpace => {
                n * scenarios
                    .iter()
                    .map(|s| s.total_units() + self.dense_units)
                    .max()
                    .expect("registries are non-empty")
            }
        };
        let cfg = CampaignConfig::builder()
            .seed(seed)
            .budget_states(budget)
            .schedule(Schedule::Stratified)
            .threads(threads)
            .dense_units(self.dense_units)
            .registry(self.registry)
            .faults(self.faults)
            .build()
            .expect("workload configs are valid");
        let (base, rem) = (budget / n, budget % n);
        let points = scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| {
                cfg.schedule.crash_points(
                    cfg.seed,
                    s.name(),
                    s.total_units() + cfg.dense_units,
                    base + u64::from((i as u64) < rem),
                )
            })
            .collect();
        Plan {
            cfg,
            scenarios,
            points,
        }
    }

    /// States each scenario is meant to get: a shortfall against this is
    /// a silently truncated budget, counted as failed states.
    pub fn intended(&self, s: &dyn Scenario) -> u64 {
        match self.budget {
            Budget::PerScenario(p) => p,
            Budget::FullSpace => s.total_units() + self.dense_units,
        }
    }

    /// One untraced campaign pass through the public entry point.
    pub fn run(&self, cfg: &CampaignConfig) -> CampaignReport {
        if self.resilience {
            run_resilience(cfg)
        } else {
            run_campaign(cfg)
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: crashbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when nothing was measured (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat` (Linux `USER_HZ` is 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // After the command name: field 3 is `state`, so utime (14) and stime
    // (15) sit at offsets 11 and 12.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    ticks(11).unwrap_or(0.0) / 100.0 + ticks(12).unwrap_or(0.0) / 100.0
}

/// Process resident-set high-water mark in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the high-water mark to the current resident set, so the next
/// reading covers one pass only. Returns false where the kernel does not
/// support it; readings then cover the whole process.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Untraced timing loop: the end-to-end metrics.
fn end_to_end(args: &Args, threads: usize, checker: &mut Checker) -> Vec<Metric> {
    let w = args.workload;
    // Set-up (registry construction plus planning) is timed before every
    // pass, so its samples spread over the run like the passes do: the
    // speed of a core shifts every few seconds on a shared host.
    let mut setup = Vec::new();
    let mut timed_plan = || {
        let t = Instant::now();
        let plan = w.plan(args.seed, threads);
        setup.push(t.elapsed().as_secs_f64());
        plan
    };
    let plan = timed_plan();
    checker.check_plan(w, &plan);

    // Warm-up pass: allocator and page cache settle; its outputs are
    // checked like every other pass.
    checker.check_report(&w.run(&plan.cfg));
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let measuring = Instant::now();
    while rates.is_empty() || measuring.elapsed().as_secs_f64() < args.seconds {
        std::hint::black_box(timed_plan().points);
        let per_pass = reset_peak_rss();
        let t = Instant::now();
        let report = w.run(&plan.cfg);
        let wall = t.elapsed().as_secs_f64();
        if per_pass {
            peaks.push(peak_rss_mb());
        }
        rates.push(report.totals.total() as f64 / wall);
        checker.check_report(&report);
    }
    if peaks.is_empty() {
        peaks.push(peak_rss_mb());
    }
    let (lo, hi) = rates
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    eprintln!(
        "crashbench: {} passes of {} states, states/s min {lo:.1} max {hi:.1}",
        rates.len(),
        checker.states_per_pass(),
    );
    vec![
        Metric::new("states_per_s", median(&rates), "1/s"),
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("peak_rss_mb", median(&peaks), "MB"),
    ]
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crashbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    let w = args.workload;
    println!(
        "crashbench {} seed={} seconds={} trace={} threads={threads} nproc={nproc}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Free one large block first: glibc then raises its mmap threshold
    // for the rest of the process, instead of at a timing-dependent pass,
    // which otherwise shifts resident memory between otherwise equal runs.
    drop(std::hint::black_box(vec![0u8; 30 << 20]));
    let mut checker = Checker::new(w, args.seed);
    let metrics = if args.trace {
        traced::per_layer(w, args.seed, args.seconds, threads, &mut checker)
    } else {
        end_to_end(&args, threads, &mut checker)
    };
    checker.repeat_counters(w.name, args.seed);

    for m in &metrics {
        println!("{:<56} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let (attempted, failed) = (checker.attempted(), checker.failed());
    println!(
        "{:<56} {:>18.6} frac",
        "failed_frac",
        ratio(failed as f64, attempted as f64)
    );
    for problem in checker.problems() {
        println!("CHECK FAILED: {problem}");
    }
    let correct = checker.problems().is_empty();
    println!(
        "{}",
        json_result(correct, attempted.max(1), failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
