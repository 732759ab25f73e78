//! Traced run: re-drive the engine's plan through `Scenario::*` calls with
//! a span around each call, check the outcomes against an untraced run of
//! the same plan, and derive the per-layer metrics.
//!
//! Spans are taken here, around calls into the program, not inside it. A
//! task is one engine batch (`max_batch` units of one scenario); its span
//! holds a forward-only `run_batch(&[])` probe (kernel and ds; the dist
//! batch path builds its reference run there instead), the telemetry-on
//! `run_batch`, and on resilience workloads the `run_resilience` pass.

use std::collections::BTreeMap;
use std::time::Instant;

use adcc_campaign::report::CampaignReport;
use adcc_campaign::{ImageMemory, OutcomeCounts, Registry, ResilienceBatch, Trial};
use adcc_resilience::{DirtyTrial, NaturalResilience};
use adcc_telemetry::ExecutionProfile;

use crate::check::Checker;
use crate::{cpu_seconds, median, probes, ratio, Metric, Workload};

/// One engine task as the traced re-drive ran it. Times are seconds; `start`
/// and `end` are offsets from the pass start.
struct TaskSpan {
    scenario: usize,
    start: f64,
    end: f64,
    forward: Option<f64>,
    batch: f64,
    dirty: Option<f64>,
    trials: Vec<Trial>,
    resilience: Option<ResilienceBatch>,
}

struct TracedPass {
    wall: f64,
    names: Vec<&'static str>,
    tasks: Vec<TaskSpan>,
    mem: adcc_campaign::ImageMemorySummary,
}

fn traced_pass(w: &Workload, seed: u64, threads: usize) -> TracedPass {
    let t0 = Instant::now();
    let plan = w.plan(seed, threads);
    let batch = plan.cfg.max_batch as usize;
    let tasks: Vec<(usize, Vec<u64>)> = plan
        .points
        .iter()
        .enumerate()
        .flat_map(|(i, units)| units.chunks(batch).map(move |c| (i, c.to_vec())))
        .collect();
    let forward_probe = w.registry != Registry::Dist;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let mem = ImageMemory::default();
    let probe_mem = ImageMemory::default();
    let spans = pool.install_map(tasks, |_, (scenario, units)| {
        let s = &plan.scenarios[scenario];
        let timed = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        };
        let start = t0.elapsed().as_secs_f64();
        let forward = forward_probe.then(|| {
            timed(&mut || {
                std::hint::black_box(s.run_batch(&[], false, &probe_mem));
            })
        });
        let mut trials = Vec::new();
        let batch = timed(&mut || {
            trials = s
                .run_batch(&units, true, &mem)
                .unwrap_or_else(|| units.iter().map(|&u| s.run_trial(u, true)).collect());
        });
        let mut resilience = None;
        let dirty = w.resilience.then(|| {
            timed(&mut || {
                resilience = s.run_resilience(&units, &mem);
            })
        });
        TaskSpan {
            scenario,
            start,
            end: t0.elapsed().as_secs_f64(),
            forward,
            batch,
            dirty,
            trials,
            resilience,
        }
    });
    TracedPass {
        wall: t0.elapsed().as_secs_f64(),
        names: plan.scenarios.iter().map(|s| s.name()).collect(),
        tasks: spans,
        mem: mem.summary(),
    }
}

/// Wall time covered by at least one task span.
fn covered(tasks: &[TaskSpan]) -> f64 {
    let mut spans: Vec<(f64, f64)> = tasks.iter().map(|t| (t.start, t.end)).collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (s, e) in spans {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + open.map_or(0.0, |(s, e)| e - s)
}

/// The traced re-drive must classify every state exactly as the engine did:
/// outcome histograms, `lost_units`, `sim_time_ps`, dirty classes.
fn check_equivalence(pass: &TracedPass, report: &CampaignReport, checker: &mut Checker) {
    for (i, s) in report.scenarios.iter().enumerate() {
        let tasks = || pass.tasks.iter().filter(move |t| t.scenario == i);
        let trials = || tasks().flat_map(|t| t.trials.iter());
        let mut outcomes = OutcomeCounts::default();
        trials().for_each(|t| outcomes.add(t.outcome));
        let lost: u64 = trials().map(|t| t.lost_units).sum();
        let sim: u64 = trials().map(|t| t.sim_time_ps).sum();
        if pass.names.get(i) != Some(&s.name.as_str())
            || outcomes != s.outcomes
            || lost != s.lost_units_total
            || sim != s.sim_time_ps_total
        {
            checker.problem(format!(
                "{}: traced outcomes differ from the engine's",
                s.name
            ));
        }
        let batches: Vec<&ResilienceBatch> =
            tasks().filter_map(|t| t.resilience.as_ref()).collect();
        let traced = batches.first().map(|b| {
            let trials: Vec<_> = batches
                .iter()
                .flat_map(|b| b.trials.iter().copied())
                .collect();
            NaturalResilience::from_trials(b.tolerance, &trials)
        });
        if traced != s.natural_resilience {
            checker.problem(format!(
                "{}: traced dirty restarts differ from the engine's",
                s.name
            ));
        }
    }
}

/// Exact work counters of one traced pass: host-independent, so every
/// pass and every run of the same code must reproduce them bit for bit.
fn counters(pass: &TracedPass) -> Vec<(&'static str, f64)> {
    let profiles: Vec<&ExecutionProfile> = pass
        .tasks
        .iter()
        .flat_map(|t| t.trials.iter())
        .filter_map(|t| t.telemetry.as_ref())
        .collect();
    let states = pass.tasks.iter().map(|t| t.trials.len()).sum::<usize>() as f64;
    let per_state = |f: fn(&ExecutionProfile) -> u64| {
        ratio(profiles.iter().map(|p| f(p)).sum::<u64>() as f64, states)
    };
    let dirty: Vec<&DirtyTrial> = pass
        .tasks
        .iter()
        .filter_map(|t| t.resilience.as_ref())
        .flat_map(|b| b.trials.iter())
        .collect();
    let ok = dirty.iter().filter(|d| d.class.is_converged_ok()).count() as f64;
    let mem = &pass.mem;
    vec![
        ("engine.tasks", pass.tasks.len() as f64),
        ("engine.executions", mem.executions as f64),
        ("sim.accesses_per_state", per_state(|p| p.accesses)),
        (
            "sim.delta_bytes_per_state",
            ratio(mem.delta_bytes as f64, mem.images as f64),
        ),
        ("sim.peak_live_bytes", mem.peak_live_bytes as f64),
        ("dist.net_msgs_per_state", per_state(|p| p.net_msgs)),
        ("dist.net_retries_per_state", per_state(|p| p.net_retries)),
        (
            "ds.ops_replayed_per_state",
            per_state(|p| p.ds_ops_replayed),
        ),
        ("pmem.log_bytes_per_state", per_state(|p| p.log_bytes)),
        (
            "resilience.converged_ok_ppm",
            ratio(ok * 1e6, dirty.len() as f64),
        ),
        (
            "resilience.extra_units_total",
            dirty.iter().map(|d| d.extra_units).sum::<u64>() as f64,
        ),
    ]
}

/// Host-time metrics of one traced pass, keyed by metric name. Scenarios
/// the workload does not run are absent here and read 0 in the output.
fn timings(pass: &TracedPass) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    out.insert(
        "engine.self_s".to_string(),
        pass.wall - covered(&pass.tasks),
    );
    let mut replayed = 0u64;
    let mut replay_s = 0.0;
    for (i, name) in pass.names.iter().enumerate() {
        let tasks: Vec<&TaskSpan> = pass.tasks.iter().filter(|t| t.scenario == i).collect();
        let states = tasks.iter().map(|t| t.trials.len()).sum::<usize>() as f64;
        if tasks.is_empty() {
            continue;
        }
        let batch: f64 = tasks.iter().map(|t| t.batch).sum();
        let dirty: f64 = tasks.iter().filter_map(|t| t.dirty).sum();
        let mut put = |metric: &str, value: f64| {
            out.insert(format!("scenario.{name}.{metric}"), value);
        };
        put("ms_per_state", ratio((batch + dirty) * 1e3, states));
        if tasks.iter().all(|t| t.forward.is_some()) {
            let forward: f64 = tasks.iter().filter_map(|t| t.forward).sum();
            put("forward_ms", forward * 1e3 / tasks.len() as f64);
            put(
                "recover_ms_per_state",
                ratio((batch - forward) * 1e3, states),
            );
            if tasks.iter().all(|t| t.dirty.is_some()) {
                put("dirty_ms_per_state", ratio((dirty - forward) * 1e3, states));
            }
            // Only ds recovery replays ops; elsewhere the count is 0.
            replay_s += batch - forward;
            replayed += tasks
                .iter()
                .flat_map(|t| t.trials.iter())
                .filter_map(|t| t.telemetry.as_ref())
                .map(|p| p.ds_ops_replayed)
                .sum::<u64>();
        }
    }
    out.insert(
        "ds.replay_ops_per_s".to_string(),
        ratio(replayed as f64, replay_s),
    );
    out
}

/// Every per-layer metric name with its unit, in output order. The list
/// is the same for every workload; the benchmark manifest declares it.
fn layout() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("engine.tasks".into(), "count"),
        ("engine.executions".into(), "count"),
        ("engine.self_s".into(), "s"),
        ("engine.cpu_util".into(), "frac"),
        ("trace_overhead_frac".into(), "frac"),
    ];
    for registry in Registry::ALL {
        for s in registry.scenarios() {
            let name = s.name();
            names.push((format!("scenario.{name}.ms_per_state"), "ms"));
            if registry != Registry::Dist {
                names.push((format!("scenario.{name}.forward_ms"), "ms"));
                names.push((format!("scenario.{name}.recover_ms_per_state"), "ms"));
            }
            if registry == Registry::Kernel {
                names.push((format!("scenario.{name}.dirty_ms_per_state"), "ms"));
            }
        }
    }
    names.extend(
        [
            ("resilience.converged_ok_ppm", "ppm"),
            ("resilience.extra_units_total", "count"),
            ("sim.accesses_per_state", "count"),
            ("sim.delta_bytes_per_state", "B"),
            ("sim.peak_live_bytes", "B"),
            ("dist.net_msgs_per_state", "count"),
            ("dist.net_retries_per_state", "count"),
            ("ds.ops_replayed_per_state", "count"),
            ("ds.replay_ops_per_s", "1/s"),
            ("pmem.log_bytes_per_state", "B"),
        ]
        .map(|(n, u)| (n.to_string(), u)),
    );
    names.extend(probes::LAYOUT.iter().map(|&(n, u)| (n.to_string(), u)));
    names
}

/// The traced run: alternate an untraced engine pass and a traced re-drive
/// of the same plan until `seconds` have passed, then probe the sim and
/// dist primitives. Host times are medians over the traced passes, except
/// `engine.cpu_util`, which is taken around the untraced engine call.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
    checker: &mut Checker,
) -> Vec<Metric> {
    let plan = w.plan(seed, threads);
    checker.check_plan(w, &plan);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut cpu_util = Vec::new();
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut exact = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let cpu = cpu_seconds();
        let t = Instant::now();
        let report = w.run(&plan.cfg);
        let wall = t.elapsed().as_secs_f64();
        cpu_util.push((cpu_seconds() - cpu) / (report.threads as f64 * wall));
        untraced.push(wall);
        checker.check_report(&report);

        let pass = traced_pass(w, seed, threads);
        traced.push(pass.wall);
        check_equivalence(&pass, &report, checker);
        for (name, value) in timings(&pass) {
            samples.entry(name).or_default().push(value);
        }
        exact = counters(&pass);
        for &(name, value) in &exact {
            checker.counter(name, value);
        }
    }
    eprintln!("crashbench: {} traced passes", traced.len());

    let mut values: BTreeMap<String, f64> =
        samples.into_iter().map(|(k, v)| (k, median(&v))).collect();
    values.extend(exact.iter().map(|&(k, v)| (k.to_string(), v)));
    values.insert("engine.cpu_util".into(), median(&cpu_util));
    values.insert(
        "trace_overhead_frac".into(),
        median(&traced) / median(&untraced) - 1.0,
    );
    values.extend(probes::run().into_iter().map(|(k, v)| (k.to_string(), v)));
    layout()
        .into_iter()
        .map(|(name, unit)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric::new(name, value, unit)
        })
        .collect()
}
