//! Output checks: pinned report digests, silent corruption, truncated
//! budgets, rerun byte-identity and exact-counter repeatability.

use std::collections::BTreeMap;
use std::path::PathBuf;

use adcc_campaign::report::CampaignReport;

use crate::{Plan, Workload, PINNED_SEED};

/// `workload scenario digest` lines recorded at [`PINNED_SEED`]; scenario
/// `*` pins the whole canonical report.
const PINS: &str = include_str!("../pins.txt");

/// FNV-1a, 64-bit: a stable digest with no dependency.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests of one report: the whole canonical form plus one per scenario
/// (its outcome histogram, `lost_units`, `sim_time_ps` and
/// natural-resilience classes, through the report's `Debug` form).
#[derive(Clone, PartialEq)]
struct Digests {
    whole: u64,
    scenarios: Vec<(String, u64)>,
}

impl Digests {
    fn of(report: &CampaignReport) -> Digests {
        Digests {
            whole: fnv64(report.canonical_string().as_bytes()),
            scenarios: report
                .scenarios
                .iter()
                .map(|s| (s.name.clone(), fnv64(format!("{s:?}").as_bytes())))
                .collect(),
        }
    }

    fn pinned(workload: &str) -> Option<Digests> {
        let mut whole = None;
        let mut scenarios = Vec::new();
        for line in PINS.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [w, name, hex] = f[..] else { continue };
            if w != workload {
                continue;
            }
            let digest = u64::from_str_radix(hex, 16).ok()?;
            if name == "*" {
                whole = Some(digest);
            } else {
                scenarios.push((name.to_string(), digest));
            }
        }
        Some(Digests {
            whole: whole?,
            scenarios,
        })
    }

    fn lines(&self, workload: &str) -> Vec<String> {
        std::iter::once(format!("{workload} * {:016x}", self.whole))
            .chain(
                self.scenarios
                    .iter()
                    .map(|(n, d)| format!("{workload} {n} {d:016x}")),
            )
            .collect()
    }
}

/// Accumulates attempted and failed states and every failed check of a
/// run.
pub struct Checker {
    workload: &'static str,
    /// States each scenario is meant to get, in registry order.
    intended: Vec<u64>,
    /// The reference each pass must reproduce: the pins at [`PINNED_SEED`], else
    /// the first pass (rerun byte-identity).
    reference: Option<Digests>,
    pinned_seed: bool,
    digests_shown: bool,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    counters: BTreeMap<String, f64>,
}

impl Checker {
    pub fn new(w: &Workload, seed: u64) -> Checker {
        let pinned_seed = seed == PINNED_SEED;
        let reference = if pinned_seed {
            Digests::pinned(w.name)
        } else {
            None
        };
        let mut c = Checker {
            workload: w.name,
            intended: Vec::new(),
            reference,
            pinned_seed,
            digests_shown: false,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            counters: BTreeMap::new(),
        };
        if pinned_seed && c.reference.is_none() {
            c.problem(format!("no pinned digests for {} in pins.txt", w.name));
        }
        c
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    pub fn states_per_pass(&self) -> u64 {
        self.intended.iter().sum()
    }

    pub fn problem(&mut self, text: String) {
        // One line per kind of failure is enough to act on.
        if self.problems.len() < 32 && !self.problems.contains(&text) {
            self.problems.push(text);
        }
    }

    /// Record the plan's intended sizes and its task count, and flag any
    /// scenario whose schedule came back short of its budget.
    pub fn check_plan(&mut self, w: &Workload, plan: &Plan) {
        self.intended = plan.scenarios.iter().map(|s| w.intended(&**s)).collect();
        for (s, points) in plan.scenarios.iter().zip(&plan.points) {
            let want = w.intended(&**s);
            if (points.len() as u64) < want {
                self.problem(format!(
                    "{}: schedule truncated, {} of {want} states planned",
                    s.name(),
                    points.len()
                ));
            }
        }
        let batch = plan.cfg.max_batch as usize;
        let tasks: usize = plan.points.iter().map(|p| p.len().div_ceil(batch)).sum();
        self.counter("engine.tasks", tasks as f64);
    }

    /// Check one campaign pass: every intended state ran, none is silently
    /// corrupt, and the report equals its reference digest per scenario.
    /// Failed states: shortfalls, silent corruption, and every state of a
    /// scenario whose digest differs.
    pub fn check_report(&mut self, report: &CampaignReport) {
        let states: u64 = self.intended.iter().sum();
        self.attempted += states;
        let got = Digests::of(report);
        if report.scenarios.len() != self.intended.len() {
            self.failed += states;
            self.problem(format!(
                "report lists {} scenarios, plan {}",
                report.scenarios.len(),
                self.intended.len()
            ));
            return;
        }
        let reference = match &self.reference {
            Some(r) => r.clone(),
            None => {
                if self.pinned_seed {
                    self.show_digests(&got, "no pins; observed");
                }
                self.reference = Some(got.clone());
                got.clone()
            }
        };
        let mut failed = 0;
        let mut any_mismatch = false;
        for (i, s) in report.scenarios.iter().enumerate() {
            let want = self.intended[i];
            failed += want.saturating_sub(s.trials);
            if s.trials < want {
                self.problem(format!("{}: {} of {want} states ran", s.name, s.trials));
            }
            let pinned = reference.scenarios.iter().find(|(n, _)| *n == s.name);
            if pinned.map(|&(_, d)| d) != Some(got.scenarios[i].1) {
                any_mismatch = true;
                failed += s.trials.min(want);
                self.problem(format!("{}: result differs from the reference", s.name));
            } else {
                failed += s.outcomes.silent_corruption;
            }
            if s.outcomes.silent_corruption > 0 {
                self.problem(format!(
                    "{}: {} silent-corruption states",
                    s.name, s.outcomes.silent_corruption
                ));
            }
        }
        if got.whole != reference.whole {
            if !any_mismatch {
                failed = states;
            }
            self.problem("canonical report differs from the reference".to_string());
        }
        if got != reference {
            self.show_digests(&got, "digests differ from the reference; observed");
        }
        self.failed += failed.min(states);

        let mem = &report.image_memory;
        self.counter("engine.executions", mem.executions as f64);
        self.counter(
            "sim.delta_bytes_per_state",
            crate::ratio(mem.delta_bytes as f64, mem.images as f64),
        );
        self.counter("sim.peak_live_bytes", mem.peak_live_bytes as f64);
    }

    /// Print observed digests as `pins.txt` lines, once per run.
    fn show_digests(&mut self, got: &Digests, why: &str) {
        if !self.digests_shown {
            self.digests_shown = true;
            eprintln!("crashbench: {why}:");
            for line in got.lines(self.workload) {
                eprintln!("  {line}");
            }
        }
    }

    /// Record an exact counter; a second reading in the same run must be
    /// bit-identical.
    pub fn counter(&mut self, name: &str, value: f64) {
        match self.counters.get(name) {
            Some(v) if v.to_bits() != value.to_bits() => self.problem(format!(
                "exact counter {name} changed within the run: {v} vs {value}"
            )),
            Some(_) => {}
            None => {
                self.counters.insert(name.to_string(), value);
            }
        }
    }

    /// Compare this run's exact counters with every earlier run of the same
    /// executable, workload and seed, then store the union. The record
    /// sits next to the executable, inside the build directory.
    pub fn repeat_counters(&mut self, workload: &str, seed: u64) {
        let Some(path) = record_path(workload, seed) else {
            eprintln!("crashbench: cannot locate the executable; counter repeat check skipped");
            return;
        };
        let mut stored: BTreeMap<String, f64> = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| {
                let (name, value) = l.split_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect();
        for (name, value) in &self.counters.clone() {
            if let Some(old) = stored.get(name) {
                if old.to_bits() != value.to_bits() {
                    self.problem(format!(
                        "exact counter {name} differs from an earlier run: {old} vs {value}"
                    ));
                }
            }
        }
        stored.extend(self.counters.iter().map(|(k, v)| (k.clone(), *v)));
        let text: String = stored.iter().map(|(k, v)| format!("{k} {v:?}\n")).collect();
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, text));
        if let Err(e) = written {
            eprintln!(
                "crashbench: cannot store counters at {}: {e}",
                path.display()
            );
        }
    }
}

/// `<exe dir>/crashbench-counters/<exe digest>-<workload>-<seed>.txt`:
/// the executable's digest stands for "the same code".
fn record_path(workload: &str, seed: u64) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let digest = fnv64(&std::fs::read(&exe).ok()?);
    Some(
        exe.parent()?
            .join("crashbench-counters")
            .join(format!("{digest:016x}-{workload}-{seed}.txt")),
    )
}
