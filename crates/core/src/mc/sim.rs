//! The instrumented MC transport simulation: native / basic-idea /
//! selective-flush modes, and replay-based recovery.

use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, RunOutcome};
use adcc_sim::image::NvmImage;
use adcc_sim::parray::{PArray, PScalar};
use adcc_sim::system::{MemorySystem, SystemConfig};

use super::grids::{McProblem, SimMcGrids};
use super::rng::{sample, unit_f64};
use super::{sites, XS_CHANNELS};
use crate::traits::{DirtyRestart, RecoveryReport};

/// Persistence mode of the MC loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McMode {
    /// No flushing at all (runtime baseline).
    Native,
    /// The paper's first attempt: flush only the cache line holding the
    /// loop index, every iteration (Fig. 10's "basic idea").
    Basic,
    /// The paper's fix (Fig. 11): flush `macro_xs_vector`, the five
    /// counters and the loop index every `interval` lookups (0.01% of the
    /// total in the paper).
    Selective { interval: u64 },
    /// Ablation: flush the state every iteration (the configuration the
    /// paper reports costs 16%).
    EveryIteration,
    /// Extension beyond the paper: each counter line carries an *epoch*
    /// field (the index of the last lookup that updated the line),
    /// written in the same line as the counters so NVM always holds a
    /// per-line-consistent `(counters, epoch)` pair. Recovery replays
    /// each line independently from its own epoch — **exact** results
    /// even when lines are evicted at arbitrary times, closing the
    /// small double-count window of [`McMode::Selective`]. The periodic
    /// flush only bounds the replay distance.
    Epoch { interval: u64 },
}

/// Result of a recovery + replay.
#[derive(Debug, Clone)]
pub struct McRecovery {
    /// Lookup index execution resumed from (the flushed loop index).
    pub resumed_from: u64,
    /// Final interaction-type counts after replay to completion.
    pub counts: [u64; XS_CHANNELS],
    /// Detect/resume split; `lost_units` = lookups re-executed.
    pub report: RecoveryReport,
}

/// Counter storage for [`McMode::Epoch`]: two cache lines, each holding
/// its counters *and* the index of the last lookup that updated them.
/// Because a line is written atomically, any NVM version of it is the
/// exact state "as of" its stored epoch.
#[derive(Clone, Copy)]
pub struct EpochCounters {
    /// Line 0: counters 0-1 then the epoch word.
    lo: PArray<u64>,
    /// Line 1: counters 2-4 then the epoch word.
    hi: PArray<u64>,
}

impl EpochCounters {
    /// Number of counters on the first line.
    const LO: usize = 2;

    fn alloc(sys: &mut MemorySystem) -> Self {
        let base = sys.alloc_nvm(2 * adcc_sim::line::LINE_SIZE);
        EpochCounters {
            lo: PArray::new(base, Self::LO + 1),
            hi: PArray::new(
                base + adcc_sim::line::LINE_SIZE as u64,
                XS_CHANNELS - Self::LO + 1,
            ),
        }
    }

    /// Record one interaction of type `t` at lookup `i` (counter += 1 and
    /// epoch := i + 1, in the same line).
    fn increment(&self, sys: &mut MemorySystem, t: usize, i: u64) {
        let (arr, idx) = if t < Self::LO {
            (self.lo, t)
        } else {
            (self.hi, t - Self::LO)
        };
        let c = arr.get(sys, idx) + 1;
        arr.set(sys, idx, c);
        arr.set(sys, arr.len() - 1, i + 1);
    }

    /// Persist both counter lines (bounds replay distance).
    fn flush(&self, sys: &mut MemorySystem) {
        sys.persist_line(self.lo.base());
        sys.persist_line(self.hi.base());
        sys.sfence();
    }

    /// The per-line epochs currently visible (charged reads).
    fn epochs(&self, sys: &mut MemorySystem) -> (u64, u64) {
        (
            self.lo.get(sys, self.lo.len() - 1),
            self.hi.get(sys, self.hi.len() - 1),
        )
    }

    /// Uncharged counter extraction.
    fn peek_counts(&self, sys: &MemorySystem) -> [u64; XS_CHANNELS] {
        let mut out = [0u64; XS_CHANNELS];
        for (t, o) in out.iter_mut().enumerate() {
            *o = if t < Self::LO {
                self.lo.peek(sys, t)
            } else {
                self.hi.peek(sys, t - Self::LO)
            };
        }
        out
    }
}

/// The MC simulation state over simulated memory.
pub struct McSim {
    pub grids: SimMcGrids,
    pub problem: McProblem,
    /// The five-element macroscopic cross-section accumulator
    /// (one cache line; hot, hence chronically stale in NVM).
    pub macro_xs: PArray<f64>,
    /// The five interaction-type counters. Deliberately allocated
    /// straddling a cache-line boundary (counters 0–1 on one line, 2–4 on
    /// the next) to reproduce the paper's observation that they go stale
    /// in NVM at different times.
    pub counters: PArray<u64>,
    /// The loop index cell, alone on its cache line.
    pub idx_cell: PScalar<u64>,
    /// Epoch-tagged counter storage (only used by [`McMode::Epoch`]).
    pub epoch_counters: EpochCounters,
    pub lookups: u64,
    pub seed: u64,
    pub mode: McMode,
}

impl McSim {
    /// Seed the problem into simulated NVM and zero the mutable state.
    pub fn setup(
        sys: &mut MemorySystem,
        problem: McProblem,
        lookups: u64,
        seed: u64,
        mode: McMode,
    ) -> Self {
        let grids = SimMcGrids::seed_from(sys, &problem);
        let macro_xs = PArray::<f64>::alloc_nvm(sys, XS_CHANNELS);
        // 5 u64 counters starting 48 bytes into a line: elements 0-1 on
        // the first line, 2-4 on the second.
        let counters_base = sys.alloc_nvm_at_line_offset(XS_CHANNELS * 8, 48);
        let counters = PArray::<u64>::new(counters_base, XS_CHANNELS);
        let idx_cell = PScalar::<u64>::alloc_nvm(sys);
        let epoch_counters = EpochCounters::alloc(sys);
        McSim {
            grids,
            problem,
            macro_xs,
            counters,
            idx_cell,
            epoch_counters,
            lookups,
            seed,
            mode,
        }
    }

    /// One lookup: sample inputs, search + interpolate every nuclide of
    /// the material, accumulate `macro_xs`, and choose the interaction
    /// type via the paper's normalized-CDF extension.
    fn one_lookup(&self, sys: &mut MemorySystem, i: u64) -> usize {
        let e = unit_f64(sample(self.seed, i, 0));
        let mat = self
            .problem
            .pick_material(unit_f64(sample(self.seed, i, 1)));
        for c in 0..XS_CHANNELS {
            self.macro_xs.set(sys, c, 0.0);
        }
        // Iterate a clone-free index list (host-side config data).
        for idx in 0..self.problem.materials[mat].len() {
            let nuc = self.problem.materials[mat][idx] as usize;
            let g = self.grids.search(sys, nuc, e);
            let xs = self.grids.interpolate(sys, nuc, g, e);
            for (c, v) in xs.iter().enumerate() {
                let acc = self.macro_xs.get(sys, c) + v;
                self.macro_xs.set(sys, c, acc);
            }
            sys.charge_flops(XS_CHANNELS as u64);
        }
        // CDF over the five macroscopic cross sections, normalized by the
        // total; a uniform draw picks the interaction type.
        let mut cdf = [0.0f64; XS_CHANNELS];
        let mut acc = 0.0;
        for (c, entry) in cdf.iter_mut().enumerate() {
            acc += self.macro_xs.get(sys, c);
            *entry = acc;
        }
        let total = cdf[XS_CHANNELS - 1];
        let x = unit_f64(sample(self.seed, i, 2));
        sys.charge_flops(2 * XS_CHANNELS as u64);
        cdf.iter()
            .position(|&c| x <= c / total)
            .unwrap_or(XS_CHANNELS - 1)
    }

    /// Flush the persistent MC state (macro_xs + counters + index).
    fn flush_state(&self, sys: &mut MemorySystem) {
        sys.persist_range(self.macro_xs.base(), self.macro_xs.byte_len());
        sys.persist_range(self.counters.base(), self.counters.byte_len());
        self.idx_cell.persist(sys);
        sys.sfence();
    }

    /// Run lookups `[from, to)`, applying the mode's flushing policy and
    /// polling the crash emulator after every lookup.
    pub fn run(&self, emu: &mut CrashEmulator, from: u64, to: u64) -> RunOutcome<()> {
        for i in from..to.min(self.lookups) {
            let t = self.one_lookup(emu, i);
            if matches!(self.mode, McMode::Epoch { .. }) {
                self.epoch_counters.increment(emu, t, i);
            } else {
                let c = self.counters.get(emu, t) + 1;
                self.counters.set(emu, t, c);
            }
            match self.mode {
                McMode::Native => {}
                McMode::Basic => {
                    // Flush only the loop-index line, every iteration.
                    self.idx_cell.set(emu, i + 1);
                    self.idx_cell.persist(emu);
                }
                McMode::Selective { interval } => {
                    if (i + 1) % interval.max(1) == 0 {
                        self.idx_cell.set(emu, i + 1);
                        self.flush_state(emu);
                    }
                }
                McMode::EveryIteration => {
                    self.idx_cell.set(emu, i + 1);
                    self.flush_state(emu);
                }
                McMode::Epoch { interval } => {
                    if (i + 1) % interval.max(1) == 0 {
                        self.epoch_counters.flush(emu);
                    }
                }
            }
            if emu.poll(CrashSite::new(sites::PH_LOOKUP, i)) {
                return RunOutcome::Crashed(emu.crash_now());
            }
        }
        RunOutcome::Completed(())
    }

    /// Epoch-mode replay: re-execute lookups from each line's own epoch,
    /// applying only the increments that line missed. Exact by
    /// construction (each NVM line is a consistent `(counters, epoch)`
    /// pair).
    fn replay_epochs(&self, sys: &mut MemorySystem) {
        let (e_lo, e_hi) = self.epoch_counters.epochs(sys);
        let start = e_lo.min(e_hi);
        for i in start..self.lookups {
            let t = self.one_lookup(sys, i);
            let line_epoch = if t < EpochCounters::LO { e_lo } else { e_hi };
            if i >= line_epoch {
                self.epoch_counters.increment(sys, t, i);
            }
        }
    }

    /// Uncharged extraction of the counters (logical values).
    pub fn peek_counts(&self, sys: &MemorySystem) -> [u64; XS_CHANNELS] {
        if matches!(self.mode, McMode::Epoch { .. }) {
            return self.epoch_counters.peek_counts(sys);
        }
        let mut out = [0u64; XS_CHANNELS];
        for (c, o) in out.iter_mut().enumerate() {
            *o = self.counters.peek(sys, c);
        }
        out
    }

    /// EasyCrash-style dirty restart: reboot from the raw image, trust the
    /// surviving `idx_cell` verbatim, and run the remaining lookups on top
    /// of whatever counter values survived. The tally audit every MC run
    /// ends with (Σ counts = lookups) rejects double- or under-counted
    /// dirty totals.
    pub fn dirty_restart(&self, image: &NvmImage, cfg: SystemConfig) -> DirtyRestart {
        let mut sys = MemorySystem::dirty_reboot(cfg, image);
        let t0 = sys.now();
        let idx = self.idx_cell.get(&mut sys);
        if idx > self.lookups {
            // The loop bound itself rejects a counter past the end.
            return DirtyRestart::rejected((sys.now() - t0).ps());
        }
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        self.run(&mut emu, idx, self.lookups)
            .completed()
            .expect("trigger is Never");
        let sys = emu.into_system();
        let counts = self.peek_counts(&sys);
        let total: u64 = counts.iter().sum();
        let extra = self.lookups - idx;
        let time = (sys.now() - t0).ps();
        if total != self.lookups {
            return DirtyRestart {
                solution: None,
                extra_units: extra,
                sim_time_ps: time,
            };
        }
        DirtyRestart {
            solution: Some(counts.iter().map(|&c| c as f64).collect()),
            extra_units: extra,
            sim_time_ps: time,
        }
    }

    /// Reseeded recovery: like [`McSim::recover_and_resume`], but the
    /// resumed lookups draw *fresh* randomness (a restarted production
    /// run without a replayable RNG). Results are statistically — not
    /// bitwise — equivalent to the no-crash run; MC's error tolerance is
    /// exactly why the paper's scheme works for it.
    pub fn recover_and_resume_reseeded(
        &self,
        image: &NvmImage,
        cfg: SystemConfig,
        crashed_at: u64,
        new_seed: u64,
    ) -> McRecovery {
        let reseeded = McSim {
            grids: self.grids,
            problem: self.problem.clone(),
            macro_xs: self.macro_xs,
            counters: self.counters,
            idx_cell: self.idx_cell,
            epoch_counters: self.epoch_counters,
            lookups: self.lookups,
            seed: new_seed,
            mode: self.mode,
        };
        reseeded.recover_and_resume(image, cfg, crashed_at)
    }

    /// Replay-based recovery: boot from the image, read the flushed loop
    /// index (and whatever counter values NVM holds), and re-execute the
    /// remaining lookups with the *same sampled inputs* (counter-based
    /// RNG). `crashed_at` is the lookup the crash interrupted (known to
    /// the harness), used only for loss accounting.
    pub fn recover_and_resume(
        &self,
        image: &NvmImage,
        cfg: SystemConfig,
        crashed_at: u64,
    ) -> McRecovery {
        let mut sys = MemorySystem::from_image(cfg, image);
        if matches!(self.mode, McMode::Epoch { .. }) {
            let t0 = sys.now();
            let (e_lo, e_hi) = self.epoch_counters.epochs(&mut sys);
            let resumed_from = e_lo.min(e_hi);
            let t1 = sys.now();
            self.replay_epochs(&mut sys);
            let t2 = sys.now();
            return McRecovery {
                resumed_from,
                counts: self.peek_counts(&sys),
                report: RecoveryReport {
                    detect_time: t1 - t0,
                    resume_time: t2 - t1,
                    lost_units: crashed_at.saturating_sub(resumed_from),
                    restart_unit: resumed_from,
                },
            };
        }
        let t0 = sys.now();
        let resumed_from = self.idx_cell.get(&mut sys);
        let t1 = sys.now();
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        // Re-execute back to the crash point (measured as resume time).
        self.run(&mut emu, resumed_from, crashed_at)
            .completed()
            .expect("trigger is Never");
        let t2 = emu.now();
        // Continue to completion.
        self.run(&mut emu, crashed_at, self.lookups)
            .completed()
            .expect("trigger is Never");
        let sys = emu.into_system();
        McRecovery {
            resumed_from,
            counts: self.peek_counts(&sys),
            report: RecoveryReport {
                detect_time: t1 - t0,
                resume_time: t2 - t1,
                lost_units: crashed_at.saturating_sub(resumed_from),
                restart_unit: resumed_from,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problem() -> McProblem {
        McProblem::generate(36, 128, 11)
    }

    fn cfg(p: &McProblem) -> SystemConfig {
        SystemConfig::nvm_only(16 << 10, (p.grid_bytes() + (1 << 20)).next_power_of_two())
    }

    fn no_crash_counts(p: &McProblem, lookups: u64, mode: McMode) -> [u64; XS_CHANNELS] {
        no_crash_counts_seeded(p, lookups, 42, mode)
    }

    fn no_crash_counts_seeded(
        p: &McProblem,
        lookups: u64,
        seed: u64,
        mode: McMode,
    ) -> [u64; XS_CHANNELS] {
        let c = cfg(p);
        let mut sys = MemorySystem::new(c);
        let mc = McSim::setup(&mut sys, p.clone(), lookups, seed, mode);
        let mut emu = CrashEmulator::from_system(sys, CrashTrigger::Never);
        mc.run(&mut emu, 0, lookups).completed().unwrap();
        mc.peek_counts(&emu)
    }

    #[test]
    fn host_lookups_equal_a_simulated_native_run_bit_for_bit() {
        // The campaign's problem shape and a smaller one, two seeds each.
        for (p, lookups) in [
            (McProblem::generate(36, 64, 305), 1_200u64),
            (small_problem(), 500),
        ] {
            for seed in [42u64, 7] {
                let mut sys = MemorySystem::new(cfg(&p));
                let mc = McSim::setup(&mut sys, p.clone(), lookups, seed, McMode::Native);
                for i in 0..lookups {
                    assert_eq!(
                        mc.one_lookup(&mut sys, i),
                        p.interaction(seed, i),
                        "seed {seed} lookup {i}"
                    );
                }
                assert_eq!(
                    p.reference_counts(lookups, seed),
                    no_crash_counts_seeded(&p, lookups, seed, McMode::Native),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn counts_sum_to_lookups() {
        let p = small_problem();
        let counts = no_crash_counts(&p, 500, McMode::Native);
        assert_eq!(counts.iter().sum::<u64>(), 500);
    }

    #[test]
    fn counts_are_roughly_uniform() {
        let p = small_problem();
        let n = 5_000u64;
        let counts = no_crash_counts(&p, n, McMode::Native);
        let expect = n as f64 / 5.0;
        for c in counts {
            assert!(
                (c as f64 - expect).abs() < 0.15 * expect,
                "skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn modes_do_not_change_results() {
        let p = small_problem();
        let a = no_crash_counts(&p, 400, McMode::Native);
        let b = no_crash_counts(&p, 400, McMode::Basic);
        let c = no_crash_counts(&p, 400, McMode::Selective { interval: 50 });
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn counters_straddle_two_lines() {
        let p = small_problem();
        let mut sys = MemorySystem::new(cfg(&p));
        let mc = McSim::setup(&mut sys, p, 10, 1, McMode::Native);
        let first = adcc_sim::line::line_of(mc.counters.addr(0));
        let last = adcc_sim::line::line_of(mc.counters.addr(4) + 7);
        assert_eq!(last, first + 1, "counters must straddle two lines");
    }

    #[test]
    fn selective_flush_recovery_matches_no_crash_exactly() {
        let p = small_problem();
        let lookups = 2_000u64;
        let want = no_crash_counts(&p, lookups, McMode::Native);

        let c = cfg(&p);
        let mut sys = MemorySystem::new(c.clone());
        let mode = McMode::Selective { interval: 100 };
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, mode);
        let crash_at = 900u64;
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LOOKUP, crash_at),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = mc.run(&mut emu, 0, lookups).crashed().unwrap();
        let rec = mc.recover_and_resume(&image, c, crash_at + 1);
        // Replay RNG: with the counters snapshot-consistent at the last
        // flush, recovery reproduces the exact no-crash counts (modulo the
        // rare natural eviction between flushes; none at this small size).
        let total: u64 = rec.counts.iter().sum();
        let want_total: u64 = want.iter().sum();
        assert_eq!(total, want_total, "total samples must match");
        assert_eq!(rec.counts, want, "selective flushing must preserve results");
        assert!(
            rec.resumed_from >= 800,
            "resumed too early: {}",
            rec.resumed_from
        );
        assert!(rec.report.lost_units <= 101);
    }

    #[test]
    fn reseeded_recovery_is_statistically_equivalent() {
        let p = small_problem();
        let lookups = 8_000u64;
        let want = no_crash_counts(&p, lookups, McMode::Native);

        let c = cfg(&p);
        let mut sys = MemorySystem::new(c.clone());
        let mode = McMode::Selective { interval: 200 };
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, mode);
        let crash_at = 2_000u64;
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LOOKUP, crash_at),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = mc.run(&mut emu, 0, lookups).crashed().unwrap();
        let rec = mc.recover_and_resume_reseeded(&image, c, crash_at + 1, 777);
        // Different randomness after restart: totals match (no samples
        // lost), shares agree statistically (within a few percent).
        assert_eq!(rec.counts.iter().sum::<u64>(), lookups);
        for t in 0..XS_CHANNELS {
            let a = want[t] as f64 / lookups as f64;
            let b = rec.counts[t] as f64 / lookups as f64;
            assert!(
                (a - b).abs() < 0.03,
                "type {t}: {a:.4} vs {b:.4} beyond statistical tolerance"
            );
        }
    }

    #[test]
    fn epoch_mode_counts_match_other_modes_without_crash() {
        let p = small_problem();
        let a = no_crash_counts(&p, 600, McMode::Native);
        let b = no_crash_counts(&p, 600, McMode::Epoch { interval: 50 });
        assert_eq!(a, b);
    }

    #[test]
    fn epoch_recovery_is_exact_even_under_heavy_eviction() {
        // Tiny heterogeneous caches: counter lines are evicted at
        // arbitrary times between flushes — the scenario where Selective
        // replay double-counts. Epoch recovery must stay exact.
        let p = small_problem();
        let lookups = 3_000u64;
        let want = no_crash_counts(&p, lookups, McMode::Native);
        let cfg = adcc_sim::system::SystemConfig::heterogeneous(
            4 << 10,
            16 << 10,
            (p.grid_bytes() + (1 << 20)).next_power_of_two(),
        );
        for crash_at in [500u64, 1_500, 2_900] {
            let mut sys = MemorySystem::new(cfg.clone());
            let mc = McSim::setup(
                &mut sys,
                p.clone(),
                lookups,
                42,
                McMode::Epoch { interval: 100 },
            );
            let trig = CrashTrigger::AtSite {
                site: CrashSite::new(sites::PH_LOOKUP, crash_at),
                occurrence: 1,
            };
            let mut emu = CrashEmulator::from_system(sys, trig);
            let image = mc.run(&mut emu, 0, lookups).crashed().unwrap();
            let rec = mc.recover_and_resume(&image, cfg.clone(), crash_at + 1);
            assert_eq!(
                rec.counts, want,
                "epoch recovery must be exact (crash at {crash_at})"
            );
        }
    }

    #[test]
    fn basic_idea_recovery_skews_results() {
        let p = small_problem();
        let lookups = 2_000u64;
        let want = no_crash_counts(&p, lookups, McMode::Native);

        let c = cfg(&p);
        let mut sys = MemorySystem::new(c.clone());
        let mc = McSim::setup(&mut sys, p.clone(), lookups, 42, McMode::Basic);
        let crash_at = 900u64;
        let trig = CrashTrigger::AtSite {
            site: CrashSite::new(sites::PH_LOOKUP, crash_at),
            occurrence: 1,
        };
        let mut emu = CrashEmulator::from_system(sys, trig);
        let image = mc.run(&mut emu, 0, lookups).crashed().unwrap();
        let rec = mc.recover_and_resume(&image, c, crash_at + 1);
        // The counter increments stranded in cache are lost: totals fall
        // short of the no-crash run.
        let total: u64 = rec.counts.iter().sum();
        let want_total: u64 = want.iter().sum();
        assert!(
            total < want_total,
            "basic idea should lose counts: {total} vs {want_total}"
        );
    }
}
