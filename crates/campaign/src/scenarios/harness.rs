//! Shared batched-harvest harness.
//!
//! Every scenario's `run_batch` has the same shape: set the workload up,
//! arm the emulator's harvest plan with one trigger per scheduled unit,
//! run the forward execution **once** to completion, then classify each
//! harvested copy-on-write image streaming (materializing one at a time,
//! so peak memory stays flat no matter how many crash points the batch
//! carries). Units whose trigger never fired completed cleanly; they share
//! one completion-classified trial template.

use adcc_core::DirtyRestart;
use adcc_resilience::{DirtyClass, DirtyTrial, Tolerance};
use adcc_sim::crash::{CrashEmulator, CrashSite, CrashTrigger, Harvest};
use adcc_sim::image::NvmImage;
use adcc_sim::system::DeltaBase;
use adcc_telemetry::{ExecutionProfile, Probe};

use crate::memstats::ImageMemory;
use crate::scenario::Trial;

/// Run one harvested batch execution and classify its trials.
///
/// * `units` — sorted, distinct scheduled units.
/// * `trigger_of` — unit → crash trigger (usually `Scenario::trigger_of`).
/// * `emu` — freshly set-up emulator (trigger [`CrashTrigger::Never`]).
/// * `run` — drives the forward execution to completion, returning
///   whatever completion context the scenario needs (e.g. a final `rho`).
/// * `crash_trial` — classifies one harvested crash state (`k` is the
///   harvest ordinal, capture order — scenarios keeping per-capture
///   sidecars index them with it) from its materialized image; must match
///   the `run_trial` crash arm exactly.
/// * `complete_trial` — classifies the completed run (called at most once;
///   its trial is replicated, with the unit overridden, across every unit
///   whose trigger never fired).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_harvested<T>(
    units: &[u64],
    telemetry: bool,
    mem: &ImageMemory,
    mut emu: CrashEmulator,
    trigger_of: impl Fn(u64) -> CrashTrigger,
    run: impl FnOnce(&mut CrashEmulator) -> T,
    crash_trial: impl FnMut(usize, u64, CrashSite, &NvmImage, Option<ExecutionProfile>) -> Trial,
    complete_trial: impl FnOnce(T, &CrashEmulator, Option<ExecutionProfile>) -> Trial,
) -> Vec<Trial> {
    run_harvested_ref(
        units,
        telemetry,
        mem,
        &mut emu,
        trigger_of,
        run,
        crash_trial,
        complete_trial,
    )
}

/// Like [`run_harvested`], but borrowing the emulator so the caller can
/// inspect it afterwards — the analyzed batch path detaches the
/// persist-order event recorder from the system once the run is done.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_harvested_ref<T>(
    units: &[u64],
    telemetry: bool,
    mem: &ImageMemory,
    emu: &mut CrashEmulator,
    trigger_of: impl Fn(u64) -> CrashTrigger,
    run: impl FnOnce(&mut CrashEmulator) -> T,
    mut crash_trial: impl FnMut(usize, u64, CrashSite, &NvmImage, Option<ExecutionProfile>) -> Trial,
    complete_trial: impl FnOnce(T, &CrashEmulator, Option<ExecutionProfile>) -> Trial,
) -> Vec<Trial> {
    debug_assert!(units.windows(2).all(|w| w[0] < w[1]), "units unsorted");
    debug_assert_eq!(
        emu.trigger(),
        CrashTrigger::Never,
        "batch executions must run to completion"
    );
    emu.arm_harvest(units.iter().map(|&u| (trigger_of(u), u)));
    let probe = telemetry.then(|| Probe::attach(emu));
    let end = run(emu);
    let harvests = take_recorded(mem, emu);

    let mut by_unit: Vec<Option<Trial>> = vec![None; units.len()];
    for (k, h) in harvests.iter().enumerate() {
        let idx = units
            .binary_search(&h.unit)
            .expect("harvested unit was scheduled");
        let profile = probe.as_ref().map(|p| {
            p.finish_at(&h.at)
                .with_dirty_lines(h.image.dirty_lines_at_crash())
        });
        // Materialize one image at a time: classification is streaming.
        let image = h.image.materialize();
        by_unit[idx] = Some(crash_trial(k, h.unit, h.site, &image, profile));
    }
    fill_completed(units, &mut by_unit, || {
        let profile = probe.as_ref().map(|p| p.finish(emu));
        complete_trial(end, emu, profile)
    })
}

/// Run one harvested batch execution in dirty-restart mode.
///
/// Same harvest mechanics as [`run_harvested`], but each crash state is
/// handed to `dirty_trial` (which reboots it dirty and classifies the
/// outcome) instead of the scenario's recovery path. Units whose trigger
/// never fires complete cleanly: nothing was lost, nothing rebooted, so
/// they classify as [`DirtyClass::ConvergedExact`] with zero extra work.
pub(crate) fn run_dirty(
    units: &[u64],
    mem: &ImageMemory,
    mut emu: CrashEmulator,
    trigger_of: impl Fn(u64) -> CrashTrigger,
    run: impl FnOnce(&mut CrashEmulator),
    mut dirty_trial: impl FnMut(u64, &NvmImage) -> DirtyTrial,
) -> Vec<DirtyTrial> {
    debug_assert!(units.windows(2).all(|w| w[0] < w[1]), "units unsorted");
    debug_assert_eq!(
        emu.trigger(),
        CrashTrigger::Never,
        "batch executions must run to completion"
    );
    emu.arm_harvest(units.iter().map(|&u| (trigger_of(u), u)));
    run(&mut emu);
    let harvests = take_recorded(mem, &mut emu);

    let mut by_unit: Vec<Option<DirtyTrial>> = vec![None; units.len()];
    for h in harvests.iter() {
        let idx = units
            .binary_search(&h.unit)
            .expect("harvested unit was scheduled");
        // Materialize one image at a time: classification is streaming.
        let image = h.image.materialize();
        by_unit[idx] = Some(dirty_trial(h.unit, &image));
    }
    by_unit
        .iter()
        .enumerate()
        .map(|(i, t)| {
            t.unwrap_or(DirtyTrial {
                unit: units[i],
                class: DirtyClass::ConvergedExact,
                extra_units: 0,
                sim_time_ps: 0,
            })
        })
        .collect()
}

/// Classify one kernel dirty-restart against the scenario reference: a
/// restart the application's own audit rejected is `detected-dirty-again`;
/// otherwise the max elementwise difference runs through the tolerance
/// ladder (NaN anywhere maps to infinity, hence diverged).
pub(crate) fn classify_dirty(
    unit: u64,
    d: &DirtyRestart,
    reference: &[f64],
    tol: &Tolerance,
) -> DirtyTrial {
    let (detected, diff) = match &d.solution {
        None => (true, 0.0),
        Some(sol) => (false, super::max_diff(sol, reference)),
    };
    DirtyTrial {
        unit,
        class: tol.classify(detected, diff),
        extra_units: d.extra_units,
        sim_time_ps: d.sim_time_ps,
    }
}

/// Disarm the harvest plan and take its crash states, recording the
/// execution's crash-image memory facts: the base's stored prefix, the
/// summed deltas, and the largest image classification will materialize.
fn take_recorded(mem: &ImageMemory, emu: &mut CrashEmulator) -> Vec<Harvest> {
    let base_bytes = emu.harvest_base().map_or(0, DeltaBase::stored_len) as u64;
    let harvests = emu.take_harvests();
    let delta_bytes: u64 = harvests.iter().map(|h| h.image.delta_bytes()).sum();
    let image_bytes = harvests
        .iter()
        .map(|h| h.image.materialized_len() as u64)
        .max()
        .unwrap_or(0);
    mem.record_execution(
        base_bytes,
        delta_bytes,
        harvests.len() as u64,
        emu.config().nvm_capacity as u64,
        image_bytes,
    );
    harvests
}

/// Replicate a lazily-built completion trial over every unit still missing
/// one, then unwrap into engine order.
pub(crate) fn fill_completed(
    units: &[u64],
    by_unit: &mut [Option<Trial>],
    template: impl FnOnce() -> Trial,
) -> Vec<Trial> {
    if by_unit.iter().any(Option::is_none) {
        let template = template();
        for (i, t) in by_unit.iter_mut().enumerate() {
            if t.is_none() {
                *t = Some(Trial {
                    unit: units[i],
                    ..template
                });
            }
        }
    }
    by_unit
        .iter()
        .map(|t| t.expect("every unit classified"))
        .collect()
}
