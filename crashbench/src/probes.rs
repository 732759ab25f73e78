//! Micro-probes of the public `sim` and `dist` primitives at the pool
//! sizes the workloads use: a 2 MB solver pool behind a 16 KB cache for
//! the access, flush and fence costs, a 20 MB MC-sized pool for the crash
//! image paths, and the 16-rank chaotic CG cluster for fork and reboot.
//! Each probe reports the median of several timed repetitions.

use std::hint::black_box;
use std::time::Instant;

use adcc_dist::cg::{CgConfig, DistCg};
use adcc_dist::net::FaultProfile;
use adcc_dist::{reference_run, Cluster, RecoveryMode};
use adcc_sim::parray::PArray;
use adcc_sim::system::{MemorySystem, SystemConfig};

use crate::median;

/// Probe metric names and units, in output order.
pub const LAYOUT: [(&str, &str); 10] = [
    ("sim.load_hit_ns", "ns"),
    ("sim.load_miss_ns", "ns"),
    ("sim.store_evict_ns", "ns"),
    ("sim.clwb_ns", "ns"),
    ("sim.sfence_ns", "ns"),
    ("sim.crash_fork_delta_us", "us"),
    ("sim.materialize_us", "us"),
    ("sim.from_image_us", "us"),
    ("dist.cluster_fork_us", "us"),
    ("dist.reboot_rank_us", "us"),
];

const REPS: usize = 15;
const SOLVER_POOL: usize = 2 << 20;
const MC_POOL: usize = 20 << 20;
const CACHE: usize = 16 << 10;

/// Median over [`REPS`] runs of `f`, in nanoseconds per `ops` operations.
fn ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Median over [`REPS`] runs of `setup` then a timed `f`, in microseconds.
/// What `f` returns is dropped after the clock stops.
fn us_each<T, R>(mut setup: impl FnMut() -> T, mut f: impl FnMut(T) -> R) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let input = setup();
            let t = Instant::now();
            let out = black_box(f(input));
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(out);
            us
        })
        .collect();
    median(&samples)
}

fn solver_system() -> MemorySystem {
    MemorySystem::new(SystemConfig::nvm_only(CACHE, SOLVER_POOL))
}

/// Access, flush and fence costs on the solver pool.
fn access_probes() -> [f64; 5] {
    // Hits: a 4 KB array that stays cache-resident.
    let mut sys = solver_system();
    let hot = PArray::<f64>::alloc_nvm(&mut sys, 512);
    hot.fill(&mut sys, 1.0);
    let load_hit = ns_per_op(64 * 512, || {
        for _ in 0..64 {
            for i in 0..hot.len() {
                black_box(hot.get(&mut sys, i));
            }
        }
    });

    // Misses: one load per line over 1 MB, 64x the cache.
    let mut sys = solver_system();
    let cold = PArray::<f64>::alloc_nvm(&mut sys, 128 << 10);
    let load_miss = ns_per_op(cold.len() / 8, || {
        for i in (0..cold.len()).step_by(8) {
            black_box(cold.get(&mut sys, i));
        }
    });

    // Stores at pseudo-random lines of the same 1 MB array: each misses
    // and evicts a dirty line once the cache is full.
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let store_evict = ns_per_op(16 << 10, || {
        for _ in 0..16 << 10 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            cold.set(&mut sys, (x >> 33) as usize % cold.len(), 2.0);
        }
    });

    // clwb of dirty resident lines (the stores that dirty them untimed).
    let mut sys = solver_system();
    let lines = PArray::<f64>::alloc_nvm(&mut sys, 128 * 8);
    let clwb = median(
        &(0..REPS)
            .map(|_| {
                for i in (0..lines.len()).step_by(8) {
                    lines.set(&mut sys, i, 3.0);
                }
                let t = Instant::now();
                for i in (0..lines.len()).step_by(8) {
                    sys.clwb(lines.addr(i));
                }
                t.elapsed().as_secs_f64() * 1e9 / 128.0
            })
            .collect::<Vec<_>>(),
    );
    let sfence = ns_per_op(4096, || {
        for _ in 0..4096 {
            sys.sfence();
        }
    });
    [load_hit, load_miss, store_evict, clwb, sfence]
}

/// Crash-image paths on an MC-sized pool: a 16 MB array written once,
/// then 1024 scattered lines dirtied after the delta base.
fn image_probes() -> [f64; 3] {
    let cfg = SystemConfig::nvm_only(CACHE, MC_POOL);
    let mut sys = MemorySystem::new(cfg.clone());
    let grid = PArray::<f64>::alloc_nvm(&mut sys, 2 << 20);
    grid.fill(&mut sys, 1.0);
    let base = sys.delta_base();
    for k in 0..1024 {
        grid.set(&mut sys, (k * 2039 * 8) % grid.len(), 4.0);
    }
    let fork = us_each(|| (), |()| sys.crash_fork_delta(&base));
    let delta = sys.crash_fork_delta(&base);
    let materialize = us_each(|| (), |()| delta.materialize());
    let image = delta.materialize();
    let from_image = us_each(|| cfg.clone(), |cfg| MemorySystem::from_image(cfg, &image));
    [fork, materialize, from_image]
}

/// Fork and single-rank reboot of the 16-rank chaotic CG cluster after a
/// full crash-free run.
fn dist_probes() -> [f64; 2] {
    let cfg = CgConfig::campaign_for(RecoveryMode::AlgorithmDirected, FaultProfile::Chaotic);
    let mut cl = Cluster::new(cfg.cluster(), None);
    let mut kernel = DistCg::setup(&mut cl, cfg);
    black_box(reference_run(&mut cl, &mut kernel));
    let fork = us_each(|| (), |()| cl.fork());
    let reboot = us_each(
        || {
            let fork = cl.fork();
            let image = fork.system(5).crash_fork();
            (fork, image)
        },
        |(mut fork, image)| {
            fork.reboot_rank(5, &image);
            fork
        },
    );
    [fork, reboot]
}

/// Run every probe; values follow [`LAYOUT`].
pub fn run() -> Vec<(&'static str, f64)> {
    let values = access_probes()
        .into_iter()
        .chain(image_probes())
        .chain(dist_probes());
    LAYOUT.iter().map(|&(n, _)| n).zip(values).collect()
}
