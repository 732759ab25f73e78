//! The per-execution cost profile: what one instrumented run spent on
//! crash consistence.
//!
//! Every field is an exact `u64` drawn from deterministic simulator
//! counters, so profiles (and every report built from them) are
//! byte-for-byte reproducible across reruns and thread counts — the same
//! replay guarantee the campaign reports already carry.

use adcc_pmem::stats::LogStats;
use adcc_sim::image::NvmImage;
use serde::Serialize;

/// Counters and attributed time for one instrumented execution window
/// (typically: scenario setup → crash, or setup → completion).
///
/// Produced by [`crate::probe::Probe::finish`]; aggregated per scenario by
/// field-wise [`ExecutionProfile::merge`]. The derived metrics —
/// [`ExecutionProfile::flush_total`],
/// [`ExecutionProfile::consistency_window_ps`],
/// [`ExecutionProfile::dirty_bytes_at_crash`] — are the paper's §IV
/// measurements: flush volume per iteration, the consistency window each
/// algorithm naturally provides, and dirty-data residency at crash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ExecutionProfile {
    /// `CLFLUSH` instructions executed in the window.
    pub clflushes: u64,
    /// `CLFLUSHOPT` instructions executed in the window.
    pub clflushopts: u64,
    /// `CLWB` instructions executed in the window.
    pub clwbs: u64,
    /// `SFENCE` persist barriers executed in the window.
    pub sfences: u64,
    /// Batched epoch persist barriers executed in the window.
    pub epoch_barriers: u64,
    /// Lines read from the NVM medium.
    pub nvm_line_reads: u64,
    /// Lines written to the NVM medium.
    pub nvm_line_writes: u64,
    /// Element-level accesses issued by the program.
    pub accesses: u64,
    /// Simulated picoseconds attributed to cache flushing.
    pub flush_ps: u64,
    /// Simulated picoseconds attributed to persist barriers.
    pub fence_ps: u64,
    /// Simulated picoseconds attributed to undo/redo-log traffic.
    pub log_ps: u64,
    /// Simulated picoseconds attributed to checkpoint data copying.
    pub ckpt_copy_ps: u64,
    /// Total simulated picoseconds elapsed in the window.
    pub sim_time_ps: u64,
    /// Transaction-log entries appended (undo snapshots / redo stagings).
    pub log_appends: u64,
    /// Transaction-log payload bytes written.
    pub log_bytes: u64,
    /// Distinct dirty NVM-homed cache lines resident in volatile levels at
    /// the crash instant (zero for runs that completed without crashing).
    pub dirty_lines_at_crash: u64,
    /// Fabric messages sent in the window (multi-rank executions; zero for
    /// single-rank runs).
    pub net_msgs: u64,
    /// Fabric payload bytes sent in the window.
    pub net_bytes: u64,
    /// Simulated picoseconds attributed to the network fabric (transfers
    /// and synchronization waits).
    pub net_ps: u64,
    /// Fabric payload bytes spent getting the cluster back to its pre-crash
    /// frontier — the recovery-traffic cost the dist campaign compares
    /// between global restart and algorithm-directed local recovery. Filled
    /// by the dist trial driver, not by probes.
    pub recovery_net_bytes: u64,
    /// Transaction-log entries attributed to structure *metadata*
    /// (persistent-allocator free-list words, directory slots) — the
    /// `adcc_ds` allocator's bookkeeping traffic, separated from payload
    /// snapshots. Zero for kernel and dist executions.
    pub log_meta_appends: u64,
    /// Transaction-log payload bytes attributed to structure metadata.
    pub log_meta_bytes: u64,
    /// Data-structure operations durably applied when the window closed
    /// (the committed op-stream prefix a crash left behind; the full
    /// stream for completed runs). Filled by the ds trial driver.
    pub ds_ops_applied: u64,
    /// Data-structure operations re-executed against the recovered
    /// structure to reach the end of the op stream (zero for completed
    /// runs). Filled by the ds trial driver.
    pub ds_ops_replayed: u64,
    /// Fabric send attempts lost to injected faults in the window (each
    /// implies a retransmission; zero on reliable fabrics).
    pub net_dropped: u64,
    /// Fabric messages spuriously duplicated by injected faults.
    pub net_duplicated: u64,
    /// Fabric messages delivered out of their nominal order by injected
    /// faults (resequenced by the transport before the program saw them).
    pub net_reordered: u64,
    /// Retransmissions performed to mask dropped attempts.
    pub net_retries: u64,
    /// Payload bytes pulled from a remote checkpoint store to rebuild a
    /// rank whose local NVM image was unrecoverable (node loss). Filled by
    /// the dist trial driver, not by probes.
    pub remote_restore_bytes: u64,
}

impl ExecutionProfile {
    /// Total write-back instructions of any flavour
    /// (`CLFLUSH` + `CLFLUSHOPT` + `CLWB`).
    pub fn flush_total(&self) -> u64 {
        self.clflushes + self.clflushopts + self.clwbs
    }

    /// Persist points in the window: every `SFENCE`, including the one
    /// ending each batched epoch persist.
    pub fn persist_barriers(&self) -> u64 {
        self.sfences
    }

    /// Average gap between persist barriers — the *consistency window* the
    /// mechanism naturally provides (paper §IV-B: how far NVM state may
    /// trail program state). A window equal to the whole run means the
    /// mechanism never bounded the exposure.
    pub fn consistency_window_ps(&self) -> u64 {
        self.sim_time_ps / (self.sfences + 1)
    }

    /// Dirty residency at crash, in bytes.
    pub fn dirty_bytes_at_crash(&self) -> u64 {
        adcc_sim::line::lines_to_bytes(self.dirty_lines_at_crash)
    }

    /// Dirty-data rate: dirty bytes at crash per million bytes written to
    /// NVM in the window (parts-per-million keeps the metric an exact
    /// integer). Zero when the window wrote nothing.
    pub fn dirty_data_rate_ppm(&self) -> u64 {
        let written = adcc_sim::line::lines_to_bytes(self.nvm_line_writes);
        (self.dirty_bytes_at_crash() * 1_000_000)
            .checked_div(written)
            .unwrap_or(0)
    }

    /// Attach the dirty-residency metadata a crash image carries.
    pub fn with_image(mut self, image: &NvmImage) -> Self {
        self.dirty_lines_at_crash = image.dirty_lines_at_crash();
        self
    }

    /// Attach dirty-residency metadata directly (e.g. from a
    /// [`adcc_sim::image::DeltaImage`], whose metadata survives the
    /// copy-on-write path exactly like an `NvmImage`'s).
    pub fn with_dirty_lines(mut self, lines: u64) -> Self {
        self.dirty_lines_at_crash = lines;
        self
    }

    /// Fold a transaction pool's log counters into the profile.
    pub fn with_log(mut self, log: LogStats) -> Self {
        self.log_appends += log.appends;
        self.log_bytes += log.bytes;
        self.log_meta_appends += log.meta_appends;
        self.log_meta_bytes += log.meta_bytes;
        self
    }

    /// Attach the op-stream counters a ds trial measured: ops durably
    /// applied at the window's close, and ops re-executed during recovery.
    pub fn with_ds_ops(mut self, applied: u64, replayed: u64) -> Self {
        self.ds_ops_applied = applied;
        self.ds_ops_replayed = replayed;
        self
    }

    /// Attach the recovery-traffic bytes a multi-rank trial measured on
    /// its fabric between the crash and the return to the pre-crash
    /// frontier.
    pub fn with_recovery_net_bytes(mut self, bytes: u64) -> Self {
        self.recovery_net_bytes = bytes;
        self
    }

    /// Attach the remote-checkpoint bytes a node-loss recovery pulled to
    /// rebuild a rank with no usable local NVM image.
    pub fn with_remote_restore_bytes(mut self, bytes: u64) -> Self {
        self.remote_restore_bytes = bytes;
        self
    }

    /// Field-wise accumulation (per-scenario aggregation over trials).
    pub fn merge(&mut self, other: &ExecutionProfile) {
        self.clflushes += other.clflushes;
        self.clflushopts += other.clflushopts;
        self.clwbs += other.clwbs;
        self.sfences += other.sfences;
        self.epoch_barriers += other.epoch_barriers;
        self.nvm_line_reads += other.nvm_line_reads;
        self.nvm_line_writes += other.nvm_line_writes;
        self.accesses += other.accesses;
        self.flush_ps += other.flush_ps;
        self.fence_ps += other.fence_ps;
        self.log_ps += other.log_ps;
        self.ckpt_copy_ps += other.ckpt_copy_ps;
        self.sim_time_ps += other.sim_time_ps;
        self.log_appends += other.log_appends;
        self.log_bytes += other.log_bytes;
        self.dirty_lines_at_crash += other.dirty_lines_at_crash;
        self.net_msgs += other.net_msgs;
        self.net_bytes += other.net_bytes;
        self.net_ps += other.net_ps;
        self.recovery_net_bytes += other.recovery_net_bytes;
        self.log_meta_appends += other.log_meta_appends;
        self.log_meta_bytes += other.log_meta_bytes;
        self.ds_ops_applied += other.ds_ops_applied;
        self.ds_ops_replayed += other.ds_ops_replayed;
        self.net_dropped += other.net_dropped;
        self.net_duplicated += other.net_duplicated;
        self.net_reordered += other.net_reordered;
        self.net_retries += other.net_retries;
        self.remote_restore_bytes += other.remote_restore_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let p = ExecutionProfile {
            clflushes: 2,
            clflushopts: 3,
            clwbs: 5,
            sfences: 4,
            sim_time_ps: 1_000,
            nvm_line_writes: 10,
            dirty_lines_at_crash: 1,
            ..Default::default()
        };
        assert_eq!(p.flush_total(), 10);
        assert_eq!(p.persist_barriers(), 4);
        assert_eq!(p.consistency_window_ps(), 200);
        assert_eq!(p.dirty_bytes_at_crash(), 64);
        // 64 dirty bytes per 640 written = 100_000 ppm.
        assert_eq!(p.dirty_data_rate_ppm(), 100_000);
    }

    #[test]
    fn window_and_rate_handle_zero_denominators() {
        let p = ExecutionProfile {
            sim_time_ps: 500,
            ..Default::default()
        };
        assert_eq!(p.consistency_window_ps(), 500, "no barrier: whole run");
        assert_eq!(p.dirty_data_rate_ppm(), 0, "nothing written");
    }

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = ExecutionProfile {
            clflushes: 1,
            sfences: 2,
            log_bytes: 3,
            dirty_lines_at_crash: 4,
            net_msgs: 5,
            net_bytes: 6,
            net_ps: 7,
            recovery_net_bytes: 8,
            log_meta_appends: 9,
            log_meta_bytes: 10,
            ds_ops_applied: 11,
            ds_ops_replayed: 12,
            net_dropped: 13,
            net_duplicated: 14,
            net_reordered: 15,
            net_retries: 16,
            remote_restore_bytes: 17,
            ..Default::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.clflushes, 2);
        assert_eq!(a.sfences, 4);
        assert_eq!(a.log_bytes, 6);
        assert_eq!(a.dirty_lines_at_crash, 8);
        assert_eq!(a.net_msgs, 10);
        assert_eq!(a.net_bytes, 12);
        assert_eq!(a.net_ps, 14);
        assert_eq!(a.recovery_net_bytes, 16);
        assert_eq!(a.log_meta_appends, 18);
        assert_eq!(a.log_meta_bytes, 20);
        assert_eq!(a.ds_ops_applied, 22);
        assert_eq!(a.ds_ops_replayed, 24);
        assert_eq!(a.net_dropped, 26);
        assert_eq!(a.net_duplicated, 28);
        assert_eq!(a.net_reordered, 30);
        assert_eq!(a.net_retries, 32);
        assert_eq!(a.remote_restore_bytes, 34);
    }
}
