//! Crash-image memory accounting for the copy-on-write campaign path.
//!
//! The delta engine stores one shared base per forward execution — the
//! NVM pool's written prefix, not the whole pool — plus O(dirty lines)
//! per crash state, and materializes one crash image at a time (the base
//! prefix grown to its last delta line) while classifying. This module
//! counts what is actually held, next to the full-copy equivalent: the
//! pool-sized image per state that the legacy engine once copied. Reports
//! and benches show bytes-per-crash-state and that reference side by
//! side. Everything here is a **host fact**
//! (how much memory the harness itself used), so it lives in the report's
//! non-canonical `host` section — but all counters derive from the
//! deterministic simulation, so they are identical across reruns and
//! thread counts.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

/// Shared (thread-safe) accumulator the engine hands to every batched
/// execution. Sums and maxima are order-independent, so the totals are
/// deterministic regardless of worker interleaving.
#[derive(Debug, Default)]
pub struct ImageMemory {
    executions: AtomicU64,
    images: AtomicU64,
    base_bytes: AtomicU64,
    delta_bytes: AtomicU64,
    full_copy_bytes: AtomicU64,
    peak_live_bytes: AtomicU64,
}

impl ImageMemory {
    /// Record one batched forward execution: the stored bytes of the
    /// shared base snapshots it took (`base_bytes`), the summed delta
    /// payload of the `images` crash states it harvested, the pool size a
    /// full-copy image of this scenario would cost per state, and the
    /// stored bytes of the largest image it materializes (`image_bytes`).
    pub fn record_execution(
        &self,
        base_bytes: u64,
        delta_bytes: u64,
        images: u64,
        pool_bytes: u64,
        image_bytes: u64,
    ) {
        self.executions.fetch_add(1, Ordering::Relaxed);
        self.images.fetch_add(images, Ordering::Relaxed);
        self.base_bytes.fetch_add(base_bytes, Ordering::Relaxed);
        self.delta_bytes.fetch_add(delta_bytes, Ordering::Relaxed);
        self.full_copy_bytes
            .fetch_add(images.saturating_mul(pool_bytes), Ordering::Relaxed);
        // Live set of one execution: the shared base, every delta of the
        // batch, and the single transient materialization classification
        // holds at a time (at most the largest one).
        let live = base_bytes + delta_bytes + image_bytes;
        self.peak_live_bytes.fetch_max(live, Ordering::Relaxed);
    }

    /// Snapshot the totals.
    pub fn summary(&self) -> ImageMemorySummary {
        ImageMemorySummary {
            executions: self.executions.load(Ordering::Relaxed),
            images: self.images.load(Ordering::Relaxed),
            base_bytes: self.base_bytes.load(Ordering::Relaxed),
            delta_bytes: self.delta_bytes.load(Ordering::Relaxed),
            full_copy_bytes: self.full_copy_bytes.load(Ordering::Relaxed),
            peak_live_bytes: self.peak_live_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Aggregated crash-image memory facts for one campaign run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ImageMemorySummary {
    /// Batched forward executions run.
    pub executions: u64,
    /// Crash states that produced an image (completed-clean states store
    /// nothing).
    pub images: u64,
    /// Stored bytes of the shared base snapshots (one per execution; each
    /// holds the NVM pool's written prefix).
    pub base_bytes: u64,
    /// Bytes of per-state delta payload.
    pub delta_bytes: u64,
    /// What a full-copy path would allocate for the same states (images ×
    /// pool size): the legacy reference.
    pub full_copy_bytes: u64,
    /// Largest single-execution live set (stored base + deltas + the
    /// largest materialized image).
    pub peak_live_bytes: u64,
}

impl ImageMemorySummary {
    /// Average crash-image bytes per stored state, shared bases amortized
    /// in. Zero when no images were stored.
    pub fn bytes_per_crash_state(&self) -> u64 {
        (self.base_bytes + self.delta_bytes)
            .checked_div(self.images)
            .unwrap_or(0)
    }

    /// Average bytes per state a full-copy path would pay.
    pub fn full_copy_bytes_per_state(&self) -> u64 {
        self.full_copy_bytes.checked_div(self.images).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let m = ImageMemory::default();
        m.record_execution(300, 200, 4, 1000, 500);
        m.record_execution(2000, 100, 1, 2000, 2000);
        let s = m.summary();
        assert_eq!(s.executions, 2);
        assert_eq!(s.images, 5);
        assert_eq!(s.base_bytes, 2300);
        assert_eq!(s.delta_bytes, 300);
        assert_eq!(s.full_copy_bytes, 4 * 1000 + 2000);
        assert_eq!(s.peak_live_bytes, 2000 + 100 + 2000);
        assert_eq!(s.bytes_per_crash_state(), 2600 / 5);
        assert_eq!(s.full_copy_bytes_per_state(), 6000 / 5);
    }

    #[test]
    fn empty_summary_divides_safely() {
        let s = ImageMemorySummary::default();
        assert_eq!(s.bytes_per_crash_state(), 0);
        assert_eq!(s.full_copy_bytes_per_state(), 0);
    }
}
