//! RowHammer disturbance engine.
//!
//! The tracker counts activations per row within the current refresh
//! window. Whenever a row's count crosses a multiple of the RowHammer
//! threshold (TRH), a disturbance fires: one bit flips in each
//! neighbouring victim row (distance 1 on both sides; optionally
//! distance 2 to model Half-Double-style attacks).
//!
//! Which bit flips is decided by a *flip plan*: the threat model of the
//! paper grants the attacker precise control over the flipped bit
//! (DeepHammer-style precise multi-bit techniques), so victims can be
//! pre-seeded with target bit positions. Rows without a plan flip a
//! deterministic pseudo-random bit derived from the victim address and
//! the disturbance ordinal, keeping simulations reproducible.

use std::collections::HashMap;

use crate::generation::DramGeneration;
use crate::geometry::{DramGeometry, RowAddr, RowId};

/// Configuration of the disturbance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowHammerConfig {
    /// Activations within one refresh window needed to disturb neighbours.
    pub trh: u64,
    /// Also disturb rows at distance 2 (Half-Double) with every
    /// `half_double_factor`-th threshold crossing. `0` disables it.
    pub half_double_factor: u64,
    /// Number of bits flipped in each victim per threshold crossing.
    pub flips_per_event: u32,
}

impl RowHammerConfig {
    /// Model for a given DRAM generation (distance-1 only, 1 flip/event).
    pub fn for_generation(generation: DramGeneration) -> Self {
        Self { trh: generation.trh(), half_double_factor: 0, flips_per_event: 1 }
    }

    /// Model with an explicit threshold.
    pub fn with_trh(trh: u64) -> Self {
        Self { trh, half_double_factor: 0, flips_per_event: 1 }
    }
}

impl Default for RowHammerConfig {
    fn default() -> Self {
        Self::for_generation(DramGeneration::Ddr4New)
    }
}

/// Where a disturbance flip landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlipTarget {
    /// Victim row.
    pub row: RowAddr,
    /// Bit index within the victim row.
    pub bit: usize,
}

/// A single disturbance event: the aggressor crossed TRH and corrupted
/// a victim row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DisturbanceEvent {
    /// The hammered row.
    pub aggressor: RowAddr,
    /// The victim and the flipped bit.
    pub target: FlipTarget,
    /// How many times this aggressor has crossed TRH in this window.
    pub crossing: u64,
}

/// Victim offsets of a threshold crossing, in event order: distance 1.
const NEIGHBOR_OFFSETS: &[i64] = &[-1, 1];

/// Victim offsets of a Half-Double crossing: distance 1, then 2.
const HALF_DOUBLE_OFFSETS: &[i64] = &[-1, 1, -2, 2];

/// Per-row activation tracking and disturbance generation.
///
/// The hot-path state (`counts`, `victim_flips`) is kept in dense
/// arrays indexed by the device-global [`RowId`] — `RowId` is
/// bank-major, so each array is the concatenation of per-bank row
/// arrays. The arrays are sized lazily from the geometry on the first
/// activation, which keeps the constructor geometry-free. Only the
/// attacker flip *plans* stay in a map: they are sparse by nature (a
/// handful of targeted victim rows).
#[derive(Debug, Clone)]
pub struct HammerTracker {
    config: RowHammerConfig,
    /// Activations per row in the current refresh window, dense over
    /// `RowId`.
    counts: Vec<u64>,
    /// Attacker-chosen flip plans per victim row: bit positions consumed
    /// in order, then cycled.
    plans: HashMap<RowId, Vec<usize>>,
    /// How many flips each victim has absorbed (indexes into the plan),
    /// dense over `RowId`.
    victim_flips: Vec<u64>,
    total_events: u64,
}

impl HammerTracker {
    /// Creates a tracker with the given disturbance model.
    ///
    /// # Panics
    ///
    /// Panics if `config.trh == 0`: a zero threshold would silently
    /// disable disturbance generation (`is_multiple_of(0)` is never
    /// true), masking a misconfigured experiment as a hammer-immune
    /// device.
    pub fn new(config: RowHammerConfig) -> Self {
        assert!(config.trh > 0, "RowHammerConfig::trh must be nonzero");
        Self {
            config,
            counts: Vec::new(),
            plans: HashMap::new(),
            victim_flips: Vec::new(),
            total_events: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &RowHammerConfig {
        &self.config
    }

    /// Activation count of a row in the current window.
    pub fn count(&self, id: RowId) -> u64 {
        self.counts.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Total disturbance events since construction (not reset by
    /// refresh windows).
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Registers an attacker flip plan: the n-th disturbance of `victim`
    /// flips `bits[n % bits.len()]`. An empty plan removes the entry.
    pub fn set_flip_plan(&mut self, victim: RowId, bits: Vec<usize>) {
        if bits.is_empty() {
            self.plans.remove(&victim);
        } else {
            self.plans.insert(victim, bits);
        }
    }

    /// Grows the dense arrays to cover `geometry` (first use, idempotent
    /// afterwards). New rows start at zero, matching the old map's
    /// absent-key semantics.
    fn ensure_capacity(&mut self, geometry: &DramGeometry) {
        let rows = geometry.total_rows() as usize;
        if self.counts.len() < rows {
            self.counts.resize(rows, 0);
            self.victim_flips.resize(rows, 0);
        }
    }

    /// Records one activation of `row` and returns any disturbance
    /// events it triggers on neighbouring victims.
    pub fn on_activate(&mut self, row: RowAddr, geometry: &DramGeometry) -> Vec<DisturbanceEvent> {
        self.ensure_capacity(geometry);
        let id = geometry.row_id(row);
        let count = &mut self.counts[id.0 as usize];
        *count += 1;
        if !(*count).is_multiple_of(self.config.trh) {
            return Vec::new();
        }
        let crossing = *count / self.config.trh;
        let mut events = Vec::new();
        let offsets = if self.config.half_double_factor > 0
            && crossing.is_multiple_of(self.config.half_double_factor)
        {
            HALF_DOUBLE_OFFSETS
        } else {
            NEIGHBOR_OFFSETS
        };
        for &offset in offsets {
            let Some(victim) = row.neighbor(offset, geometry) else { continue };
            for _ in 0..self.config.flips_per_event {
                let bit = self.next_flip_bit(victim, geometry);
                self.total_events += 1;
                events.push(DisturbanceEvent {
                    aggressor: row,
                    target: FlipTarget { row: victim, bit },
                    crossing,
                });
            }
        }
        events
    }

    /// Picks the bit to flip in `victim`: the attacker's plan if one is
    /// registered, otherwise a deterministic pseudo-random bit.
    fn next_flip_bit(&mut self, victim: RowAddr, geometry: &DramGeometry) -> usize {
        self.ensure_capacity(geometry);
        let vid = geometry.row_id(victim);
        let ordinal = &mut self.victim_flips[vid.0 as usize];
        let n = *ordinal;
        *ordinal += 1;
        if let Some(plan) = self.plans.get(&vid) {
            return plan[(n as usize) % plan.len()];
        }
        // splitmix64 over (row id, ordinal) — deterministic, well mixed.
        let mut x = vid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(n);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x as usize) % (geometry.row_bytes * 8)
    }

    /// Resets all activation counters (a refresh window elapsed).
    /// Flip plans and victim ordinals survive — refresh restores charge,
    /// not the attacker's targeting information.
    pub fn reset_window(&mut self) {
        self.counts.fill(0);
    }

    /// Resets the counter of a single row (targeted refresh / TRR).
    pub fn reset_row(&mut self, id: RowId) {
        if let Some(count) = self.counts.get_mut(id.0 as usize) {
            *count = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (HammerTracker, DramGeometry) {
        let geometry = DramGeometry::tiny();
        let tracker = HammerTracker::new(RowHammerConfig::with_trh(10));
        (tracker, geometry)
    }

    #[test]
    fn no_event_below_threshold() {
        let (mut tracker, geom) = setup();
        let row = RowAddr::new(0, 0, 10);
        for _ in 0..9 {
            assert!(tracker.on_activate(row, &geom).is_empty());
        }
        assert_eq!(tracker.count(geom.row_id(row)), 9);
    }

    #[test]
    fn event_fires_at_threshold_on_both_neighbors() {
        let (mut tracker, geom) = setup();
        let row = RowAddr::new(0, 0, 10);
        for _ in 0..9 {
            tracker.on_activate(row, &geom);
        }
        let events = tracker.on_activate(row, &geom);
        assert_eq!(events.len(), 2);
        let victims: Vec<u32> = events.iter().map(|e| e.target.row.row).collect();
        assert!(victims.contains(&9) && victims.contains(&11));
        assert!(events.iter().all(|e| e.crossing == 1));
    }

    #[test]
    fn edge_row_has_single_victim() {
        let (mut tracker, geom) = setup();
        let row = RowAddr::new(0, 0, 0);
        for _ in 0..9 {
            tracker.on_activate(row, &geom);
        }
        let events = tracker.on_activate(row, &geom);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].target.row.row, 1);
    }

    #[test]
    fn repeated_crossings_fire_repeatedly() {
        let (mut tracker, geom) = setup();
        let row = RowAddr::new(0, 0, 10);
        let mut total = 0;
        for _ in 0..35 {
            total += tracker.on_activate(row, &geom).len();
        }
        assert_eq!(total, 6); // 3 crossings x 2 victims
        assert_eq!(tracker.total_events(), 6);
    }

    #[test]
    fn flip_plan_controls_bits() {
        let (mut tracker, geom) = setup();
        let row = RowAddr::new(0, 0, 10);
        let victim = RowAddr::new(0, 0, 11);
        tracker.set_flip_plan(geom.row_id(victim), vec![42, 77]);
        let mut bits = Vec::new();
        for _ in 0..30 {
            for event in tracker.on_activate(row, &geom) {
                if event.target.row == victim {
                    bits.push(event.target.bit);
                }
            }
        }
        assert_eq!(bits, vec![42, 77, 42]);
    }

    #[test]
    fn window_reset_clears_counts_but_not_plans() {
        let (mut tracker, geom) = setup();
        let row = RowAddr::new(0, 0, 10);
        let victim_id = geom.row_id(RowAddr::new(0, 0, 11));
        tracker.set_flip_plan(victim_id, vec![5]);
        for _ in 0..9 {
            tracker.on_activate(row, &geom);
        }
        tracker.reset_window();
        assert_eq!(tracker.count(geom.row_id(row)), 0);
        // Still 10 more activations needed after reset.
        for _ in 0..9 {
            assert!(tracker.on_activate(row, &geom).is_empty());
        }
        let events = tracker.on_activate(row, &geom);
        assert_eq!(events.iter().filter(|e| e.target.bit == 5).count(), 1);
    }

    #[test]
    fn targeted_row_refresh_resets_single_row() {
        let (mut tracker, geom) = setup();
        let a = RowAddr::new(0, 0, 10);
        let b = RowAddr::new(0, 0, 20);
        for _ in 0..5 {
            tracker.on_activate(a, &geom);
            tracker.on_activate(b, &geom);
        }
        tracker.reset_row(geom.row_id(a));
        assert_eq!(tracker.count(geom.row_id(a)), 0);
        assert_eq!(tracker.count(geom.row_id(b)), 5);
    }

    #[test]
    fn half_double_reaches_distance_two() {
        let geom = DramGeometry::tiny();
        let mut tracker = HammerTracker::new(RowHammerConfig {
            trh: 10,
            half_double_factor: 1,
            flips_per_event: 1,
        });
        let row = RowAddr::new(0, 0, 10);
        for _ in 0..9 {
            tracker.on_activate(row, &geom);
        }
        let events = tracker.on_activate(row, &geom);
        let victims: std::collections::HashSet<u32> =
            events.iter().map(|e| e.target.row.row).collect();
        assert_eq!(victims, [8, 9, 11, 12].into_iter().collect());
    }

    #[test]
    fn default_bit_choice_is_deterministic() {
        let geom = DramGeometry::tiny();
        let run = || {
            let mut tracker = HammerTracker::new(RowHammerConfig::with_trh(2));
            let row = RowAddr::new(0, 0, 10);
            let mut bits = Vec::new();
            for _ in 0..10 {
                for e in tracker.on_activate(row, &geom) {
                    bits.push((e.target.row.row, e.target.bit));
                }
            }
            bits
        };
        assert_eq!(run(), run());
    }
}
