//! Tumbling-window metric shards keyed to the injected clock: every
//! observation lands in the shard for window `⌊t / width⌋`, shards are
//! stored in `BTreeMap`s, and range queries merge shards element-wise —
//! so windowed p50/p99 snapshots, rates, and peaks are pure functions of
//! the (time, value) observation sequence, never of wall time or
//! insertion interleaving. The zg-serve ops plane builds its windowed
//! latency/QPS/gauge series on these types.

use std::collections::BTreeMap;

use crate::hist::Hist;

/// Window index of time `t` under `width` (seconds): `⌊t / width⌋`,
/// clamped at zero for non-positive times.
pub fn window_of(t: f64, width: f64) -> u64 {
    debug_assert!(width > 0.0, "window width must be positive");
    if t <= 0.0 || width <= 0.0 {
        return 0;
    }
    (t / width) as u64
}

/// Tumbling-window shards of fixed-bucket histograms (one [`Hist`] per
/// non-empty window). All shards share one edge layout, so merging a
/// window range is element-wise count addition.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedHist {
    width: f64,
    edges: Vec<f64>,
    shards: BTreeMap<u64, Hist>,
}

impl WindowedHist {
    /// Empty shard sequence over windows of `width` seconds with the
    /// given bucket edges (see [`Hist::new`] for edge requirements).
    pub fn new(width: f64, edges: &[f64]) -> WindowedHist {
        assert!(width > 0.0, "window width must be positive");
        WindowedHist {
            width,
            edges: edges.to_vec(),
            shards: BTreeMap::new(),
        }
    }

    /// Window index of time `t`.
    pub fn window_of(&self, t: f64) -> u64 {
        window_of(t, self.width)
    }

    /// Record `v` into the shard for time `t`.
    pub fn record(&mut self, t: f64, v: f64) {
        let w = self.window_of(t);
        self.shards
            .entry(w)
            .or_insert_with(|| Hist::new(&self.edges))
            .record(v);
    }

    /// The shard for window `w`, if any observation landed there.
    pub fn shard(&self, w: u64) -> Option<&Hist> {
        self.shards.get(&w)
    }

    /// Non-empty windows in ascending order.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &Hist)> {
        self.shards.iter().map(|(w, h)| (*w, h))
    }

    /// Drop shards for windows strictly before `min` (bounded memory
    /// under long runs).
    pub fn retain_from(&mut self, min: u64) {
        self.shards = self.shards.split_off(&min);
    }
}

/// Tumbling-window counter: per-window sums of deltas.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowedCounter {
    width: f64,
    shards: BTreeMap<u64, f64>,
}

impl WindowedCounter {
    /// Empty counter over windows of `width` seconds.
    pub fn new(width: f64) -> WindowedCounter {
        assert!(width > 0.0, "window width must be positive");
        WindowedCounter {
            width,
            shards: BTreeMap::new(),
        }
    }

    /// Add `delta` to the shard for time `t`.
    pub fn add(&mut self, t: f64, delta: f64) {
        *self.shards.entry(window_of(t, self.width)).or_insert(0.0) += delta;
    }

    /// Value of window `w` (`0.0` when nothing landed there).
    pub fn get(&self, w: u64) -> f64 {
        self.shards.get(&w).copied().unwrap_or(0.0)
    }

    /// Sum over windows `from..=to`. Summed in ascending window order,
    /// so the result is deterministic.
    pub fn sum_range(&self, from: u64, to: u64) -> f64 {
        self.shards.range(from..=to).map(|(_, v)| v).sum()
    }

    /// Drop shards for windows strictly before `min`.
    pub fn retain_from(&mut self, min: u64) {
        self.shards = self.shards.split_off(&min);
    }
}

/// Tumbling-window gauge: per-window peak levels.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowedGauge {
    width: f64,
    shards: BTreeMap<u64, f64>,
}

impl WindowedGauge {
    /// Empty gauge over windows of `width` seconds.
    pub fn new(width: f64) -> WindowedGauge {
        assert!(width > 0.0, "window width must be positive");
        WindowedGauge {
            width,
            shards: BTreeMap::new(),
        }
    }

    /// Observe level `v` at time `t`: the window's peak becomes
    /// `max(peak, v)`.
    pub fn set(&mut self, t: f64, v: f64) {
        let peak = self.shards.entry(window_of(t, self.width)).or_insert(v);
        *peak = peak.max(v);
    }

    /// Peak value observed in window `w`, if any.
    pub fn max(&self, w: u64) -> Option<f64> {
        self.shards.get(&w).copied()
    }

    /// Drop shards for windows strictly before `min`.
    pub fn retain_from(&mut self, min: u64) {
        self.shards = self.shards.split_off(&min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_of_floors_and_clamps() {
        assert_eq!(window_of(0.0, 1.0), 0);
        assert_eq!(window_of(0.999, 1.0), 0);
        assert_eq!(window_of(1.0, 1.0), 1);
        assert_eq!(window_of(7.25, 0.5), 14);
        assert_eq!(window_of(-3.0, 1.0), 0);
    }

    #[test]
    fn hist_shards_split_by_window() {
        let mut wh = WindowedHist::new(1.0, &[1.0, 10.0]);
        wh.record(0.2, 0.5);
        wh.record(0.9, 5.0);
        wh.record(1.1, 5.0);
        wh.record(3.0, 50.0);
        assert_eq!(wh.shard(0).map(|h| h.n), Some(2));
        assert_eq!(wh.shard(1).map(|h| h.n), Some(1));
        assert_eq!(wh.shard(2), None);
    }

    #[test]
    fn hist_retain_drops_old_shards_only() {
        let mut wh = WindowedHist::new(1.0, &[1.0]);
        wh.record(0.5, 1.0);
        wh.record(5.5, 1.0);
        wh.retain_from(3);
        assert_eq!(wh.shard(0), None);
        assert_eq!(wh.shard(5).map(|h| h.n), Some(1));
    }

    #[test]
    fn counter_sums_per_window_and_range() {
        let mut c = WindowedCounter::new(0.5);
        c.add(0.1, 1.0);
        c.add(0.4, 2.0);
        c.add(0.6, 10.0);
        c.add(2.0, 100.0);
        assert_eq!(c.get(0), 3.0);
        assert_eq!(c.get(1), 10.0);
        assert_eq!(c.get(3), 0.0);
        assert_eq!(c.sum_range(0, 1), 13.0);
        assert_eq!(c.sum_range(0, 4), 113.0);
        c.retain_from(1);
        assert_eq!(c.get(0), 0.0);
        assert_eq!(c.sum_range(0, 4), 110.0);
    }

    #[test]
    fn gauge_tracks_peak_per_window() {
        let mut g = WindowedGauge::new(1.0);
        g.set(0.1, 5.0);
        g.set(0.2, 9.0);
        g.set(0.3, 2.0);
        assert_eq!(g.max(0), Some(9.0));
        assert_eq!(g.max(1), None);
        g.set(4.0, 1.0);
        g.retain_from(4);
        assert_eq!(g.max(0), None);
        assert_eq!(g.max(4), Some(1.0));
    }
}
