//! The cost ledger: pricing of `cloud.<tier>.*` metric samples against the
//! Eq. 3–6 cost model.
//!
//! [`price_window`] turns two timestamped snapshots into one window that
//! holds, per tier, the request/byte deltas between them (taken as
//! [`tu_obs::MetricsSnapshot::since`] takes them) and their
//! $-decomposition:
//!
//! * **request_usd** — the per-request traffic terms of Eq. 4/6 (only
//!   object storage bills per Get/Put; the block tier's term is zero, which
//!   is the whole point of Eq. 3 vs. Eq. 4).
//! * **storage_usd** — the capacity terms of Eq. 3/5: the tier's
//!   `cloud.<tier>.used_bytes` gauge at window end, prorated from the
//!   GB-month price sheet over the window's duration.
//!
//! The ledger keeps no state of its own. The live plane's `/costs` prices
//! each consecutive pair of the [`tu_obs::Monitor`]'s sample ring
//! ([`tu_obs::Monitor::map_pairs`]) and renders them with [`to_json`];
//! tests price synthetic rings the same way.

use crate::pricing::{self, Tier};
use tu_obs::MetricsSnapshot;

/// Milliseconds in the 30-day billing month the GB-month prices assume.
const MONTH_MS: f64 = 30.0 * 24.0 * 3600.0 * 1000.0;

/// The two billable storage tiers, in ledger order.
const LEDGER_TIERS: [(&str, Tier); 2] = [("block", Tier::Block), ("object", Tier::Object)];

/// One tier's activity and cost inside one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowTier {
    /// Tier name: `"block"` or `"object"`.
    pub tier: &'static str,
    pub get_requests: u64,
    pub put_requests: u64,
    pub delete_requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Tier capacity at window end (the `cloud.<tier>.used_bytes` gauge).
    pub used_bytes: u64,
    /// Request-traffic cost of the window (Eq. 4/6 per-request terms).
    pub request_usd: f64,
    /// Capacity cost of the window (Eq. 3/5, prorated GB-month).
    pub storage_usd: f64,
}

impl WindowTier {
    /// Total $-cost of this tier in this window.
    pub fn total_usd(&self) -> f64 {
        self.request_usd + self.storage_usd
    }
}

/// One sampling window of the ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWindow {
    pub start_ms: i64,
    pub end_ms: i64,
    /// Per-tier decomposition, `[block, object]`.
    pub tiers: [WindowTier; 2],
}

impl CostWindow {
    /// Total $-cost of the window across both tiers.
    pub fn total_usd(&self) -> f64 {
        self.tiers.iter().map(|t| t.total_usd()).sum()
    }
}

/// Prices the window `[from.0, to.0)` between two timestamped samples of
/// the metric registry: counter deltas for traffic, `to`'s capacity
/// gauges for storage.
pub fn price_window(from: &(i64, MetricsSnapshot), to: &(i64, MetricsSnapshot)) -> CostWindow {
    let ((start_ms, first), (end_ms, last)) = (from, to);
    let dur_ms = (end_ms - start_ms).max(0);
    let tiers = LEDGER_TIERS.map(|(name, tier)| {
        // The delta as `MetricsSnapshot::since` takes it, for one counter.
        let delta = |suffix: &str| {
            let key = format!("cloud.{name}.{suffix}");
            let at = |snap: &MetricsSnapshot| snap.counter(&key).unwrap_or(0);
            at(last).saturating_sub(at(first))
        };
        let (gets, puts) = (delta("get_requests"), delta("put_requests"));
        let used = last
            .gauge(&format!("cloud.{name}.used_bytes"))
            .unwrap_or(0)
            .max(0) as u64;
        WindowTier {
            tier: name,
            get_requests: gets,
            put_requests: puts,
            delete_requests: delta("delete_requests"),
            bytes_read: delta("bytes_read"),
            bytes_written: delta("bytes_written"),
            used_bytes: used,
            request_usd: pricing::request_cost_usd(tier, gets, puts),
            storage_usd: pricing::monthly_cost_usd(tier, used) * dur_ms as f64 / MONTH_MS,
        }
    });
    CostWindow {
        start_ms: *start_ms,
        end_ms: *end_ms,
        tiers,
    }
}

/// Sums request/byte counts and $-costs across `windows`, per tier. Over
/// the windows of consecutive samples, the integer counts equal the
/// `cloud.<tier>.*` counter deltas between the first and last sample.
pub fn totals(windows: &[CostWindow]) -> [WindowTier; 2] {
    let mut out = LEDGER_TIERS.map(|(name, _)| WindowTier {
        tier: name,
        get_requests: 0,
        put_requests: 0,
        delete_requests: 0,
        bytes_read: 0,
        bytes_written: 0,
        used_bytes: 0,
        request_usd: 0.0,
        storage_usd: 0.0,
    });
    for w in windows {
        for (acc, t) in out.iter_mut().zip(w.tiers.iter()) {
            acc.get_requests += t.get_requests;
            acc.put_requests += t.put_requests;
            acc.delete_requests += t.delete_requests;
            acc.bytes_read += t.bytes_read;
            acc.bytes_written += t.bytes_written;
            acc.used_bytes = t.used_bytes; // level, not a delta: keep latest
            acc.request_usd += t.request_usd;
            acc.storage_usd += t.storage_usd;
        }
    }
    out
}

/// Stable JSON rendering: `{"windows":[...],"totals":{...}}`.
pub fn to_json(windows: &[CostWindow]) -> String {
    fn tier_json(t: &WindowTier) -> String {
        format!(
            "{{\"get_requests\":{},\"put_requests\":{},\"delete_requests\":{},\
             \"bytes_read\":{},\"bytes_written\":{},\"used_bytes\":{},\
             \"request_usd\":{:.9},\"storage_usd\":{:.9},\"total_usd\":{:.9}}}",
            t.get_requests,
            t.put_requests,
            t.delete_requests,
            t.bytes_read,
            t.bytes_written,
            t.used_bytes,
            t.request_usd,
            t.storage_usd,
            t.total_usd()
        )
    }
    let mut out = String::from("{\"windows\":[");
    for (i, w) in windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"start_ms\":{},\"end_ms\":{},\"total_usd\":{:.9},\"tiers\":{{",
            w.start_ms,
            w.end_ms,
            w.total_usd()
        ));
        for (j, t) in w.tiers.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", t.tier, tier_json(t)));
        }
        out.push_str("}}");
    }
    out.push_str("],\"totals\":{");
    for (j, t) in totals(windows).iter().enumerate() {
        if j > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", t.tier, tier_json(t)));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(counters: &[(&str, u64)], gauges: &[(&str, i64)]) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for &(k, v) in counters {
            s.counters.insert(k.to_string(), v);
        }
        for &(k, v) in gauges {
            s.gauges.insert(k.to_string(), v);
        }
        s
    }

    /// The windows of consecutive samples, as `/costs` prices the
    /// monitor's ring.
    fn price(ring: &[(i64, MetricsSnapshot)]) -> Vec<CostWindow> {
        ring.windows(2)
            .map(|p| price_window(&p[0], &p[1]))
            .collect()
    }

    #[test]
    fn one_sample_prices_no_window() {
        let ring = [(1_000, snap_with(&[("cloud.object.get_requests", 5)], &[]))];
        let windows = price(&ring);
        assert!(windows.is_empty());
        assert_eq!(totals(&windows)[1].get_requests, 0);
    }

    #[test]
    fn windows_hold_deltas_and_prices() {
        let ring = [
            (0, snap_with(&[("cloud.object.get_requests", 10)], &[])),
            (
                60_000,
                snap_with(
                    &[
                        ("cloud.object.get_requests", 1_010),
                        ("cloud.object.put_requests", 200),
                        ("cloud.block.get_requests", 7),
                    ],
                    &[("cloud.object.used_bytes", 1 << 30)],
                ),
            ),
        ];
        let w = price(&ring);
        assert_eq!(w.len(), 1);
        let obj = &w[0].tiers[1];
        assert_eq!(obj.get_requests, 1_000);
        assert_eq!(obj.put_requests, 200);
        let expect_req = pricing::request_cost_usd(Tier::Object, 1_000, 200);
        assert!((obj.request_usd - expect_req).abs() < 1e-12);
        // 1 GiB for one minute of a 30-day month.
        let expect_store =
            pricing::monthly_cost_usd(Tier::Object, 1 << 30) * 60_000.0 / super::MONTH_MS;
        assert!((obj.storage_usd - expect_store).abs() < 1e-12);
        // Block tier bills no per-request cost (Eq. 3).
        let blk = &w[0].tiers[0];
        assert_eq!(blk.get_requests, 7);
        assert_eq!(blk.request_usd, 0.0);
    }

    #[test]
    fn totals_sum_every_window_and_keep_the_last_level() {
        let ring: Vec<_> = (0..5u64)
            .map(|i| {
                let gauges = [("cloud.block.used_bytes", i as i64 * 100)];
                let snap = snap_with(&[("cloud.block.get_requests", i * 10)], &gauges);
                (i as i64 * 1_000, snap)
            })
            .collect();
        let w = price(&ring);
        assert_eq!(w.len(), 4);
        assert_eq!((w[0].start_ms, w[3].end_ms), (0, 4_000));
        let totals = totals(&w);
        assert_eq!(totals[0].get_requests, 40, "first-to-last delta");
        assert_eq!(totals[0].used_bytes, 400);
    }

    #[test]
    fn json_is_balanced_and_mentions_tiers() {
        let ring = [
            (0, MetricsSnapshot::default()),
            (1_000, MetricsSnapshot::default()),
        ];
        let json = to_json(&price(&ring));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "balanced braces in {json}");
        assert!(json.contains("\"windows\""));
        assert!(json.contains("\"totals\""));
        assert!(json.contains("\"block\""));
        assert!(json.contains("\"object\""));
    }
}
