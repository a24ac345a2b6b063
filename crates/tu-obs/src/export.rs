//! Exporters: Prometheus text exposition for [`MetricsSnapshot`]s and
//! chrome://tracing `trace_event` JSON for [`FlightEvent`]s.
//!
//! Both formats are emitted by the quickstart example (`--prom-out`,
//! `--trace-out`) so a run leaves behind machine-readable cost evidence
//! next to its printed numbers. [`parse_prometheus_text`] is the
//! matching format checker: it re-parses an exposition and validates the
//! histogram invariants (cumulative buckets, `+Inf` == `_count`), which CI
//! uses to prove the exporter round-trips.

use std::collections::BTreeMap;

use crate::flight::{FlightEvent, FlightPhase};
use crate::registry::bucket_upper_bound;
use crate::snapshot::{escape, MetricsSnapshot};

/// Maps a dotted metric name onto the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other invalid characters become
/// underscores, and a leading digit gets an underscore prefix.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): one `# TYPE` comment per metric, counters and gauges as single
/// samples, histograms as cumulative `le` buckets plus `_sum`/`_count`.
/// Output is sorted by metric name, so it is diffable across runs.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, h) in &snap.histograms {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let top = h.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut cumulative = 0u64;
        for (i, &c) in h.buckets.iter().enumerate().take(top + 1) {
            cumulative += c;
            out.push_str(&format!(
                "{n}_bucket{{le=\"{}\"}} {cumulative}\n",
                bucket_upper_bound(i)
            ));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{n}_sum {}\n", h.sum));
        out.push_str(&format!("{n}_count {}\n", h.count));
    }
    out
}

/// A histogram re-parsed from an exposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromHistogram {
    pub count: u64,
    pub sum: u64,
    /// `(le, cumulative count)` pairs in exposition order; the final pair
    /// is the `+Inf` bucket.
    pub buckets: Vec<(f64, u64)>,
}

/// A parsed Prometheus text exposition (the subset [`prometheus_text`]
/// emits: no labels other than `le`, integer sample values).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromParsed {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, PromHistogram>,
}

fn valid_prom_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

/// Parses and validates a text exposition, returning the metrics or a
/// description of the first violation. Checks performed:
///
/// * every sample's metric was declared by a `# TYPE` line (histogram
///   samples may use the `_bucket`/`_sum`/`_count` suffixes);
/// * metric names match the Prometheus charset and values parse;
/// * the only label used is `le`, on histogram buckets;
/// * histogram buckets are cumulative (non-decreasing), end in `+Inf`, and
///   the `+Inf` bucket equals `_count`.
pub fn parse_prometheus_text(text: &str) -> Result<PromParsed, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    // (line number, name, le label, value) for every sample.
    let mut samples: Vec<(usize, String, Option<f64>, f64)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or(format!("line {lineno}: TYPE without name"))?;
            let kind = it
                .next()
                .ok_or(format!("line {lineno}: TYPE without kind"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {lineno}: unknown metric type {kind:?}"));
            }
            if !valid_prom_name(name) {
                return Err(format!("line {lineno}: invalid metric name {name:?}"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for {name:?}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free-form comment
        }
        // Sample: `name value` or `name{le="bound"} value`.
        let (name_part, value_part) = match line.find(|c: char| c.is_whitespace()) {
            Some(split) => (&line[..split], line[split..].trim()),
            None => return Err(format!("line {lineno}: sample without value")),
        };
        let (name, le) = match name_part.find('{') {
            None => (name_part.to_string(), None),
            Some(open) => {
                let name = &name_part[..open];
                let labels = name_part[open..]
                    .strip_prefix('{')
                    .and_then(|s| s.strip_suffix('}'))
                    .ok_or(format!("line {lineno}: malformed label braces"))?;
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or(format!("line {lineno}: unsupported labels {labels:?}"))?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>()
                        .map_err(|_| format!("line {lineno}: bad le bound {le:?}"))?
                };
                (name.to_string(), Some(le))
            }
        };
        if !valid_prom_name(&name) {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
        let value = value_part
            .parse::<f64>()
            .map_err(|_| format!("line {lineno}: bad sample value {value_part:?}"))?;
        samples.push((lineno, name, le, value));
    }

    let mut parsed = PromParsed::default();
    for (lineno, name, le, value) in &samples {
        // Resolve which declared metric this sample belongs to.
        let base = if let Some(kind) = types.get(name) {
            (name.clone(), kind.clone())
        } else {
            let stripped = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"));
            match stripped.and_then(|b| types.get(b).map(|k| (b.to_string(), k.clone()))) {
                Some(pair) => pair,
                None => return Err(format!("line {lineno}: sample {name:?} has no TYPE")),
            }
        };
        let (base_name, kind) = base;
        match kind.as_str() {
            "counter" => {
                if *value < 0.0 || value.fract() != 0.0 {
                    return Err(format!("line {lineno}: counter {name:?} not a u64"));
                }
                parsed.counters.insert(base_name, *value as u64);
            }
            "gauge" => {
                parsed.gauges.insert(base_name, *value as i64);
            }
            "histogram" => {
                let h = parsed.histograms.entry(base_name.clone()).or_default();
                if name.ends_with("_bucket") {
                    let le =
                        le.ok_or(format!("line {lineno}: histogram bucket without le label"))?;
                    h.buckets.push((le, *value as u64));
                } else if name.ends_with("_sum") {
                    h.sum = *value as u64;
                } else if name.ends_with("_count") {
                    h.count = *value as u64;
                } else {
                    return Err(format!(
                        "line {lineno}: bare sample {name:?} for histogram type"
                    ));
                }
            }
            _ => unreachable!("validated above"),
        }
    }

    // Histogram invariants.
    for (name, h) in &parsed.histograms {
        if h.buckets.is_empty() {
            return Err(format!("histogram {name:?} has no buckets"));
        }
        for w in h.buckets.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!("histogram {name:?} le bounds not increasing"));
            }
            if w[0].1 > w[1].1 {
                return Err(format!("histogram {name:?} buckets not cumulative"));
            }
        }
        let (last_le, last_count) = *h.buckets.last().expect("non-empty");
        if !last_le.is_infinite() {
            return Err(format!("histogram {name:?} missing +Inf bucket"));
        }
        if last_count != h.count {
            return Err(format!(
                "histogram {name:?} +Inf bucket {last_count} != count {}",
                h.count
            ));
        }
    }
    Ok(parsed)
}

/// Renders flight-recorder events as a chrome://tracing `trace_event` JSON
/// array (load via chrome://tracing or <https://ui.perfetto.dev>). `ts` and
/// `dur` are microseconds since the recorder was enabled; the trace id and
/// operation label ride along in `args`.
pub fn chrome_trace_json(events: &[FlightEvent]) -> String {
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"tu\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            escape(&e.name),
            e.phase.chrome_ph(),
            e.ts_us,
            e.tid
        ));
        if e.phase == FlightPhase::Complete {
            out.push_str(&format!(",\"dur\":{}", e.dur_us));
        }
        if e.phase == FlightPhase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(&format!(
            ",\"args\":{{\"seq\":{},\"trace\":{},\"op\":\"{}\"}}}}",
            e.seq,
            e.trace_id,
            escape(&e.op)
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_snapshot() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("cloud.object.get_requests").add(42);
        r.counter("cloud.block.put_requests").add(7);
        r.gauge("lsm.memtable.bytes").set(-1234);
        for v in [100u64, 900, 900, 15_000] {
            r.histogram("span.lsm.flush.ns").record(v);
        }
        r.snapshot()
    }

    #[test]
    fn prometheus_name_sanitizes() {
        assert_eq!(
            prometheus_name("cloud.object.get_requests"),
            "cloud_object_get_requests"
        );
        assert_eq!(prometheus_name("span.lsm.flush.ns"), "span_lsm_flush_ns");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("weird name!"), "weird_name_");
    }

    #[test]
    fn prometheus_text_shape() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE cloud_object_get_requests counter\n"));
        assert!(text.contains("cloud_object_get_requests 42\n"));
        assert!(text.contains("# TYPE lsm_memtable_bytes gauge\n"));
        assert!(text.contains("lsm_memtable_bytes -1234\n"));
        assert!(text.contains("# TYPE span_lsm_flush_ns histogram\n"));
        assert!(text.contains("span_lsm_flush_ns_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("span_lsm_flush_ns_sum 16900\n"));
        assert!(text.contains("span_lsm_flush_ns_count 4\n"));
    }

    #[test]
    fn prometheus_round_trips() {
        let snap = sample_snapshot();
        let parsed = parse_prometheus_text(&prometheus_text(&snap)).expect("valid exposition");
        assert_eq!(parsed.counters.len(), snap.counters.len());
        for (name, v) in &snap.counters {
            assert_eq!(parsed.counters.get(&prometheus_name(name)), Some(v));
        }
        for (name, v) in &snap.gauges {
            assert_eq!(parsed.gauges.get(&prometheus_name(name)), Some(v));
        }
        for (name, h) in &snap.histograms {
            let p = parsed
                .histograms
                .get(&prometheus_name(name))
                .expect("histogram present");
            assert_eq!(p.count, h.count);
            assert_eq!(p.sum, h.sum);
        }
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let parsed = parse_prometheus_text(&prometheus_text(&MetricsSnapshot::default()))
            .expect("empty exposition is valid");
        assert_eq!(parsed, PromParsed::default());
    }

    #[test]
    fn parser_rejects_violations() {
        // Sample without a TYPE declaration.
        assert!(parse_prometheus_text("orphan 1\n").is_err());
        // Non-cumulative histogram buckets.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(parse_prometheus_text(bad)
            .unwrap_err()
            .contains("cumulative"));
        // +Inf bucket disagreeing with _count.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n";
        assert!(parse_prometheus_text(bad).unwrap_err().contains("count"));
        // Missing +Inf bucket.
        let bad = "# TYPE h histogram\nh_bucket{le=\"8\"} 5\nh_sum 9\nh_count 5\n";
        assert!(parse_prometheus_text(bad).unwrap_err().contains("+Inf"));
        // Garbage value.
        assert!(parse_prometheus_text("# TYPE c counter\nc banana\n").is_err());
        // Unsupported label.
        assert!(parse_prometheus_text("# TYPE c counter\nc{job=\"x\"} 1\n").is_err());
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        use crate::flight::{FlightEvent, FlightPhase};
        let events = vec![
            FlightEvent {
                seq: 0,
                name: "core.query".into(),
                phase: FlightPhase::Complete,
                ts_us: 10,
                dur_us: 250,
                trace_id: 3,
                op: "query".into(),
                tid: 1,
            },
            FlightEvent {
                seq: 1,
                name: "tick \"q\"".into(),
                phase: FlightPhase::Instant,
                ts_us: 300,
                dur_us: 0,
                trace_id: 0,
                op: String::new(),
                tid: 2,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":250"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"trace\":3"));
        // Hostile characters in names are escaped.
        assert!(json.contains("tick \\\"q\\\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(chrome_trace_json(&[]), "[]");
    }
}
