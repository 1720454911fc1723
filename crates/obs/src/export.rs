//! Text and JSON renderings of a [`MetricsSnapshot`], plus the labelled
//! Prometheus exposition of a request-lifecycle [`TelemetrySnapshot`].

use crate::counters::MetricsSnapshot;
use crate::telemetry::TelemetrySnapshot;
use std::fmt::Write as _;

/// Renders a snapshot as aligned human-readable text.
///
/// ```
/// use bnb_obs::{export, Counters, Observer};
/// use bnb_obs::event::ColumnEvent;
///
/// let counters = Counters::new();
/// counters.column_routed(ColumnEvent {
///     main_stage: 0,
///     internal_stage: 0,
///     width: 4,
///     exchanges: 1,
/// });
/// let text = export::render_text(&counters.snapshot());
/// assert!(text.contains("columns"));
/// assert!(text.contains("stage 0"));
/// ```
pub fn render_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut line = |name: &str, value: u64| {
        let _ = writeln!(out, "{name:<22} {value}");
    };
    line("columns", snapshot.columns);
    line("exchanges", snapshot.exchanges);
    line("arbiter_sweeps", snapshot.arbiter_sweeps);
    line("max_sweep_depth", snapshot.max_sweep_depth);
    line("conflicts", snapshot.conflicts);
    line("batches_submitted", snapshot.batches_submitted);
    line("batches_drained", snapshot.batches_drained);
    line("batch_errors", snapshot.batch_errors);
    line("scheduler_rounds", snapshot.scheduler_rounds);
    line("records_matched", snapshot.records_matched);
    line("max_round_backlog", snapshot.max_round_backlog);
    line("hardware_faults", snapshot.hardware_faults);
    line("fault_retries", snapshot.fault_retries);
    line("scrub_probes", snapshot.scrub_probes);
    line("shards_quarantined", snapshot.shards_quarantined);
    line("shards_restored", snapshot.shards_restored);
    if !snapshot.per_stage.is_empty() {
        // Column widths grow with the data so counters past the headers'
        // widths (10+ digits) stay aligned instead of shearing the table.
        let headers = ["per-stage", "columns", "exchanges", "sweeps", "conflicts"];
        let rows: Vec<[String; 5]> = snapshot
            .per_stage
            .iter()
            .map(|stage| {
                [
                    format!("stage {}", stage.main_stage),
                    stage.columns.to_string(),
                    stage.exchanges.to_string(),
                    stage.sweeps.to_string(),
                    stage.conflicts.to_string(),
                ]
            })
            .collect();
        let mut widths = [10usize; 5];
        for (i, h) in headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let _ = writeln!(
            out,
            "{:<w0$} {:>w1$} {:>w2$} {:>w3$} {:>w4$}",
            headers[0],
            headers[1],
            headers[2],
            headers[3],
            headers[4],
            w0 = widths[0],
            w1 = widths[1],
            w2 = widths[2],
            w3 = widths[3],
            w4 = widths[4],
        );
        for row in &rows {
            let _ = writeln!(
                out,
                "{:<w0$} {:>w1$} {:>w2$} {:>w3$} {:>w4$}",
                row[0],
                row[1],
                row[2],
                row[3],
                row[4],
                w0 = widths[0],
                w1 = widths[1],
                w2 = widths[2],
                w3 = widths[3],
                w4 = widths[4],
            );
        }
    }
    if snapshot.histogram.count() > 0 {
        let l = &snapshot.latency;
        let _ = writeln!(
            out,
            "latency_ns             min={} p50={} p99={} max={} mean={} (n={})",
            l.min_ns,
            l.p50_ns,
            l.p99_ns,
            l.max_ns,
            l.mean_ns,
            snapshot.histogram.count()
        );
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP`/`# TYPE` comments, `bnb_`-prefixed counter
/// families, per-stage series labelled `{stage="s"}`, and the batch
/// latency as a native histogram family with power-of-two `le` edges
/// matching [`crate::LatencyHistogram`]'s inclusive bucket bounds.
///
/// ```
/// use bnb_obs::{export, Counters, Observer};
/// use bnb_obs::event::ColumnEvent;
///
/// let counters = Counters::new();
/// counters.column_routed(ColumnEvent {
///     main_stage: 0,
///     internal_stage: 0,
///     width: 4,
///     exchanges: 1,
/// });
/// let text = export::render_prometheus(&counters.snapshot());
/// assert!(text.contains("bnb_columns_total 1"));
/// assert!(text.contains("bnb_stage_columns_total{stage=\"0\"} 1"));
/// ```
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut family = |name: &str, kind: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    };
    family(
        "bnb_columns_total",
        "counter",
        "Switching columns routed.",
        snapshot.columns,
    );
    family(
        "bnb_exchanges_total",
        "counter",
        "2x2 switches that exchanged their pair.",
        snapshot.exchanges,
    );
    family(
        "bnb_arbiter_sweeps_total",
        "counter",
        "Splitter arbiter-tree sweeps completed.",
        snapshot.arbiter_sweeps,
    );
    family(
        "bnb_max_sweep_depth",
        "gauge",
        "Deepest arbiter tree swept.",
        snapshot.max_sweep_depth,
    );
    family(
        "bnb_conflicts_total",
        "counter",
        "Splitter balance violations observed.",
        snapshot.conflicts,
    );
    family(
        "bnb_batches_submitted_total",
        "counter",
        "Batches submitted to the engine.",
        snapshot.batches_submitted,
    );
    family(
        "bnb_batches_drained_total",
        "counter",
        "Batches drained from the engine.",
        snapshot.batches_drained,
    );
    family(
        "bnb_batch_errors_total",
        "counter",
        "Batches that finished in error.",
        snapshot.batch_errors,
    );
    family(
        "bnb_scheduler_rounds_total",
        "counter",
        "Input-queued-switch scheduler rounds.",
        snapshot.scheduler_rounds,
    );
    family(
        "bnb_records_matched_total",
        "counter",
        "Records matched to outputs by the scheduler.",
        snapshot.records_matched,
    );
    family(
        "bnb_max_round_backlog",
        "gauge",
        "Deepest post-round scheduler backlog.",
        snapshot.max_round_backlog,
    );
    family(
        "bnb_hardware_faults_total",
        "counter",
        "Hardware faults detected by the output balance check.",
        snapshot.hardware_faults,
    );
    family(
        "bnb_fault_retries_total",
        "counter",
        "Batches retried on another fabric shard.",
        snapshot.fault_retries,
    );
    family(
        "bnb_scrub_probes_total",
        "counter",
        "Background scrubber probes of fabric shards.",
        snapshot.scrub_probes,
    );
    family(
        "bnb_shards_quarantined_total",
        "counter",
        "Fabric shards confirmed faulty and quarantined.",
        snapshot.shards_quarantined,
    );
    family(
        "bnb_shards_restored_total",
        "counter",
        "Quarantined fabric shards restored to service.",
        snapshot.shards_restored,
    );

    if !snapshot.per_stage.is_empty() {
        let mut stage_family = |name: &str, help: &str, pick: fn(&crate::StageMetrics) -> u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for stage in &snapshot.per_stage {
                let _ = writeln!(
                    out,
                    "{name}{{stage=\"{}\"}} {}",
                    stage.main_stage,
                    pick(stage)
                );
            }
        };
        stage_family(
            "bnb_stage_columns_total",
            "Columns routed, by main stage.",
            |s| s.columns,
        );
        stage_family(
            "bnb_stage_exchanges_total",
            "Pair exchanges, by main stage.",
            |s| s.exchanges,
        );
        stage_family(
            "bnb_stage_sweeps_total",
            "Arbiter sweeps, by main stage.",
            |s| s.sweeps,
        );
        stage_family(
            "bnb_stage_conflicts_total",
            "Balance violations, by main stage.",
            |s| s.conflicts,
        );
    }

    let hist = &snapshot.histogram;
    if hist.count() > 0 {
        let _ = writeln!(
            out,
            "# HELP bnb_batch_latency_ns Submit-to-drain batch latency."
        );
        let _ = writeln!(out, "# TYPE bnb_batch_latency_ns histogram");
        let mut cumulative = 0u64;
        let last = hist.buckets().iter().rposition(|&c| c > 0).unwrap_or(0);
        for (i, &c) in hist.buckets().iter().enumerate().take(last + 1) {
            cumulative += c;
            let edge = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
            let _ = writeln!(
                out,
                "bnb_batch_latency_ns_bucket{{le=\"{edge}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "bnb_batch_latency_ns_bucket{{le=\"+Inf\"}} {}",
            hist.count()
        );
        let _ = writeln!(out, "bnb_batch_latency_ns_sum {}", hist.sum_ns());
        let _ = writeln!(out, "bnb_batch_latency_ns_count {}", hist.count());
    }
    out
}

/// Renders a request-lifecycle [`TelemetrySnapshot`] in the Prometheus
/// text exposition format: per-stage latency series labelled
/// `{stage="decode"}` … `{stage="write"}`, the wire-to-wire aggregate the
/// stage sums reconcile with, and per-tenant sliding-window series
/// labelled `{tenant="n"}`. Every family carries `# HELP`/`# TYPE`.
/// Appended after [`render_prometheus`] on the `/metrics` endpoint.
pub fn render_prometheus_telemetry(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let mut family = |name: &str, kind: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    };
    family(
        "bnb_serve_uptime_ms",
        "gauge",
        "Milliseconds since the serving telemetry sink started.",
        snapshot.uptime_ms,
    );
    family(
        "bnb_serve_slow_requests_total",
        "counter",
        "Served requests that crossed the --slow-ms capture threshold.",
        snapshot.slow_captured,
    );

    let mut stage_family =
        |name: &str, help: &str, pick: fn(&crate::telemetry::StageSnapshot) -> u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for stage in &snapshot.stages {
                let _ = writeln!(out, "{name}{{stage=\"{}\"}} {}", stage.stage, pick(stage));
            }
            let _ = writeln!(out, "{name}{{stage=\"wire\"}} {}", pick(&snapshot.wire));
        };
    stage_family(
        "bnb_serve_stage_requests",
        "Requests measured per lifecycle stage (wire = end to end).",
        |s| s.count,
    );
    stage_family(
        "bnb_serve_stage_sum_ns",
        "Total nanoseconds spent per lifecycle stage; stage sums partition the wire sum.",
        |s| s.sum_ns,
    );
    stage_family(
        "bnb_serve_stage_p50_ns",
        "Median latency per lifecycle stage.",
        |s| s.p50_ns,
    );
    stage_family(
        "bnb_serve_stage_p95_ns",
        "95th-percentile latency per lifecycle stage.",
        |s| s.p95_ns,
    );
    stage_family(
        "bnb_serve_stage_p99_ns",
        "99th-percentile latency per lifecycle stage.",
        |s| s.p99_ns,
    );
    stage_family(
        "bnb_serve_stage_max_ns",
        "Slowest observation per lifecycle stage.",
        |s| s.max_ns,
    );

    if !snapshot.tenants.is_empty() {
        let mut tenant_family =
            |name: &str, help: &str, pick: fn(&crate::telemetry::TenantSnapshot) -> u64| {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                for tenant in &snapshot.tenants {
                    let _ = writeln!(
                        out,
                        "{name}{{tenant=\"{}\"}} {}",
                        tenant.tenant,
                        pick(tenant)
                    );
                }
            };
        tenant_family(
            "bnb_tenant_window_requests",
            "Requests served per tenant inside the sliding window.",
            |t| t.count,
        );
        tenant_family(
            "bnb_tenant_window_bytes",
            "Payload bytes served per tenant inside the sliding window.",
            |t| t.bytes,
        );
        tenant_family(
            "bnb_tenant_window_retries",
            "RETRY responses per tenant inside the sliding window.",
            |t| t.retries,
        );
        tenant_family(
            "bnb_tenant_window_errors",
            "ERROR responses per tenant inside the sliding window.",
            |t| t.errors,
        );
        tenant_family(
            "bnb_tenant_window_p50_ns",
            "Median wire-to-wire latency per tenant inside the sliding window.",
            |t| t.p50_ns,
        );
        tenant_family(
            "bnb_tenant_window_p95_ns",
            "95th-percentile wire-to-wire latency per tenant inside the sliding window.",
            |t| t.p95_ns,
        );
        tenant_family(
            "bnb_tenant_window_p99_ns",
            "99th-percentile wire-to-wire latency per tenant inside the sliding window.",
            |t| t.p99_ns,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ColumnEvent, DrainEvent, SweepEvent};
    use crate::{Counters, Observer};

    fn sample() -> MetricsSnapshot {
        let c = Counters::new();
        c.column_routed(ColumnEvent {
            main_stage: 0,
            internal_stage: 0,
            width: 8,
            exchanges: 3,
        });
        c.arbiter_sweep(SweepEvent {
            main_stage: 1,
            internal_stage: 0,
            first_line: 0,
            width: 4,
            depth: 2,
        });
        c.batch_drained(DrainEvent {
            seq: 0,
            records: 8,
            latency_ns: 512,
            ok: true,
        });
        c.snapshot()
    }

    #[test]
    fn text_lists_totals_stages_and_latency() {
        let text = render_text(&sample());
        assert!(text.contains("columns                1"));
        assert!(text.contains("arbiter_sweeps         1"));
        assert!(text.contains("hardware_faults        0"));
        assert!(text.contains("fault_retries          0"));
        assert!(text.contains("scrub_probes           0"));
        assert!(text.contains("shards_quarantined     0"));
        assert!(text.contains("shards_restored        0"));
        assert!(text.contains("stage 0"));
        assert!(text.contains("stage 1"));
        assert!(text.contains("latency_ns"));
        assert!(text.contains("(n=1)"));
    }

    #[test]
    fn text_omits_empty_sections() {
        let text = render_text(&Counters::new().snapshot());
        assert!(!text.contains("per-stage"));
        assert!(!text.contains("latency_ns"));
    }

    #[test]
    fn text_stage_table_stays_aligned_past_eight_digits() {
        let mut snap = sample();
        snap.per_stage[0].exchanges = 123_456_789_012; // 12 digits > the old fixed width
        let text = render_text(&snap);
        let lines: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.starts_with("per-stage"))
            .take_while(|l| l.starts_with("per-stage") || l.starts_with("stage "))
            .collect();
        assert!(lines.len() >= 3, "header + two stage rows in {text}");
        // Every column's right edge must line up across header and rows.
        let right_edges = |line: &str| -> Vec<usize> {
            let mut edges = Vec::new();
            let mut in_field = false;
            for (i, c) in line.char_indices() {
                if c == ' ' {
                    if in_field {
                        edges.push(i);
                        in_field = false;
                    }
                } else {
                    in_field = true;
                }
            }
            edges.push(line.len());
            edges
        };
        // Skip the header's first (left-aligned) column; compare the four
        // numeric columns' right edges.
        let header_edges = right_edges(lines[0]);
        for row in &lines[1..] {
            let row_edges = right_edges(row);
            assert_eq!(
                &row_edges[row_edges.len() - 4..],
                &header_edges[header_edges.len() - 4..],
                "misaligned row {row:?} in\n{text}"
            );
        }
    }

    #[test]
    fn prometheus_lists_counters_stages_and_histogram() {
        let text = render_prometheus(&sample());
        assert!(text.contains("# TYPE bnb_columns_total counter"));
        assert!(text.contains("bnb_columns_total 1"));
        assert!(text.contains("bnb_arbiter_sweeps_total 1"));
        assert!(text.contains("# TYPE bnb_scrub_probes_total counter"));
        assert!(text.contains("bnb_scrub_probes_total 0"));
        assert!(text.contains("bnb_shards_quarantined_total 0"));
        assert!(text.contains("bnb_shards_restored_total 0"));
        assert!(text.contains("bnb_stage_columns_total{stage=\"0\"} 1"));
        assert!(text.contains("bnb_stage_sweeps_total{stage=\"1\"} 1"));
        assert!(text.contains("# TYPE bnb_batch_latency_ns histogram"));
        // 512 ns lands in bucket 9 (edge 1023); the cumulative count and
        // +Inf totals must agree.
        assert!(text.contains("bnb_batch_latency_ns_bucket{le=\"1023\"} 1"));
        assert!(text.contains("bnb_batch_latency_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("bnb_batch_latency_ns_sum 512"));
        assert!(text.contains("bnb_batch_latency_ns_count 1"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_last_nonempty() {
        let c = Counters::new();
        for ns in [1, 2, 900, 1000] {
            c.batch_drained(DrainEvent {
                seq: 0,
                records: 1,
                latency_ns: ns,
                ok: true,
            });
        }
        let text = render_prometheus(&c.snapshot());
        assert!(text.contains("bnb_batch_latency_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("bnb_batch_latency_ns_bucket{le=\"3\"} 2"));
        assert!(text.contains("bnb_batch_latency_ns_bucket{le=\"1023\"} 4"));
        assert!(
            !text.contains("le=\"2047\""),
            "series stops at the last non-empty bucket"
        );
        assert!(text.contains("bnb_batch_latency_ns_bucket{le=\"+Inf\"} 4"));
    }

    #[test]
    fn prometheus_omits_empty_sections() {
        let text = render_prometheus(&Counters::new().snapshot());
        assert!(text.contains("bnb_columns_total 0"));
        assert!(!text.contains("bnb_stage_columns_total{"));
        assert!(!text.contains("bnb_batch_latency_ns"));
    }

    fn telemetry_sample() -> TelemetrySnapshot {
        use crate::telemetry::{Stage, Telemetry};
        let t = Telemetry::new();
        for &stage in &Stage::ALL {
            t.record_stage(stage, 200);
        }
        t.record_request(0, 128, 1_200);
        t.record_request(7, 64, 2_400);
        t.record_retry(7);
        t.record_error(0);
        t.set_slow_threshold(Some(std::time::Duration::from_nanos(1)));
        t.note_if_slow(2_400);
        t.snapshot()
    }

    #[test]
    fn telemetry_exposition_labels_stages_and_tenants() {
        let text = render_prometheus_telemetry(&telemetry_sample());
        assert!(text.contains("# TYPE bnb_serve_uptime_ms gauge"));
        assert!(text.contains("bnb_serve_slow_requests_total 1"));
        assert!(text.contains("bnb_serve_stage_requests{stage=\"decode\"} 1"));
        assert!(text.contains("bnb_serve_stage_sum_ns{stage=\"route\"} 200"));
        assert!(text.contains("bnb_serve_stage_requests{stage=\"wire\"} 2"));
        assert!(text.contains("bnb_serve_stage_sum_ns{stage=\"wire\"} 3600"));
        assert!(text.contains("bnb_tenant_window_requests{tenant=\"0\"} 1"));
        assert!(text.contains("bnb_tenant_window_bytes{tenant=\"7\"} 64"));
        assert!(text.contains("bnb_tenant_window_retries{tenant=\"7\"} 1"));
        assert!(text.contains("bnb_tenant_window_errors{tenant=\"0\"} 1"));
        assert!(text.contains("bnb_tenant_window_p99_ns{tenant=\"7\"}"));
    }

    #[test]
    fn telemetry_exposition_omits_tenants_when_empty() {
        let text = render_prometheus_telemetry(&crate::telemetry::Telemetry::new().snapshot());
        // Stage families always render (all zero), tenant families only
        // once a tenant exists.
        assert!(text.contains("bnb_serve_stage_requests{stage=\"decode\"} 0"));
        assert!(!text.contains("bnb_tenant_window_requests{"));
    }

    /// Every sample line's family must be introduced by `# HELP` and
    /// `# TYPE` comments before its first sample — the exposition is
    /// self-describing end to end, including the telemetry families.
    #[test]
    fn full_exposition_parses_and_is_self_describing() {
        use std::collections::HashSet;
        let mut text = render_prometheus(&sample());
        text.push_str(&render_prometheus_telemetry(&telemetry_sample()));

        let mut helped: HashSet<String> = HashSet::new();
        let mut typed: HashSet<String> = HashSet::new();
        let mut samples = 0usize;
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().expect("HELP names a family");
                assert!(helped.insert(name.to_string()), "duplicate HELP for {name}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("TYPE names a family");
                let kind = parts.next().expect("TYPE has a kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown TYPE kind {kind} for {name}"
                );
                assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
                continue;
            }
            assert!(!line.starts_with('#'), "unexpected comment: {line}");
            // Sample line: `name{labels} value` or `name value`.
            let name_end = line
                .find(['{', ' '])
                .unwrap_or_else(|| panic!("malformed sample line: {line}"));
            let mut name = &line[..name_end];
            // Histogram child series belong to their parent family.
            for suffix in ["_bucket", "_sum", "_count"] {
                if let Some(base) = name.strip_suffix(suffix) {
                    if typed.contains(base) {
                        name = base;
                        break;
                    }
                }
            }
            assert!(helped.contains(name), "sample {name} missing # HELP");
            assert!(typed.contains(name), "sample {name} missing # TYPE");
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "unparseable sample value in {line}"
            );
            samples += 1;
        }
        assert!(
            samples > 40,
            "expected a populated exposition, got {samples}"
        );
        assert_eq!(helped, typed, "HELP and TYPE must cover the same families");
    }
}
