//! `dlk top --spool DIR [--refresh-ms M] [--once]` — live terminal
//! view of a serve daemon, rendered from its heartbeat file alone.
//!
//! `DIR` is the daemon's `--out` directory; the only input is the
//! `metrics.json` the daemon atomically rewrites every scan, so `top`
//! works on a live daemon, a dead one (and says so), or a copied-out
//! heartbeat. Each frame shows every exported time series as a
//! sparkline with its latest value and rate, the histograms' current
//! `p50/p95/p99`, and a status line that tells a *stalled* daemon (the
//! heartbeat stopped aging forward) from an *idle* one (fresh
//! heartbeats, nothing executing). Rendering is a pure function of the
//! parsed heartbeat plus "now", golden-pinned in the integration
//! tests.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use dlk_sim::obs::json::{self, Value};
use dlk_sim::obs::series::parse_series_object;
use dlk_sim::obs::TimeSeries;

use crate::args;
use crate::spool::{unix_micros, METRICS_FILE};
use crate::CliError;

const USAGE: &str = "dlk top --spool DIR [--refresh-ms M] [--once]";

/// A heartbeat older than this means the daemon is stalled or dead —
/// even an idle daemon rewrites it every poll interval.
const STALL_AFTER_SECS: u64 = 10;
/// Sparkline width: the newest samples of each series.
const SPARK_WIDTH: usize = 24;
const SPARK_RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Runs the subcommand.
///
/// # Errors
///
/// Usage errors, plus [`CliError::Failed`] when the heartbeat is
/// missing or unparseable.
pub fn run(mut args: Vec<String>) -> Result<(), CliError> {
    let spool = args::take_value(&mut args, "--spool")?;
    let refresh_ms = args::take_value(&mut args, "--refresh-ms")?;
    let once = args::take_switch(&mut args, "--once");
    let rest = args::positionals(args, USAGE)?;
    if !rest.is_empty() {
        return Err(CliError::Usage(format!("unexpected operand '{}'\n  {USAGE}", rest[0])));
    }
    let Some(spool) = spool else {
        return Err(CliError::Usage(format!("--spool is required\n  {USAGE}")));
    };
    let refresh = match refresh_ms {
        Some(raw) => Duration::from_millis(args::parse_count("--refresh-ms", &raw)?),
        None => Duration::from_millis(1000),
    };
    let path = PathBuf::from(spool).join(METRICS_FILE);

    #[allow(clippy::disallowed_methods, reason = "the live view sleeps between refreshes")]
    loop {
        let value = json::parse_file(&path).map_err(CliError::Failed)?;
        let frame = render_frame(&value, unix_micros());
        if once {
            print!("{frame}");
            return Ok(());
        }
        // Clear + home, then the frame — a flicker-free enough refresh
        // for a daemon heartbeat without pulling in a TUI layer.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(refresh);
    }
}

/// Renders one frame from a parsed heartbeat document and the current
/// Unix time in microseconds. Pure — the golden test pins its output.
pub fn render_frame(doc: &Value, now_us: u64) -> String {
    let name = doc.get("name").and_then(Value::as_str).unwrap_or("?");
    let hb_secs =
        doc.get("build").and_then(|b| b.get("unix_time_secs")).and_then(Value::as_u64).unwrap_or(0);
    let age_secs = (now_us / 1_000_000).saturating_sub(hb_secs);
    let scan_seq = gauge(doc, "serve.scan_seq").unwrap_or(0.0);
    let write_us = gauge(doc, "serve.heartbeat_write_us").unwrap_or(0.0);

    let series: Vec<(String, TimeSeries)> = doc
        .section("series")
        .iter()
        .filter_map(parse_series_object)
        .map(|(name, samples)| (name, TimeSeries::from_samples(samples.len().max(1), samples)))
        .collect();

    let status = status(&series, age_secs);
    let mut out = format!(
        "dlk top — {name}   scan #{scan_seq}   heartbeat {age_secs}s ago (write {write_us}us)   \
         status: {status}\n",
    );

    let width = series
        .iter()
        .map(|(name, _)| name.len())
        .chain(
            doc.section("histograms")
                .iter()
                .filter_map(|h| h.get("name").and_then(Value::as_str).map(str::len)),
        )
        .chain([24])
        .max()
        .unwrap_or(24);

    if !series.is_empty() {
        out.push_str(&format!("\n{:<width$} {:>12} {:>10}  history\n", "series", "last", "rate/s"));
        for (name, timeseries) in &series {
            let last = timeseries.last().map_or(0.0, |s| s.value);
            let rate =
                timeseries.rate(u64::MAX).map_or_else(|| "-".to_owned(), |r| format!("{r:+.2}"));
            out.push_str(&format!(
                "{name:<width$} {:>12} {rate:>10}  {}\n",
                fmt_value(last),
                sparkline(timeseries),
            ));
        }
    }

    let histograms = doc.section("histograms");
    if !histograms.is_empty() {
        out.push_str(&format!(
            "\n{:<width$} {:>8} {:>10} {:>8} {:>8} {:>8}\n",
            "histograms", "count", "mean", "p50", "p95", "p99"
        ));
        for hist in histograms {
            let field = |key: &str| hist.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            out.push_str(&format!(
                "{:<width$} {:>8} {:>10} {:>8} {:>8} {:>8}\n",
                hist.get("name").and_then(Value::as_str).unwrap_or("?"),
                fmt_value(field("count")),
                fmt_value(field("mean")),
                fmt_value(field("p50")),
                fmt_value(field("p95")),
                fmt_value(field("p99")),
            ));
        }
    }
    out
}

/// Stalled beats everything: a daemon that stopped writing heartbeats
/// tells us nothing current, whatever its last frame said. Otherwise
/// "active" when work moved since the previous sample (the executed
/// counter still climbing, or jobs sitting in the queue), else "idle".
fn status(series: &[(String, TimeSeries)], age_secs: u64) -> &'static str {
    if age_secs > STALL_AFTER_SECS {
        return "STALLED (heartbeat stopped)";
    }
    let climbing = series
        .iter()
        .any(|(name, ts)| name == "serve.executed" && ts.rate(u64::MAX).is_some_and(|r| r > 0.0));
    let queued = series
        .iter()
        .any(|(name, ts)| name == "sweep.queue_depth" && ts.last().is_some_and(|s| s.value > 0.0));
    if climbing || queued {
        "active"
    } else {
        "idle"
    }
}

/// The newest [`SPARK_WIDTH`] samples as a unicode sparkline, scaled to
/// the window's own min/max (a flat series renders mid-ramp).
fn sparkline(series: &TimeSeries) -> String {
    let values: Vec<f64> = series.iter().map(|s| s.value).collect();
    let tail = &values[values.len().saturating_sub(SPARK_WIDTH)..];
    let (min, max) =
        tail.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    tail.iter()
        .map(|&v| {
            if max > min {
                let at = ((v - min) / (max - min) * 7.0).round() as usize;
                SPARK_RAMP[at.min(7)]
            } else {
                SPARK_RAMP[3]
            }
        })
        .collect()
}

/// A `gauges` section member's value by name.
fn gauge(doc: &Value, name: &str) -> Option<f64> {
    doc.section("gauges")
        .iter()
        .find(|g| g.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|g| g.get("value"))
        .and_then(Value::as_f64)
}

/// Integers render bare, everything else with three decimals — same
/// policy as the shared JSON number writer, kept column-friendly.
fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        v.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat(scan_seq: i64, executed: &[(u64, f64)], depth: f64) -> Value {
        use dlk_sim::obs::{Registry, Sampler};
        let registry = Registry::new();
        registry.gauge("serve.scan_seq").set(scan_seq);
        registry.gauge("serve.heartbeat_write_us").set(250);
        registry.gauge("sweep.queue_depth").set(depth as i64);
        registry.histogram("sweep.job_wall_us").record(100);
        let mut doc = registry.to_document("dlk-serve");
        doc.set_build(json::BuildInfo::pinned());
        let mut sampler = Sampler::new(&Registry::new(), executed.len().max(1));
        sampler.seed(
            "serve.executed",
            executed.iter().map(|&(t_us, value)| dlk_sim::obs::Sample { t_us, value }),
        );
        sampler.seed(
            "sweep.queue_depth",
            executed.iter().map(|&(t_us, _)| dlk_sim::obs::Sample { t_us, value: depth }),
        );
        sampler.export_into(&mut doc);
        json::parse(&doc.to_json()).expect("test heartbeat parses")
    }

    #[test]
    fn fresh_heartbeat_with_climbing_executed_is_active() {
        let doc = heartbeat(7, &[(1_000_000, 2.0), (2_000_000, 5.0)], 0.0);
        // Pinned build has unix_time_secs 0; "now" 3s later is fresh.
        let frame = render_frame(&doc, 3_000_000);
        assert!(frame.contains("status: active"), "{frame}");
        assert!(frame.contains("scan #7"));
        assert!(frame.contains("serve.executed"));
        assert!(frame.contains("sweep.job_wall_us"));
    }

    #[test]
    fn flat_executed_is_idle_and_old_heartbeat_is_stalled() {
        let doc = heartbeat(3, &[(1_000_000, 5.0), (2_000_000, 5.0)], 0.0);
        assert!(render_frame(&doc, 3_000_000).contains("status: idle"));
        assert!(render_frame(&doc, 60_000_000).contains("STALLED"));
    }

    #[test]
    fn queued_jobs_count_as_active_even_with_flat_executed() {
        let doc = heartbeat(3, &[(1_000_000, 5.0), (2_000_000, 5.0)], 4.0);
        assert!(render_frame(&doc, 3_000_000).contains("status: active"));
    }

    #[test]
    fn sparkline_scales_to_the_window() {
        let series = TimeSeries::from_samples(
            4,
            [(0u64, 0.0), (1, 1.0), (2, 2.0), (3, 7.0)]
                .into_iter()
                .map(|(t_us, value)| dlk_sim::obs::Sample { t_us, value }),
        );
        assert_eq!(sparkline(&series), "▁▂▃█");
        let flat = TimeSeries::from_samples(
            2,
            [(0u64, 5.0), (1, 5.0)]
                .into_iter()
                .map(|(t_us, value)| dlk_sim::obs::Sample { t_us, value }),
        );
        assert_eq!(sparkline(&flat), "▄▄");
    }
}
