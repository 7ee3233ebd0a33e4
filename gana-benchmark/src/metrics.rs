//! The metric catalog, the run report, and the statistics behind them.
//!
//! The catalog mirrors `BENCHMARK.json` at the repository root: an untraced
//! run reports every end-to-end metric, a traced run every per-layer
//! metric. A per-layer metric of a layer the workload never calls reads 0.

use crate::inputs::Score;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("netlist.parse_us", "us"),
    ("netlist.preprocess_us", "us"),
    ("graph.build_us", "us"),
    ("gnn.prepare_us", "us"),
    ("gnn.forward_us", "us"),
    ("gnn.forward_gflop", "GFLOP"),
    ("gnn.forward_gflops", "GFLOP/s"),
    ("primitives.vf2_us", "us"),
    ("primitives.vf2_calls", "count"),
    ("primitives.templates_pruned", "count"),
    ("core.post_us", "us"),
    ("incremental.update_us.resize", "us"),
    ("incremental.update_us.revalue", "us"),
    ("incremental.update_us.topology", "us"),
    ("incremental.vs_cold.resize", "ratio"),
    ("incremental.vs_cold.revalue", "ratio"),
    ("incremental.vs_cold.topology", "ratio"),
    ("incremental.full_splice_frac", "fraction"),
    ("incremental.dirty_device_frac", "fraction"),
    ("incremental.region_hit_frac", "fraction"),
    ("incremental.inferred_vertices", "count"),
    ("incremental.hash_us", "us"),
    ("incremental.diff_us", "us"),
    ("incremental.regions_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.parse_p50_us", "us"),
    ("serve.recognize_p50_us", "us"),
    ("serve.recognize_p99_us", "us"),
    ("serve.total_p50_us", "us"),
    ("serve.total_p99_us", "us"),
    ("serve.batch_size_p50", "count"),
    ("serve.batched_frac", "fraction"),
    ("serve.region_hit_frac", "fraction"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("client.conn_wait_p99_us", "us"),
    ("client.rtt_p50_us", "us"),
    ("client.rtt_p99_us", "us"),
    ("client.wire_p50_us", "us"),
    ("client.late_p99_us", "us"),
    ("setup.train_s", "s"),
    ("setup.library_ms", "ms"),
    ("persist.snapshot_save_ms", "ms"),
    ("persist.snapshot_load_ms", "ms"),
    ("serve.boot_ms", "ms"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (timed and verification ops alike).
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Devices whose labels were checked against ground truth.
    pub devices_checked: u64,
    /// Checked devices that carried a wrong label.
    pub devices_wrong: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// If `name` is not in the catalog: every reported name must be one
    /// `BENCHMARK.json` declares.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalog"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Counts one attempted op and its checked output.
    pub(crate) fn record(&mut self, outcome: Result<Score, String>) {
        self.attempted += 1;
        match outcome {
            Ok(score) => {
                self.devices_checked += score.devices;
                self.devices_wrong += score.wrong;
                if score.wrong > 0 {
                    self.failed += 1;
                }
            }
            Err(message) => {
                self.failed += 1;
                eprintln!("failed op: {message}");
            }
        }
    }

    /// Sets `p50_ms` and `p99_ms` from op latencies (µs, in op order), each
    /// from the best window of whole `granule`s; a granule as long as the
    /// run makes the whole run one window.
    pub(crate) fn latencies(&mut self, latencies_us: &[f64], granule: usize) {
        self.set("p50_ms", best_window(latencies_us, granule, median) / 1e3);
        let p99 = best_window(latencies_us, granule, |w| quantile(w, 0.99));
        self.set("p99_ms", p99 / 1e3);
    }

    /// Sets `ops_per_s` of a closed loop whose ops ran back to back, from
    /// the window with the least time per op.
    pub(crate) fn closed_loop_rate(&mut self, latencies_us: &[f64], granule: usize) {
        self.set("ops_per_s", 1e6 / best_window(latencies_us, granule, mean));
    }

    /// Sets the trace-quality metrics from the untraced op latencies (µs)
    /// and the traced ops' spans. Both sides run the same inputs in the
    /// same order, so op k is the same input in each; the sums run over
    /// the ops both reached.
    pub(crate) fn trace_quality(&mut self, untraced_us: &[f64], tracer: &Tracer) {
        let traced = tracer.op_us();
        let attributed = tracer.attributed_us();
        let n = untraced_us.len().min(traced.len());
        let untraced: f64 = untraced_us[..n].iter().sum();
        self.set(
            "trace.unattributed_frac",
            ratio(
                (untraced - attributed[..n].iter().sum::<f64>()).abs(),
                untraced,
            ),
        );
        self.set(
            "trace.overhead_frac",
            ratio(traced[..n].iter().sum(), untraced) - 1.0,
        );
    }

    /// Post-II device accuracy over every checked output.
    pub fn accuracy(&self) -> f64 {
        if self.devices_checked == 0 {
            return 0.0;
        }
        1.0 - self.devices_wrong as f64 / self.devices_checked as f64
    }

    /// True when outputs were checked and every one was right.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.devices_checked > 0
    }

    /// The catalog this run reports, with values (0 where unset).
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let catalog: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        catalog
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// The one-line JSON result.
    pub fn to_json(&self, traced: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics(traced).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Windows an in-process run's ops are split into. Each end-to-end
/// statistic of an in-process workload is computed per window and the best
/// window is reported: its ops are deterministic computations, other
/// tenants of a shared machine only ever add time, and their load comes
/// and goes over seconds, so the least-disturbed window is the steadiest
/// estimate of the program's own cost.
const WINDOWS: usize = 10;

/// The least of `stat` over [`WINDOWS`] consecutive windows of `values`
/// (fewer when there are fewer granules). Windows hold whole `granule`s,
/// so each covers the input mix in the same proportions.
fn best_window(values: &[f64], granule: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let granules = (values.len() / granule).max(1);
    let windows = WINDOWS.min(granules);
    let bound = |w: usize| {
        if w == windows {
            values.len()
        } else {
            w * granules / windows * granule
        }
    };
    (0..windows)
        .map(|w| stat(&values[bound(w)..bound(w + 1)]))
        .fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (0 when empty).
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean of `values` (0 when empty).
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub(crate) fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn best_window_skips_disturbed_windows() {
        let mut values = vec![1.0; 100];
        values[..90].fill(50.0);
        assert_eq!(best_window(&values, 5, |w| quantile(w, 0.99)), 1.0);
        assert_eq!(best_window(&values, 5, |w| w.len() as f64), 10.0);
        // Fewer granules than windows: one window per granule.
        assert_eq!(best_window(&[3.0, 1.0, 2.0], 1, median), 1.0);
        assert_eq!(best_window(&[4.0], 10, median), 4.0);
    }

    #[test]
    fn json_lists_every_catalog_metric_with_its_unit() {
        let mut report = Report {
            attempted: 3,
            devices_checked: 10,
            ..Report::default()
        };
        report.set("p50_ms", 1.25);
        let json = report.to_json(false);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(json.contains("\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_metric_names_are_rejected() {
        Report::default().set("made_up", 1.0);
    }
}
