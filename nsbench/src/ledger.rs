//! The metric catalogue and the result line.
//!
//! Every run prints, as its last line, one JSON object with the
//! operation counts and either every end-to-end metric (untraced run)
//! or every per-layer metric (traced run). The catalogues below must
//! match `BENCHMARK.json`; a unit test holds them together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("images_per_s", "1/s"),
    ("energy_uj_per_image", "uJ"),
    ("accuracy", "fraction"),
    ("p50_ms", "ms"),
    ("max_rps", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A metric with
/// no meaning on a workload (the serve stages on `mc_batch`, say)
/// reads 0 there.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("latency.p99_ms", "ms"),
    ("latency.tail_pct", "%"),
    ("host.cores", "count"),
    ("host.pool_width", "count"),
    ("host.parallel_probe", "x"),
    ("host.scaling_measurement", "flag"),
    ("runtime.serve_predict_ms.p50", "ms"),
    ("runtime.serve_predict_ms.tail", "ms"),
    ("runtime.serve_predict_ms.tail_pct", "%"),
    ("runtime.step_ms.p50", "ms"),
    ("runtime.step_ms.tail", "ms"),
    ("runtime.recoveries.scrub", "count"),
    ("runtime.recoveries.recalibrate", "count"),
    ("runtime.recoveries.remap_tier", "count"),
    ("runtime.recoveries.abstain", "count"),
    ("model.pass_ms", "ms"),
    ("model.pass_share", "fraction"),
    ("model.replica_syncs_per_call", "count"),
    ("model.plan_rebuilds_per_call", "count"),
    ("model.scratch_bytes", "B"),
    ("cim.conv1.ns_per_call", "ns"),
    ("cim.conv1.gops", "GOP/s"),
    ("cim.conv2.ns_per_call", "ns"),
    ("cim.conv2.gops", "GOP/s"),
    ("cim.fc1.ns_per_call", "ns"),
    ("cim.fc1.gops", "GOP/s"),
    ("cim.kernel_share", "fraction"),
    ("cim.packed_calls_per_pass", "count"),
    ("cim.cell_reads_per_image", "count"),
    ("cim.adc_converts_per_image", "count"),
    ("cim.rng_bits_per_image", "count"),
    ("device.cells_refreshed_per_step", "count"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.bytes", "B"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_assembly_ms", "ms"),
    ("serve.die_compute_ms", "ms"),
    ("serve.retry_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("serve.request_ms", "ms"),
    ("serve.client_ms", "ms"),
    ("serve.front_ms", "ms"),
    ("serve.accounted_frac", "fraction"),
    ("serve.batch_size_mean", "count"),
    ("serve.shed", "count"),
    ("serve.failovers", "count"),
    ("serve.sample_retries", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.late_sends", "count"),
    ("telemetry.overhead_frac", "fraction"),
    ("telemetry.events_per_op", "count"),
    ("flight.events_per_request", "count"),
    ("flight.dropped", "count"),
    ("span.bench.self_ms", "ms"),
    ("span.runtime.self_ms", "ms"),
    ("span.model.self_ms", "ms"),
    ("span.cim.self_ms", "ms"),
    ("span.checkpoint.self_ms", "ms"),
    ("span.serve.self_ms", "ms"),
    ("span.ops", "count"),
    ("setup.reps", "count"),
    ("run.ops", "count"),
];

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<String, f64>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// One line per failed check, for stderr.
    pub problems: Vec<String>,
}

impl Ledger {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Reads metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one checked operation; a false `ok` fails it.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// A whole-run invariant (request conservation, say): it fails the
    /// run without being an operation of its own.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Every recorded value, by name (for the written report).
    pub fn values(&self) -> &BTreeMap<String, f64> {
        &self.values
    }

    /// The result line for the chosen catalogue. End-to-end metrics
    /// must all be set (an unset one is an error); unset per-layer
    /// metrics read 0.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match (self.get(name), traced) {
                (Some(v), _) if v.is_finite() => v,
                (Some(v), _) => return Err(format!("metric {name} is not finite ({v})")),
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {name} was not measured")),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuspin_core::json::{self, Json};

    fn names(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogues_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |c: &[(&str, &str)]| {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            names(doc.get("end_to_end").expect("end_to_end")),
            own(&END_TO_END)
        );
        assert_eq!(
            names(doc.get("per_layer").expect("per_layer")),
            own(&PER_LAYER)
        );
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut l = Ledger::default();
        for (name, _) in END_TO_END {
            l.set(name, 1.25);
        }
        l.check(true, String::new);
        let line = l.result_line(false).expect("all set");
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let m = doc.get("metrics").expect("metrics");
        assert_eq!(
            m.get("p50_ms")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
        // A traced line fills unmeasured per-layer metrics with 0.
        let traced = l.result_line(true).expect("per-layer line");
        assert!(traced.contains("\"flight.dropped\": {\"value\": 0.0"));
        // A missing end-to-end metric is an error, a failed check flips
        // `correct`.
        let mut bad = Ledger::default();
        assert!(bad.result_line(false).is_err());
        bad.check(false, || "wrong digest".into());
        bad.set("x", 0.0);
        assert!(bad
            .result_line(true)
            .expect("line")
            .contains("\"correct\": false"));
    }
}
