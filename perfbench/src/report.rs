//! Metric names, result rows and the output format.
//!
//! Every row goes to standard output as one JSON line carrying the host
//! fingerprint and source revision; the last line is the summary object
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics (untraced run) or the per-layer metrics (traced run).

use crate::host::Host;

/// End-to-end metrics: name, unit, which direction is better.
pub const E2E: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("ips", "1/s", "higher"),
    ("single_ips", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("loaded_latency_p50_ms", "ms", "lower"),
    ("served_share", "ratio", "higher"),
    ("weights_mb", "MB", "lower"),
];

/// Layers of the largest benchmarked model (VGG-11); smaller models report
/// their missing indices as not on their path.
pub const KERNEL_LAYERS: usize = 16;
/// Providers of the largest benchmarked cluster (Group NA).
pub const MAX_DEVICES: usize = 4;
/// Critical-path stages the trace breakdown sums, as
/// `edge_telemetry::Stage::name` spells them.
pub const TRACE_STAGES: &[&str] = &[
    "scatter",
    "recv",
    "compute",
    "head",
    "tx",
    "merge",
    "wait",
    "gateway-queue",
];

/// Per-layer metrics: name, unit, which direction is better.
pub fn layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut m: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| m.push((name, unit, better));
    for l in 0..KERNEL_LAYERS {
        add(format!("kernel.l{l:02}.ms"), "ms", "lower");
        add(format!("kernel.l{l:02}.gflops"), "GFLOP/s", "higher");
    }
    add("setup.pack_s".into(), "s", "lower");
    add("setup.calibrate_s".into(), "s", "lower");
    add("setup.deploy_s".into(), "s", "lower");
    add("planner.plan_s".into(), "s", "lower");
    add("planner.predicted_ips".into(), "1/s", "higher");
    add("planner.prediction_error".into(), "ratio", "lower");
    for d in 0..MAX_DEVICES {
        add(format!("runtime.dev{d}.compute_ms"), "ms", "lower");
        add(format!("runtime.dev{d}.tx_ms"), "ms", "lower");
        add(format!("runtime.dev{d}.scatter_ms"), "ms", "lower");
        add(format!("runtime.dev{d}.bytes"), "bytes", "lower");
    }
    add("runtime.compute_imbalance".into(), "ratio", "lower");
    add("runtime.wire_bytes_per_image".into(), "bytes", "lower");
    add("session.submit_block_ms".into(), "ms", "lower");
    add("session.max_in_flight".into(), "count", "higher");
    add("gateway.infer_call_us".into(), "us", "lower");
    add("gateway.batch_occupancy".into(), "count", "higher");
    add("gateway.session_latency_ms".into(), "ms", "lower");
    add("gateway.shed".into(), "count", "lower");
    add("gateway.latency_p90_ms".into(), "ms", "lower");
    add("gateway.loaded_latency_p90_ms".into(), "ms", "lower");
    add("gen.late_ms_p99".into(), "ms", "lower");
    for s in TRACE_STAGES {
        add(format!("trace.{}_ms", s.replace('-', "_")), "ms", "lower");
    }
    add("trace.latency_ms".into(), "ms", "lower");
    add("trace.residual_ms".into(), "ms", "lower");
    add("trace.overhead".into(), "ratio", "lower");
    add("trace.overhead_iqr".into(), "ratio", "lower");
    m
}

/// One measured value with its sample count and how it was obtained.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub n: usize,
    pub note: String,
}

/// A workload run's rows and operation counts.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: images submitted or requests sent.
    pub attempted: u64,
    /// Operations that errored or were shed.
    pub failed: u64,
    /// Operations whose output failed its correctness check.
    pub wrong: u64,
    pub rows: Vec<Row>,
}

impl Report {
    pub fn push(&mut self, name: &str, unit: &str, value: f64, n: usize, note: impl Into<String>) {
        self.rows.push(Row {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            n,
            note: note.into(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows
            .iter()
            .rev()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }

    /// Adds every per-layer metric the workload did not measure, as zero
    /// with a note, so each traced run reports the full set.
    pub fn fill_unmeasured_layers(&mut self) {
        for (name, unit, _) in layer_metrics() {
            if self.get(&name).is_none() {
                self.push(&name, unit, 0.0, 0, "not on this workload's path");
            }
        }
    }

    /// Prints every row, then the summary line.  Fails if a metric the
    /// summary needs is missing or not a finite number.
    pub fn print(&self, workload: &str, trace: bool, host: &Host) -> Result<(), String> {
        let hostj = host.json_members();
        for r in &self.rows {
            println!(
                "{{\"workload\": {}, \"trace\": {}, \"name\": {}, \"unit\": {}, \"value\": {}, \"n\": {}, \"note\": {}, {hostj}}}",
                json_str(workload),
                u8::from(trace),
                json_str(&r.name),
                json_str(&r.unit),
                json_num(r.value)?,
                r.n,
                json_str(&r.note),
            );
        }
        let wanted: Vec<(String, &str)> = if trace {
            layer_metrics()
                .into_iter()
                .map(|(n, u, _)| (n, u))
                .collect()
        } else {
            E2E.iter().map(|&(n, u, _)| (n.to_string(), u)).collect()
        };
        let mut metrics = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            let value = self
                .get(&name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&name),
                json_num(value)?,
                json_str(unit)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted,
            self.failed + self.wrong,
            metrics.join(", ")
        );
        Ok(())
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("non-finite value {v}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and directions the benchmark prints must be the
    /// ones its manifest declares.
    #[test]
    fn manifest_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let section = |key: &str| -> Vec<(String, String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |k: &str| {
                        let at = entry.find(&format!("\"{k}\"")).expect("field present");
                        let rest = &entry[at + k.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let own = |v: &[(String, &str, &str)]| -> Vec<(String, String, String)> {
            v.iter()
                .map(|(n, u, b)| (n.clone(), u.to_string(), b.to_string()))
                .collect()
        };
        let e2e: Vec<(String, &str, &str)> =
            E2E.iter().map(|&(n, u, b)| (n.to_string(), u, b)).collect();
        assert_eq!(section("end_to_end"), own(&e2e));
        assert_eq!(section("per_layer"), own(&layer_metrics()));
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<String> = E2E.iter().map(|e| e.0.to_string()).collect();
        names.extend(layer_metrics().into_iter().map(|m| m.0));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        assert!(names.iter().all(|n| n.len() <= 64));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
