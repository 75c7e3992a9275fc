//! Pieces the workloads share: seeded image pools with their reference
//! outputs, output checks, per-layer kernel timing, and the per-layer rows
//! read from the program's own reports and traces.

use crate::load::{windowed, Windowed};
use crate::report::{Report, MAX_DEVICES, TRACE_STAGES};
use crate::stats::{median, quantile, samples_needed, tail_percentile};
use cnn_model::exec::{
    deterministic_input, run_full_packed, run_head_packed, ModelWeights, PackedModelWeights,
    QuantSpec,
};
use cnn_model::{LayerOp, Model};
use edge_runtime::{RuntimeReport, Session};
use edge_telemetry::Telemetry;
use std::time::{Duration, Instant};
use tensor::ops::{winograd_eligible, winograd_preferred};
use tensor::Tensor;

pub type Res<T> = Result<T, String>;

/// Converts any displayable error into the benchmark's error string.
pub fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Weight seed of every benchmarked model: the weights are part of the
/// program under test, only the images come from the workload seed.
pub const WEIGHT_SEED: u64 = 7;
/// Quantized outputs must stay within this share of the f32 reference
/// output's range (the tolerance `examples/quantized_serving.rs` asserts).
pub const Q8_TOLERANCE: f32 = 0.05;

/// How an output is checked against its reference.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// f32 serving: bit-exact with the single-device reference.
    Exact,
    /// int8 serving: every logit within `Q8_TOLERANCE` of the reference
    /// output's range.
    Q8Tolerance,
}

/// Input images drawn from the workload seed, with their single-device
/// f32 reference outputs.
pub struct Pool {
    pub images: Vec<Tensor>,
    refs: Vec<Tensor>,
    check: Check,
}

impl Pool {
    /// `count` images for `model` from `seed`; references from the f32
    /// packed single-device path.
    pub fn new(
        model: &Model,
        f32_pack: &PackedModelWeights,
        seed: u64,
        count: usize,
        check: Check,
    ) -> Res<Self> {
        let images: Vec<Tensor> = (0..count as u64)
            .map(|i| deterministic_input(model, crate::load::derive_seed(seed, i)))
            .collect();
        let refs = images
            .iter()
            .map(|x| run_full_packed(model, f32_pack, x))
            .collect::<Result<_, _>>()
            .map_err(ctx("reference run"))?;
        Ok(Self {
            images,
            refs,
            check,
        })
    }

    pub fn image(&self, i: usize) -> &Tensor {
        &self.images[i % self.images.len()]
    }

    /// Whether `out` is a correct output for image `i`.
    pub fn verify(&self, i: usize, out: &Tensor) -> bool {
        let r = &self.refs[i % self.refs.len()];
        if out.shape() != r.shape() {
            return false;
        }
        match self.check {
            Check::Exact => out.data() == r.data(),
            Check::Q8Tolerance => {
                let lo = r.data().iter().copied().fold(f32::INFINITY, f32::min);
                let hi = r.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let bound = Q8_TOLERANCE * (hi - lo).max(1e-6);
                out.data()
                    .iter()
                    .zip(r.data())
                    .all(|(a, b)| (a - b).abs() <= bound)
            }
        }
    }

    /// Counts one operation into `report`: errored, wrong, or correct.
    /// Returns whether it produced a correct output.
    pub fn settle<E: std::fmt::Display>(
        &self,
        report: &mut Report,
        i: usize,
        result: Result<Tensor, E>,
    ) -> bool {
        report.attempted += 1;
        match result {
            Ok(out) if self.verify(i, &out) => true,
            Ok(_) => {
                report.wrong += 1;
                eprintln!("output of image {i} failed its check");
                false
            }
            Err(e) => {
                report.failed += 1;
                eprintln!("request {i} failed: {e}");
                false
            }
        }
    }
}

/// Wall time of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Pushes `name` as the median of `samples`, or reports that none exist.
pub fn push_median(
    report: &mut Report,
    name: &str,
    unit: &str,
    samples: &[f64],
    note: &str,
) -> Res<()> {
    let m = median(samples).ok_or_else(|| format!("no samples for {name}"))?;
    report.push(name, unit, m, samples.len(), format!("median; {note}"));
    Ok(())
}

/// Pushes `name` as the `q` tail percentile when the sample supports it,
/// else as the highest percentile it does support, the median.
pub fn push_tail(report: &mut Report, name: &str, samples: &[f64], q: f64) -> Res<()> {
    match tail_percentile(samples, q) {
        Some(v) => {
            report.push(name, "ms", v, samples.len(), "nearest-rank percentile");
            Ok(())
        }
        None => push_median(
            report,
            name,
            "ms",
            samples,
            &format!(
                "{} samples cannot support this percentile (needs {}); reports the median",
                samples.len(),
                samples_needed(q)
            ),
        ),
    }
}

/// The kernel route production takes for layer `i`.
fn route(model: &Model, i: usize, spec: Option<&QuantSpec>) -> &'static str {
    let layer = &model.layers()[i];
    let int8 = spec.and_then(|s| s.layer_scale(i)).is_some();
    match layer.op {
        LayerOp::Conv {
            c_out, f, stride, ..
        } => {
            if int8 {
                "int8"
            } else if winograd_eligible(f, stride) && winograd_preferred(layer.input.c, c_out) {
                "winograd"
            } else {
                "im2col"
            }
        }
        LayerOp::MaxPool { .. } => "pool",
        LayerOp::Fc { .. } if int8 => "int8-fc",
        LayerOp::Fc { .. } => "fc",
    }
}

/// Times every layer of `model` on its own: each layer is cut into a
/// model of its own, packed as the serving path packs it (int8 where `spec`
/// routes it), and run on the activation the previous layer produced.  A
/// conv or pool layer runs through `exec::run_full_packed`.  A model needs a
/// splittable layer, so an FC layer is cut behind an identity 1×1 pool and
/// runs through `exec::run_head_packed`, which is what the head device runs
/// per frame.  Passes repeat until both minimums are met; each layer
/// reports its median.
pub fn kernel_rows(
    model: &Model,
    weights: &ModelWeights,
    spec: Option<&QuantSpec>,
    input: &Tensor,
    min_passes: usize,
    min_time: Duration,
    report: &mut Report,
) -> Res<()> {
    let mut cut = Vec::with_capacity(model.len());
    for (i, layer) in model.layers().iter().enumerate() {
        let head = !layer.is_splittable();
        let mut ops = vec![layer.op];
        let mut layers = vec![weights.layers[i].clone()];
        let mut scales = vec![spec.and_then(|s| s.layer_scale(i)).unwrap_or(0.0)];
        if head {
            ops.insert(0, LayerOp::pool(1, 1));
            layers.insert(0, (Vec::new(), Vec::new()));
            scales.insert(0, 0.0);
        }
        let one = Model::new(format!("{}.l{i:02}", model.name()), layer.input, &ops)
            .map_err(ctx("one-layer model"))?;
        let q = spec.map(|_| QuantSpec::new(scales));
        let packed = PackedModelWeights::pack_with(&one, &ModelWeights { layers }, q.as_ref())
            .map_err(ctx("one-layer pack"))?;
        cut.push((one, packed, head));
    }
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); cut.len()];
    let start = Instant::now();
    while times[0].len() < min_passes || start.elapsed() < min_time {
        let mut x = input.clone();
        for (i, (one, packed, head)) in cut.iter().enumerate() {
            let run = if *head {
                run_head_packed
            } else {
                run_full_packed
            };
            let (y, s) = timed(|| run(one, packed, std::hint::black_box(&x)));
            x = y.map_err(ctx("layer run"))?;
            times[i].push(s * 1e3);
        }
    }
    for (i, layer) in model.layers().iter().enumerate() {
        let ms = median(&times[i]).expect("at least one pass");
        let note = format!(
            "{} {}x{}x{} -> {}x{}x{}",
            route(model, i, spec),
            layer.input.c,
            layer.input.h,
            layer.input.w,
            layer.output.c,
            layer.output.h,
            layer.output.w
        );
        report.push(
            &format!("kernel.l{i:02}.ms"),
            "ms",
            ms,
            times[i].len(),
            format!("median; {note}"),
        );
        report.push(
            &format!("kernel.l{i:02}.gflops"),
            "GFLOP/s",
            layer.ops() / (ms * 1e6),
            times[i].len(),
            note,
        );
    }
    Ok(())
}

/// Per-device rows from the sessions' own reports, per image served.
pub fn runtime_rows(reports: &[RuntimeReport], report: &mut Report) {
    let images: usize = reports.iter().map(|r| r.images).sum();
    let n = reports.iter().map(|r| r.devices.len()).max().unwrap_or(0);
    assert!(n <= MAX_DEVICES, "more devices than the metric set names");
    let per = |f: &dyn Fn(&edge_runtime::DeviceMetrics) -> f64, d: usize| -> f64 {
        reports
            .iter()
            .filter_map(|r| r.devices.get(d))
            .map(f)
            .sum::<f64>()
            / images.max(1) as f64
    };
    let mut compute = Vec::with_capacity(n);
    let mut wire = 0.0;
    for d in 0..n {
        let c = per(&|m| m.compute_ms, d);
        let bytes = per(&|m| (m.bytes_in + m.bytes_out) as f64, d);
        compute.push(c);
        wire += bytes;
        report.push(
            &format!("runtime.dev{d}.compute_ms"),
            "ms",
            c,
            images,
            "per image",
        );
        report.push(
            &format!("runtime.dev{d}.tx_ms"),
            "ms",
            per(&|m| m.tx_ms, d),
            images,
            "per image",
        );
        report.push(
            &format!("runtime.dev{d}.scatter_ms"),
            "ms",
            per(&|m| m.scatter_ms, d),
            images,
            "per image",
        );
        report.push(
            &format!("runtime.dev{d}.bytes"),
            "bytes",
            bytes,
            images,
            "in + out per image",
        );
    }
    let mean = compute.iter().sum::<f64>() / n.max(1) as f64;
    let max = compute.iter().copied().fold(0.0, f64::max);
    report.push(
        "runtime.compute_imbalance",
        "ratio",
        if mean > 0.0 { max / mean } else { 0.0 },
        n,
        "max over mean device compute",
    );
    report.push(
        "runtime.wire_bytes_per_image",
        "bytes",
        wire,
        images,
        "device-side bytes in + out; a device-to-device frame counts at both ends",
    );
    let in_flight = reports
        .iter()
        .map(|r| r.max_in_flight_observed)
        .max()
        .unwrap_or(0);
    report.push(
        "session.max_in_flight",
        "count",
        in_flight as f64,
        reports.len(),
        "max over sessions",
    );
}

/// Critical-path rows for the last `latencies_ms.len()` images traced on
/// `hub` (one in flight at a time, so image ids ascend with the requests).
pub fn trace_rows(hub: &Telemetry, latencies_ms: &[f64], report: &mut Report) -> Res<()> {
    let trace = hub.collect();
    let ids = trace.images();
    let k = latencies_ms.len();
    if ids.len() < k || k == 0 {
        return Err(format!("trace holds {} images, {k} expected", ids.len()));
    }
    let mut sums = vec![0.0f64; TRACE_STAGES.len()];
    for &id in &ids[ids.len() - k..] {
        let path = trace
            .critical_path(id)
            .ok_or_else(|| format!("image {id} has no spans"))?;
        for cost in &path.stages {
            if let Some(s) = TRACE_STAGES.iter().position(|&n| n == cost.stage) {
                sums[s] += cost.total_ms;
            }
        }
    }
    let mut stage_sum = 0.0;
    for (s, name) in TRACE_STAGES.iter().enumerate() {
        let mean = sums[s] / k as f64;
        stage_sum += mean;
        report.push(
            &format!("trace.{}_ms", name.replace('-', "_")),
            "ms",
            mean,
            k,
            "mean per image, summed over devices",
        );
    }
    let latency = latencies_ms.iter().sum::<f64>() / k as f64;
    report.push(
        "trace.latency_ms",
        "ms",
        latency,
        k,
        "mean measured latency of the traced images",
    );
    report.push(
        "trace.residual_ms",
        "ms",
        latency - stage_sum,
        k,
        format!("measured latency minus the stage sum {stage_sum:.3} ms (negative where devices overlap)"),
    );
    Ok(())
}

/// Streams `pool` images through `session`, `window` at a time, for at
/// least `span` and `min` images; counts every outcome into `report`.
pub fn stream(
    session: &Session,
    pool: &Pool,
    window: usize,
    span: Duration,
    min: usize,
    next: &mut usize,
    report: &mut Report,
) -> Windowed<bool> {
    let base = *next;
    let run = windowed(
        window,
        span,
        min,
        |i| session.submit(pool.image(base + i)),
        |i, ticket| pool.settle(report, base + i, ticket.and_then(|t| session.wait(t))),
    );
    *next += run.outcomes.len();
    run
}

/// The simulator's closed-loop IPS next to the measured one, and the
/// relative error of the prediction.
pub fn prediction_rows(predicted_ips: f64, closed_ms: &[f64], report: &mut Report) {
    let measured = 1e3 / (closed_ms.iter().sum::<f64>() / closed_ms.len().max(1) as f64);
    report.push(
        "planner.predicted_ips",
        "1/s",
        predicted_ips,
        1,
        "simulator, closed loop, on the measured kernel times",
    );
    report.push(
        "measured.closed_loop_ips",
        "1/s",
        measured,
        closed_ms.len(),
        "1 / mean closed-loop latency",
    );
    report.push(
        "planner.prediction_error",
        "ratio",
        predicted_ips / measured - 1.0,
        closed_ms.len(),
        "predicted over measured closed-loop IPS, minus 1",
    );
}

/// Tracing overhead from paired rounds: each pair runs `measure` (a
/// throughput) on the same session with `hub` off and on, order
/// alternating, and the share of throughput lost is taken per pair.
/// Reports the median and the interquartile range of the per-pair shares.
pub fn paired_overhead(
    hub: &Telemetry,
    pairs: usize,
    report: &mut Report,
    mut measure: impl FnMut(&mut Report) -> Res<f64>,
) -> Res<()> {
    let mut shares = Vec::with_capacity(pairs);
    for p in 0..pairs {
        let mut at = |on: bool, report: &mut Report| {
            hub.set_enabled(on);
            measure(report)
        };
        let (off, on) = if p % 2 == 0 {
            let off = at(false, report)?;
            (off, at(true, report)?)
        } else {
            let on = at(true, report)?;
            (at(false, report)?, on)
        };
        shares.push((off - on) / off);
    }
    let iqr = quantile(&shares, 0.75)
        .zip(quantile(&shares, 0.25))
        .map_or(0.0, |(a, b)| a - b);
    report.push(
        "trace.overhead",
        "ratio",
        median(&shares).expect("at least one pair"),
        pairs,
        "median over pairs of (untraced - traced) / untraced throughput",
    );
    report.push(
        "trace.overhead_iqr",
        "ratio",
        iqr,
        pairs,
        "interquartile range of the pair shares",
    );
    Ok(())
}
