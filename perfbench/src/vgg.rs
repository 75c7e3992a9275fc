//! The two VGG-11 (224², ~15 GFLOP) workloads.
//!
//! * `vgg11-f32-split3`: f32 on three in-process providers with the fixed
//!   uneven single-volume split of `examples/paper_scale.rs`.  Kernel-bound;
//!   bypasses the planner, wire shaping, the gateway and int8.
//! * `vgg11-q8-na4`: int8 on the paper's Group NA (four Nanos behind
//!   50/50/200/200 Mbps links, shaped), planned by `DistrEdge::plan` with a
//!   fixed configuration seed and episode budget.
//!
//! A run repeats `ROUNDS` rounds of: plan + deploy (the set-up sample),
//! closed loop with one image in flight, pipelined at the default credit
//! window, shutdown; then the single-provider baseline at the same window.
//! Interleaving the baseline with the distributed phases keeps their ratio
//! honest when the host's speed drifts during a run.

use crate::load::Windowed;
use crate::report::Report;
use crate::work::{
    ctx, kernel_rows, paired_overhead, prediction_rows, push_median, runtime_rows, stream, timed,
    trace_rows, Check, Pool, Res, WEIGHT_SEED,
};
use cnn_model::exec::{ModelWeights, PackedModelWeights, QuantSpec};
use cnn_model::{zoo, Model, PartitionScheme, VolumeSplit};
use device_profile::DeviceType;
use distredge::{DistrEdge, DistrEdgeConfig, Scenario};
use edge_runtime::report::{predicted_report, predicted_report_on_cluster};
use edge_runtime::transport::{ChannelTransport, ShapedTransport};
use edge_runtime::{Runtime, RuntimeOptions, RuntimeReport, Session};
use edge_telemetry::Telemetry;
use edgesim::{Cluster, ExecutionPlan};
use std::sync::Arc;
use std::time::Duration;

/// Which VGG-11 workload to run.
#[derive(Debug, Clone, Copy)]
pub enum Vgg {
    F32Split3,
    Q8Na4,
}

/// Rounds per run: each gives one set-up sample.
const ROUNDS: usize = 3;
/// Distinct images per run (each needs a ~0.4 s single-device reference).
const POOL: usize = 4;
/// OSDS episode budget and seed of the planned workload: fixed, so the
/// plan is the same on every run and only the images vary with the seed.
const PLAN_EPISODES: usize = 200;
const PLAN_SEED: u64 = 11;
/// Images the simulator streams for the predicted IPS.
const PREDICT_IMAGES: usize = 8;
/// Paired traced/untraced rounds for the tracing overhead.
const OVERHEAD_PAIRS: usize = 5;
/// Images traced one at a time for the critical-path breakdown.
const TRACED_IMAGES: usize = 3;

impl Vgg {
    fn quantized(self) -> bool {
        matches!(self, Vgg::Q8Na4)
    }

    fn cluster(self) -> Option<Cluster> {
        match self {
            Vgg::F32Split3 => None,
            Vgg::Q8Na4 => Some(Scenario::group_na(DeviceType::Nano).build_constant()),
        }
    }

    fn plan(self, model: &Model, cluster: Option<&Cluster>) -> Res<ExecutionPlan> {
        match cluster {
            None => {
                let scheme = PartitionScheme::single_volume(model);
                let splits: Vec<VolumeSplit> = scheme
                    .volumes()
                    .iter()
                    .map(|v| {
                        let h = v.last_output_height(model);
                        VolumeSplit::new(vec![h / 2, 3 * h / 4], h)
                    })
                    .collect();
                ExecutionPlan::from_splits(model, &scheme, &splits, 3).map_err(ctx("fixed split"))
            }
            Some(cluster) => {
                let config = DistrEdgeConfig::fast(cluster.len())
                    .with_episodes(PLAN_EPISODES)
                    .with_seed(PLAN_SEED);
                let outcome = DistrEdge::plan(model, cluster, &config).map_err(ctx("plan"))?;
                outcome.strategy.to_plan(model).map_err(ctx("strategy"))
            }
        }
    }
}

/// Deploys `plan` over the workload's fabric: in-process channels, or the
/// same channels shaped by the cluster's links.
fn deploy(
    model: &Model,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    cluster: Option<&Cluster>,
    options: &RuntimeOptions,
    hub: &Telemetry,
) -> Res<Session> {
    let devices = plan.volumes[0].parts.len();
    let channels = ChannelTransport::new(devices);
    match cluster {
        None => Runtime::deploy_traced(model, plan, weights, &mut { channels }, options, hub),
        Some(c) => Runtime::deploy_traced(
            model,
            plan,
            weights,
            &mut ShapedTransport::new(channels, c),
            options,
            hub,
        ),
    }
    .map_err(ctx("deploy"))
}

/// The offload baseline: every row and the head on the provider with the
/// fastest link, over the same fabric, from one prepacked weight artifact.
fn deploy_single(
    model: &Model,
    raw: &Arc<ModelWeights>,
    packed: &Arc<PackedModelWeights>,
    cluster: Option<&Cluster>,
    options: &RuntimeOptions,
) -> Res<Session> {
    let (device, devices) = match cluster {
        None => (0, 1),
        Some(c) => {
            let bw = c.mean_bandwidths();
            let best = (0..bw.len())
                .max_by(|&a, &b| bw[a].total_cmp(&bw[b]))
                .expect("non-empty cluster");
            (best, c.len())
        }
    };
    let plan = ExecutionPlan::offload(model, device, devices).map_err(ctx("offload plan"))?;
    let channels = ChannelTransport::new(devices);
    let off = Telemetry::disabled();
    let (raw, packed) = (Arc::clone(raw), Arc::clone(packed));
    match cluster {
        None => {
            Runtime::deploy_prepacked(model, &plan, raw, packed, &mut { channels }, options, &off)
        }
        Some(c) => Runtime::deploy_prepacked(
            model,
            &plan,
            raw,
            packed,
            &mut ShapedTransport::new(channels, c),
            options,
            &off,
        ),
    }
    .map_err(ctx("single-provider deploy"))
}

fn ok_latencies(run: &Windowed<bool>) -> impl Iterator<Item = f64> + '_ {
    run.latencies_ms
        .iter()
        .zip(&run.outcomes)
        .filter(|(_, &ok)| ok)
        .map(|(&l, _)| l)
}

pub fn run(workload: Vgg, seed: u64, seconds: f64, trace: bool) -> Res<Report> {
    let mut report = Report::default();
    let model = zoo::vgg11();
    let quantized = workload.quantized();
    let cluster = workload.cluster();
    let cluster = cluster.as_ref();
    let weights = Arc::new(ModelWeights::deterministic(&model, WEIGHT_SEED));

    // The f32 pack gives the references; it is also the f32 baseline's
    // weight artifact.  The int8 baseline packs from a calibrated spec.
    let (f32_pack, f32_pack_s) = timed(|| PackedModelWeights::pack(&model, &weights));
    let f32_pack = f32_pack.map_err(ctx("pack"))?;
    let check = if quantized {
        Check::Q8Tolerance
    } else {
        Check::Exact
    };
    let pool = Pool::new(&model, &f32_pack, seed, POOL, check)?;
    let (single_pack, pack_s, spec) = if quantized {
        drop(f32_pack);
        let (spec, calibrate_s) = timed(|| QuantSpec::calibrate(&model, &weights));
        let spec = spec.map_err(ctx("calibrate"))?;
        report.push(
            "setup.calibrate_s",
            "s",
            calibrate_s,
            1,
            "QuantSpec::calibrate, full model",
        );
        let (pack, s) = timed(|| PackedModelWeights::pack_with(&model, &weights, Some(&spec)));
        (pack.map_err(ctx("int8 pack"))?, s, Some(spec))
    } else {
        (f32_pack, f32_pack_s, None)
    };
    report.push(
        "setup.pack_s",
        "s",
        pack_s,
        1,
        "PackedModelWeights::pack[_with], full model",
    );
    let single_pack = Arc::new(single_pack);

    let options = RuntimeOptions::default().with_quantized(quantized);
    let window = options.max_in_flight;
    let single = deploy_single(&model, &weights, &single_pack, cluster, &options)?;
    let off = Telemetry::disabled();
    let slice = Duration::from_secs_f64(seconds / ROUNDS as f64);
    let (mut setup, mut plan_s, mut deploy_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut closed, mut loaded, mut submit_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut single_rates) = (Vec::new(), Vec::new());
    let mut reports: Vec<RuntimeReport> = Vec::new();
    let mut weights_bytes = 0usize;
    let mut plans: Vec<ExecutionPlan> = Vec::new();
    let mut next = 0usize;
    for _ in 0..ROUNDS {
        let (plan, p_s) = timed(|| workload.plan(&model, cluster));
        let plan = plan?;
        let (session, d_s) = timed(|| deploy(&model, &plan, &weights, cluster, &options, &off));
        let session = session?;
        setup.push(p_s + d_s);
        plan_s.push(p_s);
        deploy_s.push(d_s);
        weights_bytes = weights_bytes.max(
            session
                .resident_weight_bytes()
                .into_iter()
                .max()
                .unwrap_or(0),
        );

        let run = stream(
            &session,
            &pool,
            1,
            slice.mul_f64(0.25),
            2,
            &mut next,
            &mut report,
        );
        closed.extend(ok_latencies(&run));
        let run = stream(
            &session,
            &pool,
            window,
            slice.mul_f64(0.40),
            window + 2,
            &mut next,
            &mut report,
        );
        loaded.extend(ok_latencies(&run));
        submit_ms.extend_from_slice(&run.issue_ms);
        rates.push(run.rate().ok_or("no pipelined rate sample")?);
        reports.push(session.shutdown().map_err(ctx("shutdown"))?);
        plans.push(plan);

        let run = stream(
            &single,
            &pool,
            window,
            slice.mul_f64(0.35),
            window + 2,
            &mut next,
            &mut report,
        );
        single_rates.push(run.rate().ok_or("no single-provider rate sample")?);
    }
    single.shutdown().map_err(ctx("single-provider shutdown"))?;
    // Free the baseline's weights before the traced session and the
    // per-layer packs.
    drop(single_pack);
    if plans.windows(2).any(|w| w[0] != w[1]) {
        return Err("the planner returned different plans for one configuration".into());
    }
    let plan = plans.pop().expect("at least one round");

    push_median(
        &mut report,
        "setup_s",
        "s",
        &setup,
        "plan + deploy up to ready, per round",
    )?;
    let ips = crate::stats::median(&rates).expect("rounds ran");
    let single_ips = crate::stats::median(&single_rates).expect("rounds ran");
    push_median(
        &mut report,
        "ips",
        "1/s",
        &rates,
        &format!("over {ROUNDS} rounds; pipelined, credit window {window}"),
    )?;
    push_median(
        &mut report,
        "single_ips",
        "1/s",
        &single_rates,
        &format!("over {ROUNDS} rounds; one provider, window {window}, same images and precision"),
    )?;
    report.push(
        "ips_over_single",
        "ratio",
        ips / single_ips,
        ROUNDS,
        "distributed over offload baseline",
    );
    push_median(
        &mut report,
        "latency_p50_ms",
        "ms",
        &closed,
        "closed loop, one image in flight",
    )?;
    push_median(
        &mut report,
        "loaded_latency_p50_ms",
        "ms",
        &loaded,
        &format!("credit window {window} full"),
    )?;
    let ok = report.attempted - report.failed - report.wrong;
    report.push(
        "served_share",
        "ratio",
        ok as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
        "correct outputs over attempts",
    );
    report.push(
        "weights_mb",
        "MB",
        weights_bytes as f64 / 1e6,
        plan.volumes[0].parts.len(),
        "largest per-device resident weights (Session::resident_weight_bytes)",
    );
    report.push(
        "plan.volumes",
        "count",
        plan.num_volumes() as f64,
        1,
        format!("head on {:?}", plan.head_device),
    );
    if !trace {
        return Ok(report);
    }

    push_median(
        &mut report,
        "setup.deploy_s",
        "s",
        &deploy_s,
        "Runtime::deploy up to ready",
    )?;
    push_median(
        &mut report,
        "planner.plan_s",
        "s",
        &plan_s,
        "plan construction",
    )?;
    runtime_rows(&reports, &mut report);
    report.push(
        "session.submit_block_ms",
        "ms",
        submit_ms.iter().sum::<f64>() / submit_ms.len().max(1) as f64,
        submit_ms.len(),
        "mean time inside Session::submit, pipelined phase",
    );
    let last = reports.last().expect("at least one round");
    let predicted = match cluster {
        Some(c) => predicted_report_on_cluster(&model, c, &plan, last, PREDICT_IMAGES),
        None => predicted_report(&model, &plan, last, PREDICT_IMAGES),
    };
    prediction_rows(predicted.ips, &closed, &mut report);

    // Traced session: paired rounds with the hub off and on, then images
    // one at a time for the critical path.
    let hub = Telemetry::new();
    let session = deploy(&model, &plan, &weights, cluster, &options, &hub)?;
    paired_overhead(&hub, OVERHEAD_PAIRS, &mut report, |report| {
        stream(
            &session,
            &pool,
            window,
            slice.mul_f64(0.3),
            window + 2,
            &mut next,
            report,
        )
        .rate()
        .ok_or_else(|| "no traced rate sample".to_string())
    })?;
    hub.set_enabled(true);
    let run = stream(
        &session,
        &pool,
        1,
        Duration::ZERO,
        TRACED_IMAGES,
        &mut next,
        &mut report,
    );
    session.shutdown().map_err(ctx("traced shutdown"))?;
    trace_rows(&hub, &run.latencies_ms, &mut report)?;

    kernel_rows(
        &model,
        &weights,
        spec.as_ref(),
        pool.image(0),
        2,
        Duration::from_secs(1),
        &mut report,
    )?;
    Ok(report)
}
