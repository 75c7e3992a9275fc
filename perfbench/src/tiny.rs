//! `tinyvgg-gateway`: tiny-VGG (32², ~1.4 ms of compute) behind the
//! default-config `Gateway` on three in-process providers with an equal
//! split.  Compute is a small share of latency here, so the gateway
//! linger, session hand-offs and scheduling dominate; it bypasses the
//! planner, int8 and wire shaping.
//!
//! A run repeats `ROUNDS` rounds of: deploy + gateway (the set-up
//! sample), a closed-loop capacity phase with `OUTSTANDING` requests
//! outstanding, the same on a single-provider gateway, then open loops of
//! Poisson arrivals at `LOAD` and `HEAVY_LOAD` of the capacity measured so
//! far (about 80 and 160 req/s on a 2-vCPU AVX-512 Xeon VM).  Rates tied to
//! the measured capacity hold the utilization fixed: at fixed rates, a 10%
//! change in host speed moved the p90 by 30% between runs.

use crate::load::{derive_seed, open_loop, poisson_schedule, windowed, OpenLoop, Windowed};
use crate::report::Report;
use crate::stats::{median, tail_percentile};
use crate::work::{
    ctx, kernel_rows, paired_overhead, prediction_rows, push_median, push_tail, runtime_rows,
    stream, timed, trace_rows, Check, Pool, Res, WEIGHT_SEED,
};
use cnn_model::exec::{ModelWeights, PackedModelWeights};
use cnn_model::{zoo, Model, PartitionScheme, VolumeSplit};
use edge_gateway::{Gateway, GatewayClient, GatewayConfig, GatewayError, GatewayMetrics};
use edge_runtime::report::predicted_report;
use edge_runtime::transport::ChannelTransport;
use edge_runtime::{Runtime, RuntimeOptions, RuntimeReport, Session};
use edge_telemetry::Telemetry;
use edgesim::ExecutionPlan;
use std::sync::Arc;
use std::time::Duration;
use tensor::Tensor;

const DEVICES: usize = 3;
const ROUNDS: usize = 7;
/// Extra deploy + gateway + shutdown cycles for set-up samples: set-up
/// takes milliseconds here, so one sample per round would be too few.
const EXTRA_SETUPS: usize = 26;
const POOL: usize = 32;
/// Requests kept outstanding in the closed-loop capacity phases.
const OUTSTANDING: usize = 8;
/// Open-loop arrival rates as shares of the round's measured capacity.
const LOAD: f64 = 0.25;
const HEAVY_LOAD: f64 = 0.5;
/// Arrivals per open-loop phase, at least: enough for a per-round p90
/// with 10 samples beyond it, with a margin.
const MIN_ARRIVALS: usize = 150;
const PREDICT_IMAGES: usize = 8;
const OVERHEAD_PAIRS: usize = 7;
const TRACED_IMAGES: usize = 20;

fn equal_split(model: &Model) -> Res<ExecutionPlan> {
    let scheme = PartitionScheme::single_volume(model);
    let split = VolumeSplit::equal(DEVICES, model.prefix_output().h);
    ExecutionPlan::from_splits(model, &scheme, &[split], DEVICES).map_err(ctx("equal split"))
}

fn deploy(
    model: &Model,
    plan: &ExecutionPlan,
    weights: &ModelWeights,
    hub: &Telemetry,
) -> Res<Session> {
    let mut channels = ChannelTransport::new(DEVICES);
    Runtime::deploy_traced(
        model,
        plan,
        weights,
        &mut channels,
        &RuntimeOptions::default(),
        hub,
    )
    .map_err(ctx("deploy"))
}

/// The closed-loop capacity phase through a gateway client.
fn capacity(
    client: &GatewayClient,
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
        |i| client.infer(pool.image(base + i)),
        |i, response| pool.settle(report, base + i, response.wait()),
    );
    *next += run.outcomes.len();
    run
}

/// One open-loop phase at `rate`; returns the timings of correct
/// responses, the generator lateness and the `infer` call times.
fn open(
    client: &GatewayClient,
    pool: &Pool,
    schedule: &[Duration],
    next: &mut usize,
    report: &mut Report,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let base = *next;
    let run: OpenLoop<Result<Tensor, GatewayError>> = open_loop(
        schedule,
        |i| client.infer(pool.image(base + i)),
        |_, response| response.wait(),
    );
    *next += run.outcomes.len();
    let mut latencies = Vec::with_capacity(run.outcomes.len());
    for (i, (timing, outcome)) in run.timings.iter().zip(run.outcomes).enumerate() {
        if pool.settle(report, base + i, outcome) {
            latencies.push(timing.latency_ms());
        }
    }
    let late = run.timings.iter().map(|t| t.late_ms()).collect();
    (latencies, late, run.issue_ms)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Res<Report> {
    let mut report = Report::default();
    let model = zoo::tiny_vgg();
    let weights = Arc::new(ModelWeights::deterministic(&model, WEIGHT_SEED));
    let (pack, pack_s) = timed(|| PackedModelWeights::pack(&model, &weights));
    let pack = Arc::new(pack.map_err(ctx("pack"))?);
    report.push(
        "setup.pack_s",
        "s",
        pack_s,
        1,
        "PackedModelWeights::pack, full model",
    );
    let pool = Pool::new(&model, &pack, seed, POOL, Check::Exact)?;
    let config = GatewayConfig::default();
    let off = Telemetry::disabled();

    let offload = ExecutionPlan::offload(&model, 0, 1).map_err(ctx("offload plan"))?;
    let single = Runtime::deploy_prepacked(
        &model,
        &offload,
        Arc::clone(&weights),
        Arc::clone(&pack),
        &mut ChannelTransport::new(1),
        &RuntimeOptions::default(),
        &off,
    )
    .map_err(ctx("single-provider deploy"))?;
    let single = Gateway::over(single, config).map_err(ctx("single-provider gateway"))?;
    let single_client = single.client();

    let (mut setup, mut plan_s, mut deploy_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut weights_bytes = 0usize;
    let mut set_up = || -> Res<(Gateway, usize)> {
        let (plan, p_s) = timed(|| equal_split(&model));
        let plan = plan?;
        let (session, d_s) = timed(|| deploy(&model, &plan, &weights, &off));
        let session = session?;
        let bytes = session
            .resident_weight_bytes()
            .into_iter()
            .max()
            .unwrap_or(0);
        let (gateway, g_s) = timed(|| Gateway::over(session, config));
        let gateway = gateway.map_err(ctx("gateway"))?;
        setup.push(p_s + d_s + g_s);
        plan_s.push(p_s);
        deploy_s.push(d_s);
        Ok((gateway, bytes))
    };
    for _ in 0..EXTRA_SETUPS {
        let (gateway, _) = set_up()?;
        gateway.shutdown().map_err(ctx("gateway shutdown"))?;
    }

    let slice = Duration::from_secs_f64(seconds / ROUNDS as f64);
    // Per round: capacity, baseline capacity, then p50 and p90 at each
    // load.  Each metric is the median over rounds, so one round disturbed
    // by the host does not move it.
    let mut per_round: [Vec<f64>; 6] = Default::default();
    let mut offered: [Vec<f64>; 2] = Default::default();
    let (mut samples, mut late, mut infer_ms) = ([0usize; 2], Vec::new(), Vec::new());
    let mut finals: Vec<GatewayMetrics> = Vec::new();
    let mut next = 0usize;
    for round in 0..ROUNDS as u64 {
        let (gateway, bytes) = set_up()?;
        weights_bytes = weights_bytes.max(bytes);
        let client = gateway.client();
        let run = capacity(
            &client,
            &pool,
            OUTSTANDING,
            slice.mul_f64(0.15),
            2 * OUTSTANDING,
            &mut next,
            &mut report,
        );
        per_round[0].push(run.rate().ok_or("no capacity rate sample")?);
        // The running median, so one disturbed capacity phase does not set
        // the offered load of its round.
        let capacity_so_far = median(&per_round[0]).expect("just pushed");
        let run = capacity(
            &single_client,
            &pool,
            OUTSTANDING,
            slice.mul_f64(0.12),
            2 * OUTSTANDING,
            &mut next,
            &mut report,
        );
        per_round[1].push(run.rate().ok_or("no single-provider rate sample")?);
        for (k, load, share) in [(0, LOAD, 0.35), (1, HEAVY_LOAD, 0.38)] {
            let rate = load * capacity_so_far;
            offered[k].push(rate);
            let seed = derive_seed(seed, round * 16 + k as u64);
            let schedule = poisson_schedule(seed, rate, slice.mul_f64(share), MIN_ARRIVALS);
            let (lat, g, i) = open(&client, &pool, &schedule, &mut next, &mut report);
            let p90 = tail_percentile(&lat, 0.9)
                .ok_or("too few correct responses for a p90 in one round")?;
            per_round[2 + 2 * k].push(median(&lat).expect("p90 exists, so samples do"));
            per_round[3 + 2 * k].push(p90);
            samples[k] += lat.len();
            late.extend(g);
            infer_ms.extend(i);
        }
        finals.push(gateway.shutdown().map_err(ctx("gateway shutdown"))?);
    }
    single
        .shutdown()
        .map_err(ctx("single-provider gateway shutdown"))?;

    push_median(
        &mut report,
        "setup_s",
        "s",
        &setup,
        "plan + deploy + Gateway::over, per set-up",
    )?;
    let rounds = format!("over {ROUNDS} rounds");
    let ips = median(&per_round[0]).expect("rounds ran");
    let single_ips = median(&per_round[1]).expect("rounds ran");
    push_median(
        &mut report,
        "ips",
        "1/s",
        &per_round[0],
        &format!("{rounds}; closed loop via GatewayClient::infer, {OUTSTANDING} outstanding"),
    )?;
    push_median(
        &mut report,
        "single_ips",
        "1/s",
        &per_round[1],
        &format!("{rounds}; one provider behind a gateway, {OUTSTANDING} outstanding"),
    )?;
    report.push(
        "ips_over_single",
        "ratio",
        ips / single_ips,
        ROUNDS,
        "distributed over offload baseline",
    );
    for (name, rates) in [
        ("offered_rate", &offered[0]),
        ("loaded_offered_rate", &offered[1]),
    ] {
        push_median(
            &mut report,
            name,
            "1/s",
            rates,
            "open-loop arrival rate per round",
        )?;
    }
    for (k, load, names) in [
        (0, LOAD, ["latency_p50_ms", "gateway.latency_p90_ms"]),
        (
            1,
            HEAVY_LOAD,
            ["loaded_latency_p50_ms", "gateway.loaded_latency_p90_ms"],
        ),
    ] {
        for (j, name) in names.iter().enumerate() {
            push_median(
                &mut report,
                name,
                "ms",
                &per_round[2 + 2 * k + j],
                &format!(
                    "{rounds} of the per-round {}; open loop, Poisson at {load} of capacity, from due time, {} samples",
                    ["p50", "p90"][j],
                    samples[k]
                ),
            )?;
        }
    }
    let ok = report.attempted - report.failed - report.wrong;
    report.push(
        "served_share",
        "ratio",
        ok as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
        "correct responses over requests; shed counts as failed",
    );
    report.push(
        "weights_mb",
        "MB",
        weights_bytes as f64 / 1e6,
        DEVICES,
        "largest per-device resident weights (Session::resident_weight_bytes)",
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
        "plan construction (fixed equal split)",
    )?;
    let infer_us: Vec<f64> = infer_ms.iter().map(|ms| ms * 1e3).collect();
    push_median(
        &mut report,
        "gateway.infer_call_us",
        "us",
        &infer_us,
        "GatewayClient::infer call, open loop",
    )?;
    let dispatched: u64 = finals.iter().map(|m| m.dispatched).sum();
    let batches: u64 = finals.iter().map(|m| m.batches).sum();
    report.push(
        "gateway.batch_occupancy",
        "count",
        dispatched as f64 / batches.max(1) as f64,
        batches as usize,
        "requests per dispatch wave",
    );
    let images: usize = finals.iter().map(|m| m.session.images).sum();
    let session_ms: f64 = finals
        .iter()
        .map(|m| m.session.sim.mean_latency_ms * m.session.images as f64)
        .sum();
    report.push(
        "gateway.session_latency_ms",
        "ms",
        session_ms / images.max(1) as f64,
        images,
        "mean session latency under the gateway (metrics().session)",
    );
    let shed: u64 = finals
        .iter()
        .map(|m| m.shed_deadline + m.shed_overload)
        .sum();
    report.push(
        "gateway.shed",
        "count",
        shed as f64,
        finals.len(),
        "deadline + overload sheds",
    );
    push_tail(&mut report, "gen.late_ms_p99", &late, 0.99)?;

    // A direct session: closed loop for the prediction, then pipelined for
    // the submit-blocking time and the per-device counters.
    let plan = equal_split(&model)?;
    let session = deploy(&model, &plan, &weights, &off)?;
    let window = session.credit_window();
    let closed = stream(
        &session,
        &pool,
        1,
        slice.mul_f64(0.3),
        10,
        &mut next,
        &mut report,
    );
    let piped = stream(
        &session,
        &pool,
        window,
        slice.mul_f64(0.3),
        2 * window,
        &mut next,
        &mut report,
    );
    let direct: RuntimeReport = session.shutdown().map_err(ctx("shutdown"))?;
    runtime_rows(std::slice::from_ref(&direct), &mut report);
    report.push(
        "session.submit_block_ms",
        "ms",
        piped.issue_ms.iter().sum::<f64>() / piped.issue_ms.len().max(1) as f64,
        piped.issue_ms.len(),
        "mean time inside Session::submit, pipelined phase",
    );
    let predicted = predicted_report(&model, &plan, &direct, PREDICT_IMAGES);
    prediction_rows(predicted.ips, &closed.latencies_ms, &mut report);

    // Traced gateway: paired capacity rounds with the hub off and on, then
    // one request at a time for the critical path.
    let hub = Telemetry::new();
    let session = deploy(&model, &plan, &weights, &hub)?;
    let gateway = Gateway::over_traced(session, config, &hub).map_err(ctx("traced gateway"))?;
    let client = gateway.client();
    paired_overhead(&hub, OVERHEAD_PAIRS, &mut report, |report| {
        let run = capacity(
            &client,
            &pool,
            OUTSTANDING,
            slice.mul_f64(0.15),
            2 * OUTSTANDING,
            &mut next,
            report,
        );
        run.rate()
            .ok_or_else(|| "no traced rate sample".to_string())
    })?;
    hub.set_enabled(true);
    let run = capacity(
        &client,
        &pool,
        1,
        Duration::ZERO,
        TRACED_IMAGES,
        &mut next,
        &mut report,
    );
    gateway.shutdown().map_err(ctx("traced gateway shutdown"))?;
    trace_rows(&hub, &run.latencies_ms, &mut report)?;

    kernel_rows(
        &model,
        &weights,
        None,
        pool.image(0),
        5,
        Duration::from_millis(500),
        &mut report,
    )?;
    Ok(report)
}
