//! Kernel benchmarks: every conv variant (direct oracle, packed GEMM on the
//! scalar and SIMD micro-kernel arms, Winograd F(2×2,3×3)) plus end-to-end
//! runtime throughput.
//!
//! Emits `BENCH_kernels.json` at the workspace root with per-shape,
//! per-variant timings and GFLOP/s (filters prepacked outside the timed
//! region — packing is deploy-time work), and end-to-end IPS for the
//! `tiny_vgg` test model and the paper-scale `vgg11` on the packed runtime.
//! All GFLOP/s figures are *effective* rates against the direct-conv flop
//! count (`2·f²·c_in·c_out·h·w`), so Winograd's multiply savings show up as
//! a higher rate through the same roof-line lens.  The acceptance bar
//! tracked across commits: the VGG 3×3 `c64` shape's packed-SIMD rate ≥ 2×
//! the scalar baseline this ladder started from (18 GFLOP/s).

use cnn_model::exec::{deterministic_input, ModelWeights};
use cnn_model::{zoo, Model, PartitionScheme, VolumeSplit};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edge_runtime::runtime::{execute_in_process, RuntimeOptions};
use edgesim::ExecutionPlan;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use tensor::ops::{
    conv2d_rows_direct, conv2d_rows_gemm, conv2d_rows_packed, conv2d_rows_winograd,
    im2col_weight_len, kernel_arch, maxpool2d, pack_conv_filter, pack_conv_filter_with,
    qkernel_arch, quant_scale, set_kernel_override, set_qkernel_override, winograd_preferred,
    Activation, KernelArch, QKernelArch,
};
use tensor::Tensor;

/// One convolution shape measured across every kernel variant.
#[derive(Serialize, Clone)]
struct ConvShape {
    label: String,
    c_in: usize,
    c_out: usize,
    h: usize,
    w: usize,
    f: usize,
    direct_ns: f64,
    direct_gflops: f64,
    packed_scalar_ns: f64,
    packed_scalar_gflops: f64,
    packed_simd_ns: f64,
    packed_simd_gflops: f64,
    /// Winograd F(2×2,3×3); zero when the shape is not eligible.
    winograd_ns: f64,
    winograd_gflops: f64,
    /// Whether the packed router would actually take the Winograd path for
    /// this shape (`winograd_preferred` channel counts).  Rows timed below
    /// the preference threshold are pinned measurements of a path the
    /// router does not serve — this flag keeps them from being read as the
    /// production route.
    winograd_routed: bool,
    /// Int8 quantized GEMM, scalar arm (the bit-exactness reference).
    int8_scalar_ns: f64,
    int8_scalar_gops: f64,
    /// Int8 quantized GEMM on the auto-dispatched arm (VNNI here).
    int8_simd_ns: f64,
    int8_simd_gops: f64,
    /// Effective int8 rate over the f32 SIMD GEMM rate on the same shape.
    int8_vs_f32_simd: f64,
    /// Effective int8 rate over the f32 route `conv2d_rows_packed` takes
    /// for this shape (Winograd where `winograd_routed`, else the SIMD
    /// GEMM) — the comparison that decides whether quantizing a layer pays.
    int8_vs_f32_routed: f64,
    /// Legacy trajectory fields (packed = the SIMD GEMM path).
    packed_ns: f64,
    speedup: f64,
    packed_gflops: f64,
}

/// One end-to-end runtime measurement on the packed path.
#[derive(Serialize)]
struct EndToEnd {
    model: String,
    devices: usize,
    images: usize,
    ips: f64,
    mean_latency_ms: f64,
}

#[derive(Serialize)]
struct KernelBench {
    /// The micro-kernel arm auto-dispatch selected on this machine.
    simd_arch: String,
    /// The int8 micro-kernel arm auto-dispatch selected on this machine.
    qkernel_arch: String,
    /// Per-shape, per-variant timings.
    conv: Vec<ConvShape>,
    /// The acceptance shape's direct→packed-SIMD speedup.
    vgg_3x3_c64_speedup: f64,
    /// Int8 acceptance: effective int8 GOP/s over f32 SIMD GFLOP/s on the
    /// deep 3×3 c512 shape (the bar is ≥ 1.5×).
    deep_3x3_c512_int8_vs_f32: f64,
    /// End-to-end IPS through the runtime (deploy-time packing, three
    /// providers).
    end_to_end: Vec<EndToEnd>,
}

fn conv_input(c_in: usize, h: usize, w: usize) -> Tensor {
    Tensor::from_fn([c_in, h, w], |c, y, x| {
        ((c * 31 + y * 7 + x) % 13) as f32 * 0.1
    })
}

fn conv_weights(c_in: usize, c_out: usize, f: usize) -> (Vec<f32>, Vec<f32>) {
    let weights: Vec<f32> = (0..im2col_weight_len(c_in, c_out, f))
        .map(|i| ((i % 11) as f32 - 5.0) * 0.05)
        .collect();
    let bias = vec![0.01; c_out];
    (weights, bias)
}

/// Times `f` over `samples` runs (after one warm-up) and returns mean ns.
fn time_ns<O>(samples: usize, mut f: impl FnMut() -> O) -> f64 {
    black_box(f());
    let t0 = Instant::now();
    for _ in 0..samples {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e9 / samples as f64
}

fn bench_conv_paths(c: &mut Criterion) -> Vec<ConvShape> {
    // VGG-style shapes: the acceptance shape first (3×3, c_in=c_out=64 at
    // 56×56 — a conv3-block layer), then the stem, a mid and a deep layer.
    let shapes: &[(&str, usize, usize, usize, usize)] = &[
        ("vgg_3x3_c64_56", 64, 64, 56, 3),
        ("stem_3x3_c3_to_64_224", 3, 64, 224, 3),
        ("mid_3x3_c128_28", 128, 128, 28, 3),
        ("deep_3x3_c512_14", 512, 512, 14, 3),
    ];
    let mut out = Vec::new();
    let mut group = c.benchmark_group("conv2d");
    group.sample_size(10);
    for &(label, c_in, c_out, hw, f) in shapes {
        let input = conv_input(c_in, hw, hw);
        let (weights, bias) = conv_weights(c_in, c_out, f);
        let filter = pack_conv_filter(&weights, c_in, c_out, f, 1).unwrap();
        let run_direct = || {
            conv2d_rows_direct(
                &input,
                0,
                hw,
                0,
                hw,
                &weights,
                &bias,
                c_out,
                f,
                1,
                1,
                Activation::Relu,
            )
            .unwrap()
        };
        let run_gemm = || {
            conv2d_rows_gemm(
                &input,
                0,
                hw,
                0,
                hw,
                filter.gemm().unwrap(),
                &bias,
                f,
                1,
                1,
                Activation::Relu,
            )
            .unwrap()
        };
        // The Winograd path, pinned directly — the router only takes it at
        // `winograd_preferred` channel counts, but the bench reports every
        // eligible shape so the crossover stays visible.
        let run_winograd = || {
            conv2d_rows_winograd(
                &input,
                0,
                hw,
                0,
                hw,
                filter.winograd().unwrap(),
                &bias,
                1,
                Activation::Relu,
            )
            .unwrap()
        };
        // The int8 quantized path: weights packed into i8 panels, the
        // activation scale calibrated from this input.
        let scale_in = quant_scale(input.data());
        let qfilter = pack_conv_filter_with(&weights, c_in, c_out, f, 1, Some(scale_in)).unwrap();
        let run_q8 = || {
            conv2d_rows_packed(
                &input,
                0,
                hw,
                0,
                hw,
                &qfilter,
                &bias,
                f,
                1,
                1,
                Activation::Relu,
            )
            .unwrap()
        };
        // The direct oracle gets fewer samples on the big shapes: it is the
        // slow side being measured.
        let direct_samples = if c_in >= 256 { 2 } else { 5 };
        let direct_ns = time_ns(direct_samples, run_direct);
        set_kernel_override(Some(KernelArch::Scalar));
        let packed_scalar_ns = time_ns(10, run_gemm);
        set_kernel_override(None);
        let packed_simd_ns = time_ns(10, run_gemm);
        let winograd_ns = if filter.winograd().is_some() {
            time_ns(10, run_winograd)
        } else {
            0.0
        };
        set_qkernel_override(Some(QKernelArch::Scalar));
        let int8_scalar_ns = time_ns(10, run_q8);
        set_qkernel_override(None);
        let int8_simd_ns = time_ns(10, run_q8);
        let winograd_routed = filter.winograd().is_some() && winograd_preferred(c_in, c_out);
        let f32_routed_ns = if winograd_routed {
            winograd_ns
        } else {
            packed_simd_ns
        };
        let flops = 2.0 * (f * f * c_in * c_out * hw * hw) as f64;
        let gflops = |ns: f64| if ns > 0.0 { flops / ns } else { 0.0 };
        out.push(ConvShape {
            label: label.to_string(),
            c_in,
            c_out,
            h: hw,
            w: hw,
            f,
            direct_ns,
            direct_gflops: gflops(direct_ns),
            packed_scalar_ns,
            packed_scalar_gflops: gflops(packed_scalar_ns),
            packed_simd_ns,
            packed_simd_gflops: gflops(packed_simd_ns),
            winograd_ns,
            winograd_gflops: gflops(winograd_ns),
            winograd_routed,
            int8_scalar_ns,
            int8_scalar_gops: gflops(int8_scalar_ns),
            int8_simd_ns,
            int8_simd_gops: gflops(int8_simd_ns),
            int8_vs_f32_simd: packed_simd_ns / int8_simd_ns,
            int8_vs_f32_routed: f32_routed_ns / int8_simd_ns,
            packed_ns: packed_simd_ns,
            speedup: direct_ns / packed_simd_ns,
            packed_gflops: gflops(packed_simd_ns),
        });
        group.bench_with_input(BenchmarkId::new("packed_simd", label), &label, |b, _| {
            b.iter(run_gemm)
        });
    }
    group.finish();
    out
}

fn three_device_plan(model: &Model) -> ExecutionPlan {
    let scheme = PartitionScheme::single_volume(model);
    let splits: Vec<VolumeSplit> = scheme
        .volumes()
        .iter()
        .map(|v| {
            let h = v.last_output_height(model);
            VolumeSplit::new(vec![h / 2, 3 * h / 4], h)
        })
        .collect();
    ExecutionPlan::from_splits(model, &scheme, &splits, 3).unwrap()
}

fn end_to_end(model: &Model, images: usize) -> EndToEnd {
    let weights = ModelWeights::deterministic(model, 7);
    let plan = three_device_plan(model);
    let batch: Vec<Tensor> = (0..images)
        .map(|i| deterministic_input(model, i as u64))
        .collect();
    let outcome = execute_in_process(
        model,
        &plan,
        &weights,
        &batch,
        &RuntimeOptions::default().with_max_in_flight(2),
    )
    .unwrap();
    EndToEnd {
        model: model.name().to_string(),
        devices: 3,
        images,
        ips: outcome.report.measured_ips,
        mean_latency_ms: outcome.report.sim.mean_latency_ms,
    }
}

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("maxpool2d");
    group.sample_size(10);
    let input = Tensor::from_fn([32, 64, 64], |c, y, x| ((c + y + x) % 7) as f32);
    group.bench_function("2x2_stride2", |b| {
        b.iter(|| black_box(maxpool2d(black_box(&input), 2, 2)))
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let conv = bench_conv_paths(c);
    bench_pool(c);

    // End-to-end packed-runtime throughput: the tiny test model and the
    // paper-scale VGG-11 (which the direct kernels could not serve at all).
    let e2e = vec![
        end_to_end(&zoo::tiny_vgg(), 8),
        end_to_end(&zoo::vgg11(), 2),
    ];

    let vgg_3x3_c64_speedup = conv
        .iter()
        .find(|s| s.label == "vgg_3x3_c64_56")
        .map(|s| s.speedup)
        .unwrap_or(0.0);
    let deep_3x3_c512_int8_vs_f32 = conv
        .iter()
        .find(|s| s.label == "deep_3x3_c512_14")
        .map(|s| s.int8_vs_f32_simd)
        .unwrap_or(0.0);
    let out = KernelBench {
        simd_arch: kernel_arch().label().to_string(),
        qkernel_arch: qkernel_arch().label().to_string(),
        conv,
        vgg_3x3_c64_speedup,
        deep_3x3_c512_int8_vs_f32,
        end_to_end: e2e,
    };
    println!(
        "micro-kernel arm: {} (int8: {})",
        out.simd_arch, out.qkernel_arch
    );
    for s in &out.conv {
        println!(
            "conv {:<24} direct {:>7.1}  scalar {:>7.1}  simd {:>7.1}  winograd {:>7.1}{}  int8 {:>7.1} ({:.2}x f32 simd, {:.2}x f32 routed)  GFLOP/s",
            s.label,
            s.direct_gflops,
            s.packed_scalar_gflops,
            s.packed_simd_gflops,
            s.winograd_gflops,
            if s.winograd_routed { "" } else { " (not routed)" },
            s.int8_simd_gops,
            s.int8_vs_f32_simd,
            s.int8_vs_f32_routed,
        );
    }
    for e in &out.end_to_end {
        println!(
            "e2e  {:<24} {} images on {} devices: {:.2} IPS ({:.0} ms mean latency)",
            e.model, e.images, e.devices, e.ips, e.mean_latency_ms
        );
    }
    let json = serde_json::to_string(&out).unwrap();
    // Anchor at the workspace root so the artifact lands in one place no
    // matter what cwd cargo runs the bench with.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
    std::fs::write(&path, &json).unwrap();
    println!("BENCH_kernels.json: {json}");
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
