//! Property-based equivalence of the packed convolution paths against the
//! direct loop-nest oracle.
//!
//! Invariants across random geometries (channels, filter, stride, padding,
//! band splits):
//!
//! * **oracle agreement (GEMM)** — the im2col GEMM path matches the direct
//!   kernel within `1e-4` (the paths sum in different orders only over the
//!   zero-padding taps the direct kernel skips);
//! * **oracle agreement (Winograd)** — the Winograd F(2×2,3×3) path matches
//!   the direct kernel within a *relative* `1e-3` (its summation order
//!   differs by construction), over full outputs and halo-overlapped row
//!   bands alike;
//! * **band determinism** — on the routed packed path (GEMM or Winograd
//!   per layer geometry), computing a band split and stitching is
//!   *bit-exact* against the full-output call, for any cut points.  This
//!   is the stronger property the distributed runtime's bit-exactness
//!   tests rely on.
//! * **integer oracle (int8)** — the int8 path is *bitwise* equal to a
//!   direct loop nest over quantized codes with an exact `i32` sum and the
//!   kernel's one-expression f32 epilogue, on full outputs and offset
//!   bands, on the wide (column-tiled) and narrow GEMM drivers alike.

use proptest::prelude::*;
use proptest::TestCaseError;
use tensor::ops::{
    conv2d_direct, conv2d_rows_gemm, conv2d_rows_packed, conv2d_rows_winograd, im2col_weight_len,
    linear_direct, linear_packed, pack_conv_filter, pack_conv_filter_with, pack_linear_filter,
    qkernel_arch, quant_scale, quantize_i8, set_qkernel_override, Activation, QKernelArch,
};
use tensor::shape::{conv_out_dim, input_rows_for_output};
use tensor::slice::{concat_rows, slice_rows};
use tensor::Tensor;

fn pseudo_tensor(c: usize, h: usize, w: usize, seed: u64) -> Tensor {
    Tensor::from_fn([c, h, w], |ci, y, x| {
        let v = (ci as u64)
            .wrapping_mul(2654435761)
            .wrapping_add((y as u64).wrapping_mul(40503))
            .wrapping_add((x as u64).wrapping_mul(9973))
            .wrapping_add(seed);
        ((v % 2048) as f32 / 1024.0) - 1.0
    })
}

fn pseudo_weights(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let v = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((v % 1000) as f32 / 500.0) - 1.0
        })
        .collect()
}

/// Columns at which the quantized GEMM driver switches from one shared
/// whole-k B panel (narrow) to per-task column tiles (wide): `4 * NR`.
const QGEMM_WIDE_COLS: usize = 64;

/// Runs output rows `[out_start, out_end)` of an int8 conv through
/// `conv2d_rows_packed` on the minimal input band, and checks it bitwise
/// against the integer oracle: input codes `quantize_i8(x, scale_in)`,
/// weight codes `quantize_i8(w, s_w)`, an exact `i32` sum over the
/// in-bounds taps, then `act(b + sum · (scale_in · s_w))`.  `clip < 1`
/// shrinks `scale_in` below the input range so the `±127` clamp is hit.
/// Returns the GEMM column count `n` of the call (which driver ran).
fn check_int8_against_integer_oracle(
    (c_in, c_out, h, w): (usize, usize, usize, usize),
    (f, stride, padding): (usize, usize, usize),
    (out_start, out_end): (usize, usize),
    clip: f32,
    act: Activation,
    seed: u64,
) -> Result<usize, TestCaseError> {
    let input = pseudo_tensor(c_in, h, w, seed);
    let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0x0c0d);
    let bias = pseudo_weights(c_out, seed ^ 0x0b1a);
    let scale_in = quant_scale(input.data()) * clip;
    let filter = pack_conv_filter_with(&weights, c_in, c_out, f, stride, Some(scale_in)).unwrap();
    let scale_w = filter.quant().unwrap().scale();
    let out_w = conv_out_dim(w, f, stride, padding).unwrap();

    let (lo, hi) = input_rows_for_output(out_start, out_end, f, stride, padding, h);
    let band_in = if lo == hi {
        Tensor::from_vec([c_in, 0, w], Vec::new()).unwrap()
    } else {
        slice_rows(&input, lo, hi).unwrap()
    };
    let got = conv2d_rows_packed(
        &band_in, lo, h, out_start, out_end, &filter, &bias, f, stride, padding, act,
    )
    .unwrap();
    prop_assert_eq!(got.shape(), [c_out, out_end - out_start, out_w]);

    let s = scale_in * scale_w;
    for oc in 0..c_out {
        for (oy_local, oy) in (out_start..out_end).enumerate() {
            for ox in 0..out_w {
                let mut sum = 0i32;
                for ic in 0..c_in {
                    for ky in 0..f {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..f {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let a = quantize_i8(input.get(ic, iy as usize, ix as usize), scale_in);
                            let wq =
                                quantize_i8(weights[((oc * c_in + ic) * f + ky) * f + kx], scale_w);
                            sum += a as i32 * wq as i32;
                        }
                    }
                }
                let want = act.apply(bias[oc] + (sum as f32) * s);
                let have = got.get(oc, oy_local, ox);
                prop_assert!(
                    have.to_bits() == want.to_bits(),
                    "[{},{},{}] int8 {} != integer oracle {}",
                    oc,
                    oy,
                    ox,
                    have,
                    want
                );
            }
        }
    }
    Ok((out_end - out_start) * out_w)
}

/// Fixed int8 geometries pinning each case the property below draws at
/// random — strides 1 and 2, `padding > f/2`, a band starting past input
/// row 0 — on both the wide and the narrow quantized GEMM drivers.
#[test]
fn int8_conv_matches_integer_oracle_on_both_gemm_drivers() {
    // (dims, geometry, output rows, expect wide driver)
    let cases = [
        ((3, 7, 12, 12), (3, 1, 1), (0, 12), true),
        ((3, 7, 12, 12), (3, 1, 1), (5, 12), true),
        ((4, 5, 16, 17), (3, 2, 2), (0, 9), true),
        ((4, 5, 16, 17), (3, 2, 2), (3, 8), false),
        ((2, 9, 10, 9), (3, 1, 2), (0, 3), false),
        ((2, 9, 10, 9), (3, 1, 2), (7, 12), false),
        ((4, 5, 30, 30), (3, 2, 2), (5, 12), true),
        ((5, 3, 11, 14), (2, 2, 1), (2, 6), false),
        ((3, 6, 9, 20), (1, 1, 0), (4, 9), true),
        // An all-padding output row: its input band has no rows at all.
        ((3, 4, 6, 6), (1, 1, 1), (0, 1), false),
    ];
    for (i, (dims, geom, rows, wide)) in cases.into_iter().enumerate() {
        for (clip, act) in [(1.0, Activation::Relu), (0.6, Activation::LeakyRelu)] {
            let n = match check_int8_against_integer_oracle(
                dims,
                geom,
                rows,
                clip,
                act,
                i as u64 * 977,
            ) {
                Ok(n) => n,
                Err(TestCaseError::Fail(msg)) => panic!("case {i} (clip {clip}): {msg}"),
                Err(TestCaseError::Reject) => unreachable!("fixed cases assume nothing"),
            };
            assert_eq!(n >= QGEMM_WIDE_COLS, wide, "case {i} ran n = {n} columns");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Int8 conv ≡ the integer oracle *bitwise*, over random geometries,
    /// output bands (with their non-zero input row offsets) and scales —
    /// about a quarter of the draws at the calibrated scale, the rest
    /// clipping the input range.
    #[test]
    fn int8_conv_matches_integer_oracle(
        c_in in 1usize..6,
        c_out in 1usize..10,
        h in 6usize..24,
        w in 4usize..20,
        f in 1usize..5,
        stride in 1usize..3,
        pad_excess in 0usize..2,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
        clip in 0.3f32..1.3,
        seed in any::<u64>(),
    ) {
        let padding = f / 2 + pad_excess;
        prop_assume!(conv_out_dim(h, f, stride, padding).is_some());
        prop_assume!(conv_out_dim(w, f, stride, padding).is_some());
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();
        let a = (out_h as f64 * cut_a) as usize;
        let b = (out_h as f64 * cut_b) as usize;
        let (out_start, out_end) = (a.min(b), (a.max(b) + 1).min(out_h));
        check_int8_against_integer_oracle(
            (c_in, c_out, h, w), (f, stride, padding), (out_start, out_end), clip.min(1.0),
            Activation::LeakyRelu, seed,
        )?;
    }

    /// GEMM path ≡ direct oracle within 1e-4 for random conv geometries.
    #[test]
    fn gemm_conv_matches_direct_oracle(
        c_in in 1usize..6,
        c_out in 1usize..10,
        h in 6usize..24,
        w in 4usize..14,
        f in 1usize..5,
        stride in 1usize..3,
        pad_excess in 0usize..2,
        seed in any::<u64>(),
    ) {
        let padding = f / 2 + pad_excess;
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0xabc);
        let bias = pseudo_weights(c_out, seed ^ 0x123);
        prop_assume!(conv_out_dim(h, f, stride, padding).is_some());
        prop_assume!(conv_out_dim(w, f, stride, padding).is_some());

        let oracle = conv2d_direct(&input, &weights, &bias, c_out, f, stride, padding, Activation::Relu);
        // Pin the GEMM path (the router would send stride-1 3×3 draws to
        // Winograd, which has its own tolerance and property below).
        let filter = pack_conv_filter(&weights, c_in, c_out, f, stride).unwrap();
        let fast = conv2d_rows_gemm(
            &input, 0, h, 0, oracle.height(), filter.gemm().unwrap(), &bias, f, stride, padding,
            Activation::Relu,
        ).unwrap();
        prop_assert_eq!(fast.shape(), oracle.shape());
        let diff = fast.max_abs_diff(&oracle).unwrap();
        prop_assert!(diff <= 1e-4, "GEMM vs direct diff {diff}");
    }

    /// On the packed path, banded execution with minimal halos stitches
    /// bit-exactly into the full output, for random geometries and cuts.
    #[test]
    fn packed_band_stitch_is_bit_exact(
        c_in in 1usize..5,
        c_out in 1usize..8,
        h in 8usize..24,
        w in 4usize..12,
        f in 1usize..4,
        stride in 1usize..3,
        seed in any::<u64>(),
        cut_a in 0.1f64..0.9,
        cut_b in 0.1f64..0.9,
    ) {
        let padding = f / 2;
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0xdef);
        let bias = pseudo_weights(c_out, seed ^ 0x456);
        let filter = pack_conv_filter(&weights, c_in, c_out, f, stride).unwrap();
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();
        prop_assume!(out_h >= 3);

        let full = conv2d_rows_packed(
            &input, 0, h, 0, out_h, &filter, &bias, f, stride, padding, Activation::LeakyRelu,
        ).unwrap();

        let mut cuts = [
            ((out_h as f64 * cut_a) as usize).clamp(1, out_h - 1),
            ((out_h as f64 * cut_b) as usize).clamp(1, out_h - 1),
        ];
        cuts.sort_unstable();
        let bounds = [0, cuts[0], cuts[1], out_h];
        let mut bands = Vec::new();
        for pair in bounds.windows(2) {
            let (lo_out, hi_out) = (pair[0], pair[1]);
            if lo_out == hi_out {
                continue;
            }
            let (lo, hi) = input_rows_for_output(lo_out, hi_out, f, stride, padding, h);
            let band_in = slice_rows(&input, lo, hi).unwrap();
            let band = conv2d_rows_packed(
                &band_in, lo, h, lo_out, hi_out, &filter, &bias, f, stride, padding,
                Activation::LeakyRelu,
            ).unwrap();
            bands.push(band);
        }
        let stitched = concat_rows(&bands).unwrap();
        prop_assert_eq!(stitched, full);
    }

    /// The Winograd path (pinned directly — the router only takes it at
    /// `winograd_preferred` channel counts) ≡ direct oracle within relative
    /// 1e-3 — over the full output and over halo-overlapped row bands —
    /// and banded Winograd outputs stitch bit-exactly into the full
    /// Winograd output.
    #[test]
    fn winograd_matches_direct_oracle_and_stitches_bitwise(
        c_in in 1usize..6,
        c_out in 1usize..10,
        h in 6usize..26,
        w in 4usize..16,
        padding in 0usize..3,
        seed in any::<u64>(),
        cut_a in 0.1f64..0.9,
        cut_b in 0.1f64..0.9,
    ) {
        let (f, stride) = (3usize, 1usize);
        prop_assume!(conv_out_dim(h, f, stride, padding).is_some());
        prop_assume!(conv_out_dim(w, f, stride, padding).is_some());
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0xbeef);
        let bias = pseudo_weights(c_out, seed ^ 0xfeed);
        let filter = pack_conv_filter(&weights, c_in, c_out, f, stride).unwrap();
        prop_assert!(filter.winograd().is_some(), "stride-1 3x3 must pack winograd panels");
        let wino = filter.winograd().unwrap();
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();
        prop_assume!(out_h >= 3);

        let oracle = conv2d_direct(&input, &weights, &bias, c_out, f, stride, padding, Activation::Relu);
        let full = conv2d_rows_winograd(
            &input, 0, h, 0, out_h, wino, &bias, padding, Activation::Relu,
        ).unwrap();
        prop_assert_eq!(full.shape(), oracle.shape());
        for (i, (&a, &b)) in full.data().iter().zip(oracle.data()).enumerate() {
            let tol = 1e-3 * (1.0 + a.abs().max(b.abs()));
            prop_assert!((a - b).abs() <= tol, "winograd vs direct at [{i}]: {a} vs {b}");
        }

        // Random (possibly odd — tile-splitting) cuts: each band computed
        // from its minimal halo slice must equal the full output's rows
        // bitwise, and the stitch must reassemble the full output.
        let mut cuts = [
            ((out_h as f64 * cut_a) as usize).clamp(1, out_h - 1),
            ((out_h as f64 * cut_b) as usize).clamp(1, out_h - 1),
        ];
        cuts.sort_unstable();
        let bounds = [0, cuts[0], cuts[1], out_h];
        let mut bands = Vec::new();
        for pair in bounds.windows(2) {
            let (lo_out, hi_out) = (pair[0], pair[1]);
            if lo_out == hi_out {
                continue;
            }
            let (lo, hi) = input_rows_for_output(lo_out, hi_out, f, stride, padding, h);
            let band_in = slice_rows(&input, lo, hi).unwrap();
            let band = conv2d_rows_winograd(
                &band_in, lo, h, lo_out, hi_out, wino, &bias, padding, Activation::Relu,
            ).unwrap();
            prop_assert_eq!(&band, &slice_rows(&full, lo_out, hi_out).unwrap());
            bands.push(band);
        }
        prop_assert_eq!(concat_rows(&bands).unwrap(), full);
    }

    /// Int8 quantized path ≡ direct f32 oracle within the *analytic*
    /// quantization error bound, over random geometries — the
    /// ROADMAP-prescribed analogue of the Winograd rel-1e-3 oracle, with
    /// the tolerance derived instead of guessed:
    /// `|Δ| ≤ s_w/2·Σ|a| + s_a/2·Σ|w| + K·s_a·s_w/4` per output element
    /// (half-ulp rounding on each side plus the cross term; ReLU is
    /// 1-Lipschitz so the bound survives the activation).
    #[test]
    fn quantized_conv_matches_direct_within_bound(
        c_in in 1usize..6,
        c_out in 1usize..10,
        h in 6usize..24,
        w in 4usize..14,
        f in 1usize..5,
        stride in 1usize..3,
        pad_excess in 0usize..2,
        seed in any::<u64>(),
    ) {
        let padding = f / 2 + pad_excess;
        prop_assume!(conv_out_dim(h, f, stride, padding).is_some());
        prop_assume!(conv_out_dim(w, f, stride, padding).is_some());
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0x9a7);
        let bias = pseudo_weights(c_out, seed ^ 0x5c3);
        let scale_in = quant_scale(input.data());
        let filter = pack_conv_filter_with(&weights, c_in, c_out, f, stride, Some(scale_in)).unwrap();
        prop_assert!(filter.quant().is_some() && filter.gemm().is_none());
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();

        let q = conv2d_rows_packed(
            &input, 0, h, 0, out_h, &filter, &bias, f, stride, padding, Activation::Relu,
        ).unwrap();
        let oracle = conv2d_direct(&input, &weights, &bias, c_out, f, stride, padding, Activation::Relu);
        prop_assert_eq!(q.shape(), oracle.shape());

        let scale_w = filter.quant().unwrap().scale();
        let abs_in = Tensor::from_fn(input.shape(), |c, y, x| input.get(c, y, x).abs());
        let ones = vec![1.0; im2col_weight_len(c_in, 1, f)];
        let a_l1 = conv2d_direct(&abs_in, &ones, &[0.0], 1, f, stride, padding, Activation::None);
        let k = c_in * f * f;
        for oc in 0..c_out {
            let w_l1: f32 = weights[oc * k..(oc + 1) * k].iter().map(|v| v.abs()).sum();
            for oy in 0..q.height() {
                for ox in 0..q.width() {
                    let bound = 0.5 * scale_w * a_l1.get(0, oy, ox)
                        + 0.5 * scale_in * w_l1
                        + 0.25 * (k as f32) * scale_in * scale_w
                        + 1e-3 * (1.0 + oracle.get(oc, oy, ox).abs());
                    let diff = (q.get(oc, oy, ox) - oracle.get(oc, oy, ox)).abs();
                    prop_assert!(diff <= bound, "[{},{},{}] diff {} > bound {}", oc, oy, ox, diff, bound);
                }
            }
        }
    }

    /// On the int8 path, banded execution with minimal halos stitches
    /// *bit-exactly* into the full output (the deploy-time activation
    /// scale is shared by every band), and every available int8 dispatch
    /// arm produces bit-identical outputs.
    #[test]
    fn quantized_band_stitch_is_bit_exact_across_arms(
        c_in in 1usize..5,
        c_out in 1usize..8,
        h in 8usize..24,
        w in 4usize..12,
        f in 1usize..4,
        stride in 1usize..3,
        seed in any::<u64>(),
        cut_a in 0.1f64..0.9,
        cut_b in 0.1f64..0.9,
    ) {
        let padding = f / 2;
        let input = pseudo_tensor(c_in, h, w, seed);
        let weights = pseudo_weights(im2col_weight_len(c_in, c_out, f), seed ^ 0x111);
        let bias = pseudo_weights(c_out, seed ^ 0x222);
        let scale_in = quant_scale(input.data());
        let filter = pack_conv_filter_with(&weights, c_in, c_out, f, stride, Some(scale_in)).unwrap();
        let out_h = conv_out_dim(h, f, stride, padding).unwrap();
        prop_assume!(out_h >= 3);

        let mut cuts = [
            ((out_h as f64 * cut_a) as usize).clamp(1, out_h - 1),
            ((out_h as f64 * cut_b) as usize).clamp(1, out_h - 1),
        ];
        cuts.sort_unstable();
        let bounds = [0, cuts[0], cuts[1], out_h];

        let mut per_arm: Vec<Tensor> = Vec::new();
        for arm in [QKernelArch::Scalar, QKernelArch::Avx2, QKernelArch::Vnni] {
            set_qkernel_override(Some(arm));
            if qkernel_arch() != arm {
                continue; // hardware tops out below this arm
            }
            let full = conv2d_rows_packed(
                &input, 0, h, 0, out_h, &filter, &bias, f, stride, padding, Activation::LeakyRelu,
            ).unwrap();
            let mut bands = Vec::new();
            for pair in bounds.windows(2) {
                let (lo_out, hi_out) = (pair[0], pair[1]);
                if lo_out == hi_out {
                    continue;
                }
                let (lo, hi) = input_rows_for_output(lo_out, hi_out, f, stride, padding, h);
                let band_in = slice_rows(&input, lo, hi).unwrap();
                let band = conv2d_rows_packed(
                    &band_in, lo, h, lo_out, hi_out, &filter, &bias, f, stride, padding,
                    Activation::LeakyRelu,
                ).unwrap();
                bands.push(band);
            }
            let stitched = concat_rows(&bands).unwrap();
            prop_assert!(stitched == full, "int8 bands must stitch bit-exactly ({})",
                arm.label());
            per_arm.push(full);
        }
        set_qkernel_override(None);
        for pair in per_arm.windows(2) {
            prop_assert!(pair[0] == pair[1], "int8 dispatch arms must be bit-exact");
        }
    }

    /// GEMM-routed linear ≡ serial oracle within 1e-4, and prepacked ≡
    /// per-call packing bit-exactly.
    #[test]
    fn gemm_linear_matches_direct_oracle(
        in_features in 1usize..600,
        out_features in 1usize..40,
        seed in any::<u64>(),
    ) {
        let input = Tensor::from_vec(
            [in_features, 1, 1],
            pseudo_weights(in_features, seed),
        ).unwrap();
        let weights = pseudo_weights(in_features * out_features, seed ^ 0x777);
        let bias = pseudo_weights(out_features, seed ^ 0x888);
        let oracle = linear_direct(&input, &weights, &bias, out_features, Activation::Relu).unwrap();
        let filter = pack_linear_filter(&weights, in_features, out_features).unwrap();
        let fast = linear_packed(&input, &filter, &bias, Activation::Relu).unwrap();
        let diff = fast.max_abs_diff(&oracle).unwrap();
        prop_assert!(diff <= 1e-4, "linear GEMM vs direct diff {diff}");
    }
}
