//! 2-D convolution kernels.
//!
//! Three implementations share one geometry/validation layer:
//!
//! * the **packed im2col + GEMM path** — the general production kernel.
//!   The input band is lowered on the fly into cache-sized column panels
//!   (the im2col B matrix, built k-slice by k-slice so it never
//!   materialises whole) and multiplied by the [`PackedFilter`] weight
//!   panels through the blocked GEMM in [`super::gemm`], with bias and
//!   activation fused into the last K block.
//! * the **Winograd F(2×2,3×3) path** ([`super::winograd`]) — the shortcut
//!   for stride-1 3×3 convolutions, which routes ~2.25× fewer multiplies
//!   through the very same GEMM micro-kernel.
//! * the **direct path** ([`conv2d_direct`] / [`conv2d_rows_direct`]) — the
//!   clarity-first 6-deep loop nest, kept as the test oracle the fast paths
//!   are validated against (within `1e-4` for GEMM, a relative `1e-3` for
//!   Winograd, whose summation order differs by construction).
//!
//! [`pack_conv_filter`] builds a [`PackedConvFilter`] carrying the GEMM
//! panels plus, when the geometry is Winograd-eligible, the transformed
//! Winograd panels; [`conv2d_rows_packed`] then routes each call by layer
//! geometry alone.  [`conv2d_rows`] / [`conv2d`] pack per call and take the
//! identical route, so prepacked and per-call execution stay bit-identical.
//!
//! All paths implement the same *row band* contract: the input tensor may
//! carry only a band of the original input rows (plus halo), zero padding
//! is applied relative to the original layer geometry, and a band of output
//! rows is produced — so stitched bands reproduce the full convolution
//! exactly.  Per-element accumulation order is independent of banding and
//! tiling on every path (see the `gemm` and `winograd` module docs), which
//! is what keeps distributed execution bit-exact against single-device
//! runs.

use super::activation::Activation;
use super::gemm::{gemm_bias_act_into, PackedFilter, NR};
use super::qgemm::{qgemm_bias_act_into, quant_byte, QuantizedFilter, QK};
use super::winograd::{
    conv2d_rows_winograd, winograd_eligible, winograd_preferred, WinogradFilter,
};
use crate::error::TensorError;
use crate::shape::{conv_out_dim, input_rows_for_output, Shape};
use crate::{Result, Tensor};
use rayon::prelude::*;

/// Length of a weight buffer for a convolution, in `[c_out][c_in][f][f]`
/// layout.
pub const fn im2col_weight_len(c_in: usize, c_out: usize, f: usize) -> usize {
    c_out * c_in * f * f
}

/// A convolution filter prepacked for the kernel path chosen for its
/// layer: the f32 im2col GEMM panels (plus the Winograd-transformed panels
/// when the layer is stride-1 3×3, see [`winograd_eligible`]), **or** the
/// int8 quantized panels when the deploy opted the layer into the
/// quantized path — quantized layers carry *only* the i8 panels, which is
/// what drops resident weight bytes ~4×.
///
/// Built once at deploy time by [`pack_conv_filter`] /
/// [`pack_conv_filter_with`]; consumed per frame by
/// [`conv2d_rows_packed`], which routes on what was packed — so every band
/// of a layer, on any device, takes the same path.
#[derive(Debug, Clone)]
pub struct PackedConvFilter {
    c_out: usize,
    gemm: Option<PackedFilter>,
    wino: Option<WinogradFilter>,
    quant: Option<QuantizedFilter>,
    scale_in: f32,
    f: usize,
    stride: usize,
}

impl PackedConvFilter {
    /// Number of output channels.
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// The f32 im2col GEMM panels (absent on quantized-only packs).
    pub fn gemm(&self) -> Option<&PackedFilter> {
        self.gemm.as_ref()
    }

    /// The Winograd-transformed panels, if the geometry is eligible.
    pub fn winograd(&self) -> Option<&WinogradFilter> {
        self.wino.as_ref()
    }

    /// The int8 quantized panels, if this layer was packed quantized.
    pub fn quant(&self) -> Option<&QuantizedFilter> {
        self.quant.as_ref()
    }

    /// The calibrated input-activation scale the quantized panels expect
    /// (`1.0` on f32 packs).
    pub fn scale_in(&self) -> f32 {
        self.scale_in
    }

    /// Bytes resident across every packed form.
    pub fn bytes(&self) -> usize {
        self.gemm.as_ref().map_or(0, PackedFilter::bytes)
            + self.wino.as_ref().map_or(0, WinogradFilter::bytes)
            + self.quant.as_ref().map_or(0, QuantizedFilter::bytes)
    }
}

/// Packs `[c_out][c_in][f][f]` convolution weights into every f32 panel
/// form the layer geometry can use (see [`PackedConvFilter`]).
///
/// This is the deploy-time half of the packed conv path: the result drops
/// into [`conv2d_rows_packed`] for every subsequent frame.
pub fn pack_conv_filter(
    weights: &[f32],
    c_in: usize,
    c_out: usize,
    f: usize,
    stride: usize,
) -> Result<PackedConvFilter> {
    pack_conv_filter_with(weights, c_in, c_out, f, stride, None)
}

/// Packs convolution weights, choosing the panel form from the quantization
/// decision: `quant_scale_in: Some(s_in)` packs **only** the int8 panels
/// (against the calibrated input-activation scale `s_in`), `None` packs the
/// f32 forms exactly like [`pack_conv_filter`].  What gets packed here is
/// what [`conv2d_rows_packed`] routes to.
pub fn pack_conv_filter_with(
    weights: &[f32],
    c_in: usize,
    c_out: usize,
    f: usize,
    stride: usize,
    quant_scale_in: Option<f32>,
) -> Result<PackedConvFilter> {
    if weights.len() != im2col_weight_len(c_in, c_out, f) {
        return Err(TensorError::KernelConfig(format!(
            "conv weights length {} != c_out*c_in*f*f = {}",
            weights.len(),
            im2col_weight_len(c_in, c_out, f)
        )));
    }
    if let Some(scale_in) = quant_scale_in {
        let quant = QuantizedFilter::pack(weights, c_out, c_in * f * f)?;
        return Ok(PackedConvFilter {
            c_out,
            gemm: None,
            wino: None,
            quant: Some(quant),
            scale_in,
            f,
            stride,
        });
    }
    let gemm = PackedFilter::pack(weights, c_out, c_in * f * f)?;
    let wino = if winograd_eligible(f, stride) {
        Some(WinogradFilter::pack(weights, c_in, c_out)?)
    } else {
        None
    };
    Ok(PackedConvFilter {
        c_out,
        gemm: Some(gemm),
        wino,
        quant: None,
        scale_in: 1.0,
        f,
        stride,
    })
}

/// Validated geometry of one banded convolution call.
pub(super) struct BandGeometry {
    pub(super) c_in: usize,
    pub(super) band_h: usize,
    pub(super) w_in: usize,
    pub(super) out_w: usize,
}

/// Shared validation for every kernel path: weight/bias lengths, output row
/// range, and halo coverage of the input band.
#[allow(clippy::too_many_arguments)]
pub(super) fn validate_band(
    input: &Tensor,
    in_row_offset: usize,
    orig_h_in: usize,
    out_start: usize,
    out_end: usize,
    bias_len: usize,
    c_out: usize,
    f: usize,
    stride: usize,
    padding: usize,
) -> Result<BandGeometry> {
    let [c_in, band_h, w_in] = input.shape();
    if bias_len != c_out {
        return Err(TensorError::KernelConfig(format!(
            "conv bias length {bias_len} != c_out {c_out}"
        )));
    }
    let out_h_full = conv_out_dim(orig_h_in, f, stride, padding)
        .ok_or_else(|| TensorError::KernelConfig("convolution does not fit input".into()))?;
    let out_w = conv_out_dim(w_in, f, stride, padding)
        .ok_or_else(|| TensorError::KernelConfig("convolution does not fit input width".into()))?;
    if out_end > out_h_full || out_start >= out_end {
        return Err(TensorError::InvalidRowRange {
            start: out_start,
            end: out_end,
            rows: out_h_full,
        });
    }
    // Check halo coverage: the real input rows needed must lie inside the band.
    let (need_lo, need_hi) =
        input_rows_for_output(out_start, out_end, f, stride, padding, orig_h_in);
    if need_lo < in_row_offset || need_hi > in_row_offset + band_h {
        return Err(TensorError::KernelConfig(format!(
            "input band rows {}..{} do not cover required rows {}..{}",
            in_row_offset,
            in_row_offset + band_h,
            need_lo,
            need_hi
        )));
    }
    Ok(BandGeometry {
        c_in,
        band_h,
        w_in,
        out_w,
    })
}

/// Full 2-D convolution over the whole input (packed im2col + GEMM path,
/// packing the filter per call).
///
/// `weights` is laid out `[c_out][c_in][f][f]`, `bias` has one entry per
/// output channel.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    c_out: usize,
    f: usize,
    stride: usize,
    padding: usize,
    act: Activation,
) -> Tensor {
    let h_in = input.height();
    let out_h = conv_out_dim(h_in, f, stride, padding).expect("invalid conv geometry");
    conv2d_rows(
        input, 0, h_in, 0, out_h, weights, bias, c_out, f, stride, padding, act,
    )
    .expect("full conv2d over valid geometry cannot fail")
}

/// Convolution of a row band (packed im2col + GEMM path, packing the filter
/// per call).
///
/// * `input` holds original input rows `[in_row_offset, in_row_offset + input.height())`.
/// * `orig_h_in` is the height of the *full* layer input; zero padding is
///   applied at rows `< 0` and `>= orig_h_in` only.
/// * Output rows `[out_start, out_end)` (in full-layer coordinates) are
///   produced.
///
/// Returns an error if the input band does not cover every real input row
/// the requested output rows need.  Bit-identical to
/// [`conv2d_rows_packed`] over a filter packed with [`pack_conv_filter`] —
/// packing is pure data movement and the routing decision is the same.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_rows(
    input: &Tensor,
    in_row_offset: usize,
    orig_h_in: usize,
    out_start: usize,
    out_end: usize,
    weights: &[f32],
    bias: &[f32],
    c_out: usize,
    f: usize,
    stride: usize,
    padding: usize,
    act: Activation,
) -> Result<Tensor> {
    let filter = pack_conv_filter(weights, input.channels(), c_out, f, stride)?;
    conv2d_rows_packed(
        input,
        in_row_offset,
        orig_h_in,
        out_start,
        out_end,
        &filter,
        bias,
        f,
        stride,
        padding,
        act,
    )
}

/// Convolution of a row band over a prepacked filter — the per-frame hot
/// path.  Routes by what deploy packed: int8 panels take the quantized
/// GEMM path, otherwise stride-1 3×3 layers with enough channels to
/// amortise the transforms (see
/// [`winograd_preferred`](super::winograd::winograd_preferred)) take the
/// Winograd F(2×2,3×3) path, everything else the f32 im2col GEMM path.
///
/// Because the route depends only on the pack — never on the band shape —
/// every band of a layer takes the same path on every device, and banded
/// outputs stitch bit-exactly against a full-input call.
///
/// `filter` must come from [`pack_conv_filter`] /
/// [`pack_conv_filter_with`] with matching geometry.  Band semantics are
/// identical to [`conv2d_rows`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_rows_packed(
    input: &Tensor,
    in_row_offset: usize,
    orig_h_in: usize,
    out_start: usize,
    out_end: usize,
    filter: &PackedConvFilter,
    bias: &[f32],
    f: usize,
    stride: usize,
    padding: usize,
    act: Activation,
) -> Result<Tensor> {
    if f != filter.f || stride != filter.stride {
        return Err(TensorError::KernelConfig(format!(
            "conv call geometry (f={f}, stride={stride}) != packed filter geometry (f={}, stride={})",
            filter.f, filter.stride
        )));
    }
    if let Some(quant) = filter.quant() {
        return conv2d_rows_q8(
            input,
            in_row_offset,
            orig_h_in,
            out_start,
            out_end,
            quant,
            filter.scale_in,
            bias,
            f,
            stride,
            padding,
            act,
        );
    }
    if let Some(wino) = filter
        .winograd()
        .filter(|w| winograd_preferred(w.c_in(), w.c_out()))
    {
        return conv2d_rows_winograd(
            input,
            in_row_offset,
            orig_h_in,
            out_start,
            out_end,
            wino,
            bias,
            padding,
            act,
        );
    }
    let gemm = filter.gemm().ok_or_else(|| {
        TensorError::KernelConfig("packed filter carries no f32 GEMM panels".into())
    })?;
    conv2d_rows_gemm(
        input,
        in_row_offset,
        orig_h_in,
        out_start,
        out_end,
        gemm,
        bias,
        f,
        stride,
        padding,
        act,
    )
}

/// Convolution of a row band on the im2col GEMM path over prepacked GEMM
/// panels: no packing, no im2col materialisation beyond one cache-sized
/// panel slice per tile.
///
/// This is the unconditional-GEMM entry [`conv2d_rows_packed`] routes
/// non-Winograd layers to; benches and equivalence tests also call it
/// directly to pin the path.  `filter.k()` must equal `c_in·f·f`
/// (`filter.m()` is `c_out`).  Band semantics are identical to
/// [`conv2d_rows`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_rows_gemm(
    input: &Tensor,
    in_row_offset: usize,
    orig_h_in: usize,
    out_start: usize,
    out_end: usize,
    filter: &PackedFilter,
    bias: &[f32],
    f: usize,
    stride: usize,
    padding: usize,
    act: Activation,
) -> Result<Tensor> {
    let c_out = filter.m();
    let geom = validate_band(
        input,
        in_row_offset,
        orig_h_in,
        out_start,
        out_end,
        bias.len(),
        c_out,
        f,
        stride,
        padding,
    )?;
    if filter.k() != geom.c_in * f * f {
        return Err(TensorError::KernelConfig(format!(
            "packed filter k {} != c_in*f*f = {}",
            filter.k(),
            geom.c_in * f * f
        )));
    }
    let out_rows = out_end - out_start;
    let out_w = geom.out_w;
    let n = out_rows * out_w;
    let (band_h, w_in) = (geom.band_h, geom.w_in);
    let in_data = input.data();
    let ff = f * f;

    // The im2col panel filler: writes B[k][j] = input value under filter
    // tap k at output pixel j, for one k-slice and one column tile.  The
    // interior is copied with no per-element bounds checks — for each
    // (output row, filter tap) pair the valid column interval is computed
    // once and only it is written; everything outside stays at the zero the
    // driver pre-cleared (that is the zero padding).
    let fill = move |k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [f32]| {
        let kc = k1 - k0;
        for k_abs in k0..k1 {
            let kk = k_abs - k0;
            let ic = k_abs / ff;
            let ky = (k_abs % ff) / f;
            let kx = k_abs % f;
            // Valid output-column interval for this kx: 0 <= ox*s + kx - p < w_in.
            let ox_lo = padding.saturating_sub(kx).div_ceil(stride);
            let ox_hi = if w_in + padding > kx {
                ((w_in - 1 + padding - kx) / stride + 1).min(out_w)
            } else {
                0
            };
            let in_plane = ic * band_h * w_in;
            let oy_first = j0 / out_w;
            let oy_last = (j1 - 1) / out_w;
            for oy_local in oy_first..=oy_last {
                let iy = ((out_start + oy_local) * stride + ky) as isize - padding as isize;
                if iy < 0 || iy >= orig_h_in as isize {
                    continue; // zero-padding row: the buffer is already zero
                }
                let band_y = iy as usize - in_row_offset;
                debug_assert!(band_y < band_h, "halo check guarantees coverage");
                let in_row = in_plane + band_y * w_in;
                // Columns of this output row that fall inside the tile.
                let seg0 = j0.max(oy_local * out_w);
                let seg1 = j1.min((oy_local + 1) * out_w);
                let ox_a = (seg0 - oy_local * out_w).max(ox_lo);
                let ox_b = (seg1 - oy_local * out_w).min(ox_hi);
                if ox_a >= ox_b {
                    continue;
                }
                if stride == 1 {
                    // Stride-1 fast path: both the source pixels (consecutive
                    // `ix`) and the destination lanes within one NR panel are
                    // contiguous, so the row copies in `memcpy`-sized runs —
                    // this is what lifts small-K layers (the stem's K=27)
                    // where the per-element scatter's div/mod dominated.
                    let mut jj = oy_local * out_w + ox_a - j0;
                    let jj_end = oy_local * out_w + ox_b - j0;
                    let mut ix = ox_a + kx - padding;
                    while jj < jj_end {
                        let (q, lane) = (jj / NR, jj % NR);
                        let take = (NR - lane).min(jj_end - jj);
                        let dst = (q * kc + kk) * NR + lane;
                        buf[dst..dst + take]
                            .copy_from_slice(&in_data[in_row + ix..in_row + ix + take]);
                        jj += take;
                        ix += take;
                    }
                } else {
                    let mut ix = ox_a * stride + kx - padding;
                    for ox in ox_a..ox_b {
                        let jj = oy_local * out_w + ox - j0;
                        buf[((jj / NR) * kc + kk) * NR + (jj % NR)] = in_data[in_row + ix];
                        ix += stride;
                    }
                }
            }
        }
    };

    let mut data = vec![0.0f32; c_out * n];
    gemm_bias_act_into(filter, bias, act, n, &fill, &mut data)?;
    Tensor::from_vec(Shape::new(c_out, out_rows, out_w), data)
}

/// Convolution of a row band on the **int8 quantized** im2col GEMM path
/// over prepacked i8 panels: the band's activations are quantized against
/// the calibrated `scale_in` once up front (one [`quant_byte`] per band
/// element, in parallel over channel planes), the im2col panels are filled
/// by copying those bytes, multiplied in i32, and dequantized in the fused
/// epilogue with bias and activation.
///
/// `scale_in` must be the *same* for every band of a layer (it is fixed at
/// deploy-time calibration); together with order-independent integer
/// accumulation and the fixed f32 epilogue this keeps banded outputs
/// bit-exact against a full-input call — on any int8 dispatch arm.
/// Accuracy against the f32 path is bounded by the quantization step
/// (relative ~1/127 per tensor), validated end-to-end in
/// `prop_conv_gemm.rs`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_rows_q8(
    input: &Tensor,
    in_row_offset: usize,
    orig_h_in: usize,
    out_start: usize,
    out_end: usize,
    filter: &QuantizedFilter,
    scale_in: f32,
    bias: &[f32],
    f: usize,
    stride: usize,
    padding: usize,
    act: Activation,
) -> Result<Tensor> {
    let c_out = filter.m();
    let geom = validate_band(
        input,
        in_row_offset,
        orig_h_in,
        out_start,
        out_end,
        bias.len(),
        c_out,
        f,
        stride,
        padding,
    )?;
    if filter.k() != geom.c_in * f * f {
        return Err(TensorError::KernelConfig(format!(
            "quantized filter k {} != c_in*f*f = {}",
            filter.k(),
            geom.c_in * f * f
        )));
    }
    let out_rows = out_end - out_start;
    let out_w = geom.out_w;
    let n = out_rows * out_w;
    let (band_h, w_in) = (geom.band_h, geom.w_in);
    let ff = f * f;

    // Quantize the band once, one offset byte per activation, a channel
    // plane per task on the shared pool.  A 3×3 layer reads each
    // activation nine times below; quantizing here instead of in the
    // filler does the divide / round / clamp once per activation.
    let plane = band_h * w_in;
    let in_data = input.data();
    let mut codes = vec![0u8; in_data.len()];
    codes
        .par_chunks_mut(plane.max(1)) // an all-padding band has no rows
        .enumerate()
        .for_each(|(ic, chunk)| {
            let src = &in_data[ic * plane..(ic + 1) * plane];
            for (q, &x) in chunk.iter_mut().zip(src) {
                *q = quant_byte(x, scale_in);
            }
        });
    let codes = &codes;

    // The im2col filler: the f32 filler's geometry walk, copying the
    // band's bytes into the quad-major panels.  Padding positions stay at
    // the 128 the driver pre-filled — exactly the quantization of zero
    // under any scale.
    let fill = move |k0: usize, k1: usize, j0: usize, j1: usize, buf: &mut [u8]| {
        let kcq = (k1 - k0).div_ceil(QK);
        for k_abs in k0..k1 {
            let kk = k_abs - k0;
            let (qd, l) = (kk / QK, kk % QK);
            let ic = k_abs / ff;
            let ky = (k_abs % ff) / f;
            let kx = k_abs % f;
            let ox_lo = padding.saturating_sub(kx).div_ceil(stride);
            let ox_hi = if w_in + padding > kx {
                ((w_in - 1 + padding - kx) / stride + 1).min(out_w)
            } else {
                0
            };
            let in_plane = ic * plane;
            let oy_first = j0 / out_w;
            let oy_last = (j1 - 1) / out_w;
            for oy_local in oy_first..=oy_last {
                let iy = ((out_start + oy_local) * stride + ky) as isize - padding as isize;
                if iy < 0 || iy >= orig_h_in as isize {
                    continue; // zero-padding row: the buffer is already 128
                }
                let band_y = iy as usize - in_row_offset;
                debug_assert!(band_y < band_h, "halo check guarantees coverage");
                let in_row = in_plane + band_y * w_in;
                let seg0 = j0.max(oy_local * out_w);
                let seg1 = j1.min((oy_local + 1) * out_w);
                let ox_a = (seg0 - oy_local * out_w).max(ox_lo);
                let ox_b = (seg1 - oy_local * out_w).min(ox_hi);
                if ox_a >= ox_b {
                    continue;
                }
                // Walk the segment one NR-column panel at a time: within a
                // panel, consecutive columns sit QK bytes apart.
                let mut jj = oy_local * out_w + ox_a - j0;
                let jj_end = oy_local * out_w + ox_b - j0;
                let mut ix = in_row + ox_a * stride + kx - padding;
                while jj < jj_end {
                    let (q, lane) = (jj / NR, jj % NR);
                    let take = (NR - lane).min(jj_end - jj);
                    let dst = ((q * kcq + qd) * NR + lane) * QK + l;
                    for t in 0..take {
                        buf[dst + t * QK] = codes[ix + t * stride];
                    }
                    jj += take;
                    ix += take * stride;
                }
            }
        }
    };

    let mut data = vec![0.0f32; c_out * n];
    qgemm_bias_act_into(filter, bias, act, scale_in, n, &fill, &mut data)?;
    Tensor::from_vec(Shape::new(c_out, out_rows, out_w), data)
}

/// Full 2-D convolution on the direct (loop-nest) path — the test oracle.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_direct(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    c_out: usize,
    f: usize,
    stride: usize,
    padding: usize,
    act: Activation,
) -> Tensor {
    let h_in = input.height();
    let out_h = conv_out_dim(h_in, f, stride, padding).expect("invalid conv geometry");
    conv2d_rows_direct(
        input, 0, h_in, 0, out_h, weights, bias, c_out, f, stride, padding, act,
    )
    .expect("full conv2d over valid geometry cannot fail")
}

/// Direct (loop-nest) convolution of a row band — the test oracle the GEMM
/// path is validated against.  Same band semantics as [`conv2d_rows`].
///
/// Parallelised over output channels, each rayon task writing its channel
/// plane directly into one pre-sized output buffer.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_rows_direct(
    input: &Tensor,
    in_row_offset: usize,
    orig_h_in: usize,
    out_start: usize,
    out_end: usize,
    weights: &[f32],
    bias: &[f32],
    c_out: usize,
    f: usize,
    stride: usize,
    padding: usize,
    act: Activation,
) -> Result<Tensor> {
    let geom = validate_band(
        input,
        in_row_offset,
        orig_h_in,
        out_start,
        out_end,
        bias.len(),
        c_out,
        f,
        stride,
        padding,
    )?;
    let (c_in, w_in) = (geom.c_in, geom.w_in);
    if weights.len() != im2col_weight_len(c_in, c_out, f) {
        return Err(TensorError::KernelConfig(format!(
            "conv weights length {} != c_out*c_in*f*f = {}",
            weights.len(),
            im2col_weight_len(c_in, c_out, f)
        )));
    }

    let out_rows = out_end - out_start;
    let out_w = geom.out_w;
    let plane_in = geom.band_h * w_in;
    let in_data = input.data();
    let pad = padding as isize;

    // One output channel plane per rayon task, written in place.
    let mut data = vec![0.0f32; c_out * out_rows * out_w];
    data.par_chunks_mut(out_rows * out_w)
        .enumerate()
        .for_each(|(oc, plane)| {
            let w_base = oc * c_in * f * f;
            for (oy_local, oy) in (out_start..out_end).enumerate() {
                let iy0 = oy as isize * stride as isize - pad;
                for ox in 0..out_w {
                    let ix0 = ox as isize * stride as isize - pad;
                    let mut acc = bias[oc];
                    for ic in 0..c_in {
                        let w_ch = w_base + ic * f * f;
                        let in_ch = ic * plane_in;
                        for ky in 0..f {
                            let iy = iy0 + ky as isize;
                            if iy < 0 || iy >= orig_h_in as isize {
                                continue;
                            }
                            let band_y = iy as usize - in_row_offset;
                            let row_base = in_ch + band_y * w_in;
                            let w_row = w_ch + ky * f;
                            for kx in 0..f {
                                let ix = ix0 + kx as isize;
                                if ix < 0 || ix >= w_in as isize {
                                    continue;
                                }
                                acc += in_data[row_base + ix as usize] * weights[w_row + kx];
                            }
                        }
                    }
                    plane[oy_local * out_w + ox] = act.apply(acc);
                }
            }
        });
    Tensor::from_vec(Shape::new(c_out, out_rows, out_w), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::input_rows_for_output;
    use crate::slice::{concat_rows, slice_rows};

    fn det_weights(c_in: usize, c_out: usize, f: usize) -> Vec<f32> {
        (0..im2col_weight_len(c_in, c_out, f))
            .map(|i| ((i % 7) as f32 - 3.0) * 0.25)
            .collect()
    }

    fn det_input(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn([c, h, w], |c, y, x| {
            ((c * 31 + y * 7 + x * 3) % 11) as f32 * 0.5 - 2.0
        })
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 conv with identity weights and zero bias copies the input.
        let input = det_input(2, 5, 5);
        let weights = vec![1.0, 0.0, 0.0, 1.0]; // [c_out=2][c_in=2][1][1]
        let bias = vec![0.0, 0.0];
        let out = conv2d(&input, &weights, &bias, 2, 1, 1, 0, Activation::None);
        assert!(out.approx_eq(&input, 1e-6));
    }

    #[test]
    fn bias_only_kernel() {
        let input = Tensor::zeros([1, 4, 4]);
        let weights = vec![0.0; 9];
        let bias = vec![2.5];
        let out = conv2d(&input, &weights, &bias, 1, 3, 1, 1, Activation::None);
        assert!(out.data().iter().all(|&v| (v - 2.5).abs() < 1e-6));
    }

    #[test]
    fn output_shape_stride_two() {
        let input = det_input(3, 11, 11);
        let weights = det_weights(3, 4, 3);
        let bias = vec![0.1; 4];
        let out = conv2d(&input, &weights, &bias, 4, 3, 2, 1, Activation::Relu);
        assert_eq!(out.shape(), [4, 6, 6]);
    }

    #[test]
    fn known_small_convolution() {
        // Single channel 3x3 input, 2x2 filter of ones, stride 1, no padding:
        // output[y][x] = sum of the 2x2 window.
        let input = Tensor::from_vec([1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let weights = vec![1.0; 4];
        let bias = vec![0.0];
        let out = conv2d(&input, &weights, &bias, 1, 2, 1, 0, Activation::None);
        assert_eq!(out.shape(), [1, 2, 2]);
        assert_eq!(out.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    /// Per-element relative closeness: `|a-b| <= rel * (1 + max(|a|,|b|))` —
    /// the tolerance shape the Winograd path is validated under (its
    /// summation order differs from the direct oracle by construction).
    fn assert_close_rel(fast: &Tensor, oracle: &Tensor, rel: f32, ctx: &str) {
        assert_eq!(fast.shape(), oracle.shape(), "{ctx}");
        for (i, (&a, &b)) in fast.data().iter().zip(oracle.data()).enumerate() {
            let tol = rel * (1.0 + a.abs().max(b.abs()));
            assert!((a - b).abs() <= tol, "{ctx}: [{i}] {a} vs {b}");
        }
    }

    #[test]
    fn fast_paths_match_direct_oracle() {
        // Representative geometries: odd channel counts (panel edges),
        // stride 2, 1x1 and 7x7 filters, asymmetric padding effects.  These
        // channel counts all route to the GEMM path (Winograd needs
        // `winograd_preferred` channel counts and is pinned directly by its
        // own tests); held to 1e-4 against the oracle.
        for &(c_in, c_out, h, w, f, s, p) in &[
            (2usize, 4usize, 20usize, 16usize, 3usize, 1usize, 1usize),
            (3, 5, 17, 13, 3, 2, 1),
            (4, 7, 12, 12, 1, 1, 0),
            (3, 6, 23, 23, 7, 2, 3),
            (1, 1, 8, 8, 5, 1, 2),
            (5, 33, 9, 7, 3, 1, 1),
            (2, 3, 10, 9, 3, 1, 0),
        ] {
            let input = det_input(c_in, h, w);
            let weights = det_weights(c_in, c_out, f);
            let bias: Vec<f32> = (0..c_out).map(|i| (i as f32) * 0.01 - 0.05).collect();
            let fast = conv2d(&input, &weights, &bias, c_out, f, s, p, Activation::Relu);
            let oracle = conv2d_direct(&input, &weights, &bias, c_out, f, s, p, Activation::Relu);
            let ctx = format!("({c_in},{c_out},{h},{w},f{f},s{s},p{p})");
            assert!(
                !(winograd_eligible(f, s) && winograd_preferred(c_in, c_out)),
                "{ctx}: shape list is meant to pin the GEMM route"
            );
            assert_eq!(fast.shape(), oracle.shape());
            assert!(
                fast.approx_eq(&oracle, 1e-4),
                "{ctx}: max diff {}",
                fast.max_abs_diff(&oracle).unwrap()
            );
        }
    }

    #[test]
    fn preferred_channels_route_to_winograd() {
        // A stride-1 3×3 layer with `winograd_preferred` channel counts
        // must take the Winograd route through the packed entry and still
        // match the direct oracle within the relative tolerance.
        let (c_in, c_out, h, w) = (128usize, 128usize, 10usize, 9usize);
        assert!(winograd_preferred(c_in, c_out));
        let input = det_input(c_in, h, w);
        let weights = det_weights(c_in, c_out, 3);
        let bias: Vec<f32> = (0..c_out).map(|i| (i as f32) * 0.01 - 0.05).collect();
        let filter = pack_conv_filter(&weights, c_in, c_out, 3, 1).unwrap();
        let routed = conv2d_rows_packed(
            &input,
            0,
            h,
            0,
            h,
            &filter,
            &bias,
            3,
            1,
            1,
            Activation::Relu,
        )
        .unwrap();
        // The routed output is the Winograd path's output, bitwise.
        let wino = conv2d_rows_winograd(
            &input,
            0,
            h,
            0,
            h,
            filter.winograd().unwrap(),
            &bias,
            1,
            Activation::Relu,
        )
        .unwrap();
        assert_eq!(routed, wino, "preferred channels must route to Winograd");
        let oracle = conv2d_direct(&input, &weights, &bias, c_out, 3, 1, 1, Activation::Relu);
        assert_close_rel(&routed, &oracle, 1e-3, "routed winograd c128");
    }

    #[test]
    fn quantized_pack_routes_tracks_oracle_and_stitches() {
        use super::super::qgemm::quant_scale;
        let (c_in, c_out, h, w, f, s, p) = (8usize, 10usize, 12usize, 11usize, 3, 1, 1);
        let input = det_input(c_in, h, w);
        let weights = det_weights(c_in, c_out, f);
        let bias: Vec<f32> = (0..c_out).map(|i| (i as f32) * 0.01 - 0.05).collect();
        let scale_in = quant_scale(input.data());
        let filter = pack_conv_filter_with(&weights, c_in, c_out, f, s, Some(scale_in)).unwrap();
        assert!(filter.quant().is_some() && filter.gemm().is_none());
        let routed = conv2d_rows_packed(
            &input,
            0,
            h,
            0,
            h,
            &filter,
            &bias,
            f,
            s,
            p,
            Activation::Relu,
        )
        .unwrap();

        // Analytic quantization error bound per output element:
        // |Δout| ≤ s_w/2·Σ|a| + s_a/2·Σ|w| + K·s_a·s_w/4 (ReLU is
        // 1-Lipschitz), where Σ|a| is the receptive-field L1 of the input.
        let oracle = conv2d_direct(&input, &weights, &bias, c_out, f, s, p, Activation::Relu);
        let scale_w = filter.quant().unwrap().scale();
        let abs_in = Tensor::from_fn(input.shape(), |c, y, x| input.get(c, y, x).abs());
        let ones = vec![1.0; im2col_weight_len(c_in, 1, f)];
        let a_l1 = conv2d_direct(&abs_in, &ones, &[0.0], 1, f, s, p, Activation::None);
        let k = c_in * f * f;
        for oc in 0..c_out {
            let w_l1: f32 = weights[oc * k..(oc + 1) * k].iter().map(|v| v.abs()).sum();
            for oy in 0..routed.height() {
                for ox in 0..routed.width() {
                    let bound = 0.5 * scale_w * a_l1.get(0, oy, ox)
                        + 0.5 * scale_in * w_l1
                        + 0.25 * (k as f32) * scale_in * scale_w
                        + 1e-3 * (1.0 + oracle.get(oc, oy, ox).abs());
                    let diff = (routed.get(oc, oy, ox) - oracle.get(oc, oy, ox)).abs();
                    assert!(
                        diff <= bound,
                        "[{oc},{oy},{ox}] diff {diff} > bound {bound}"
                    );
                }
            }
        }

        // Bands computed with the same deploy-time scale stitch bit-exactly.
        let full = routed;
        let cuts = [4usize, 9, 12];
        let mut start = 0usize;
        let mut bands = Vec::new();
        for &end in &cuts {
            let (lo, hi) = input_rows_for_output(start, end, f, s, p, h);
            let band_in = slice_rows(&input, lo, hi).unwrap();
            let band = conv2d_rows_packed(
                &band_in,
                lo,
                h,
                start,
                end,
                &filter,
                &bias,
                f,
                s,
                p,
                Activation::Relu,
            )
            .unwrap();
            bands.push(band);
            start = end;
        }
        let stitched = concat_rows(&bands).unwrap();
        assert_eq!(stitched, full, "quantized bands must stitch bit-exactly");
    }

    #[test]
    fn packed_path_is_bit_identical_to_per_call_packing() {
        let input = det_input(3, 14, 10);
        let weights = det_weights(3, 5, 3);
        let bias = vec![0.05; 5];
        let per_call = conv2d_rows(
            &input,
            0,
            14,
            2,
            12,
            &weights,
            &bias,
            5,
            3,
            1,
            1,
            Activation::Relu,
        )
        .unwrap();
        let filter = pack_conv_filter(&weights, 3, 5, 3, 1).unwrap();
        let prepacked = conv2d_rows_packed(
            &input,
            0,
            14,
            2,
            12,
            &filter,
            &bias,
            3,
            1,
            1,
            Activation::Relu,
        )
        .unwrap();
        assert_eq!(per_call, prepacked);
    }

    #[test]
    fn rows_band_matches_full_conv() {
        let input = det_input(3, 16, 9);
        let weights = det_weights(3, 5, 3);
        let bias = vec![0.05; 5];
        let (f, s, p) = (3, 1, 1);
        let full = conv2d(&input, &weights, &bias, 5, f, s, p, Activation::Relu);

        // Split output rows into 0..6, 6..11, 11..16 and compute each band from
        // the minimal halo slice of the input.  Bands must be *bit-exact*
        // against the full output on the GEMM path — the property the
        // distributed runtime relies on.
        let cuts = [6usize, 11, 16];
        let mut start = 0usize;
        let mut bands = Vec::new();
        for &end in &cuts {
            let (lo, hi) = input_rows_for_output(start, end, f, s, p, input.height());
            let band_in = slice_rows(&input, lo, hi).unwrap();
            let band_out = conv2d_rows(
                &band_in,
                lo,
                input.height(),
                start,
                end,
                &weights,
                &bias,
                5,
                f,
                s,
                p,
                Activation::Relu,
            )
            .unwrap();
            bands.push(band_out);
            start = end;
        }
        let stitched = concat_rows(&bands).unwrap();
        assert_eq!(stitched, full, "stitched bands must be bit-exact");
    }

    #[test]
    fn direct_rows_band_matches_direct_full() {
        let input = det_input(2, 12, 8);
        let weights = det_weights(2, 3, 3);
        let bias = vec![0.1; 3];
        let full = conv2d_direct(&input, &weights, &bias, 3, 3, 1, 1, Activation::Relu);
        let (lo, hi) = input_rows_for_output(4, 9, 3, 1, 1, 12);
        let band_in = slice_rows(&input, lo, hi).unwrap();
        let band = conv2d_rows_direct(
            &band_in,
            lo,
            12,
            4,
            9,
            &weights,
            &bias,
            3,
            3,
            1,
            1,
            Activation::Relu,
        )
        .unwrap();
        let full_band = slice_rows(&full, 4, 9).unwrap();
        assert_eq!(band, full_band);
    }

    #[test]
    fn rows_band_rejects_missing_halo() {
        let input = det_input(1, 10, 5);
        let weights = det_weights(1, 1, 3);
        let bias = vec![0.0];
        // Band carries rows 4..6 only but output rows 4..6 need input 3..7.
        let band = slice_rows(&input, 4, 6).unwrap();
        let r = conv2d_rows(
            &band,
            4,
            10,
            4,
            6,
            &weights,
            &bias,
            1,
            3,
            1,
            1,
            Activation::None,
        );
        assert!(r.is_err());
        let rd = conv2d_rows_direct(
            &band,
            4,
            10,
            4,
            6,
            &weights,
            &bias,
            1,
            3,
            1,
            1,
            Activation::None,
        );
        assert!(rd.is_err());
    }

    #[test]
    fn rejects_bad_weight_length() {
        let input = det_input(2, 5, 5);
        let r = conv2d_rows(
            &input,
            0,
            5,
            0,
            5,
            &[0.0; 10],
            &[0.0],
            1,
            3,
            1,
            1,
            Activation::None,
        );
        assert!(matches!(r, Err(TensorError::KernelConfig(_))));
    }

    #[test]
    fn rejects_mismatched_packed_filter() {
        // Filter packed for c_in=2 used on a 3-channel input.
        let weights = det_weights(2, 4, 3);
        let filter = pack_conv_filter(&weights, 2, 4, 3, 1).unwrap();
        let input = det_input(3, 6, 6);
        let r = conv2d_rows_packed(
            &input,
            0,
            6,
            0,
            6,
            &filter,
            &[0.0; 4],
            3,
            1,
            1,
            Activation::None,
        );
        assert!(matches!(r, Err(TensorError::KernelConfig(_))));
    }

    #[test]
    fn rejects_bad_bias_length() {
        let input = det_input(2, 5, 5);
        let weights = det_weights(2, 3, 3);
        let r = conv2d_rows(
            &input,
            0,
            5,
            0,
            5,
            &weights,
            &[0.0; 2],
            3,
            3,
            1,
            1,
            Activation::None,
        );
        assert!(matches!(r, Err(TensorError::KernelConfig(_))));
    }

    #[test]
    fn rejects_out_of_range_output_rows() {
        let input = det_input(1, 8, 8);
        let weights = det_weights(1, 1, 3);
        let r = conv2d_rows(
            &input,
            0,
            8,
            0,
            9,
            &weights,
            &[0.0],
            1,
            3,
            1,
            1,
            Activation::None,
        );
        assert!(r.is_err());
    }
}
