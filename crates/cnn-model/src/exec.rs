//! Execution of models and split-parts on the `tensor` engine.
//!
//! The distribution algorithms never need weights, but the reproduction must
//! demonstrate that a distribution strategy is *functionally lossless*: the
//! stitched outputs of the split-parts equal the output of the un-split
//! model.  This module generates deterministic pseudo-random weights for a
//! model, runs the full model, and runs individual split-parts from their
//! [`PartPlan`]s so integration tests can compare the two.
//!
//! Every entry point runs the packed im2col + GEMM kernels.  The raw
//! [`ModelWeights`] functions pack per call (fine for tests and one-shot
//! references); the serving runtime instead builds a [`PackedModelWeights`]
//! once at deploy and runs [`run_part_on_band_packed`] /
//! [`run_head_packed`] per frame — bit-identical outputs, zero per-frame
//! packing.

use crate::layer::{Layer, LayerOp};
use crate::model::Model;
use crate::volume::PartPlan;
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::ops::{
    conv2d_rows, conv2d_rows_packed, linear, linear_packed, linear_q8, maxpool2d_rows,
    pack_conv_filter_with, pack_linear_filter, quant_scale, Activation, PackedConvFilter,
    PackedFilter, QuantizedFilter,
};
use tensor::slice::slice_rows;
use tensor::{Shape, Tensor};

/// Deterministic weights for every layer of a model.
#[derive(Debug, Clone)]
pub struct ModelWeights {
    /// Per-layer `(weights, bias)`; pooling layers have empty vectors.
    pub layers: Vec<(Vec<f32>, Vec<f32>)>,
}

impl ModelWeights {
    /// Keeps only the layers whose index is in `keep`, replacing the rest
    /// with empty vectors.  The layer count (and indexing) is preserved, so
    /// sharded weights drop into every `run_*` entry point unchanged — the
    /// caller just must never execute a dropped layer.  This is how the
    /// runtime ships each provider only the layers its assigned split-parts
    /// (plus, for the head device, the FC head) actually run, instead of
    /// preloading the full model everywhere.
    pub fn shard(&self, keep: &std::collections::HashSet<usize>) -> Self {
        let layers = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                if keep.contains(&i) {
                    layer.clone()
                } else {
                    (Vec::new(), Vec::new())
                }
            })
            .collect();
        Self { layers }
    }

    /// Bytes of weights and biases actually resident in this set (dropped
    /// layers contribute nothing).
    pub fn resident_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|(w, b)| (w.len() + b.len()) * std::mem::size_of::<f32>())
            .sum()
    }

    /// Generates small random weights for `model`, seeded so that tests are
    /// reproducible.
    pub fn deterministic(model: &Model, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(model.len());
        for layer in model.layers() {
            let (w_len, b_len) = match layer.op {
                LayerOp::Conv { c_out, f, .. } => (c_out * layer.input.c * f * f, c_out),
                LayerOp::MaxPool { .. } => (0, 0),
                LayerOp::Fc { out_features } => (out_features * layer.input.volume(), out_features),
            };
            let w: Vec<f32> = (0..w_len).map(|_| rng.gen_range(-0.2..0.2)).collect();
            let b: Vec<f32> = (0..b_len).map(|_| rng.gen_range(-0.1..0.1)).collect();
            layers.push((w, b));
        }
        Self { layers }
    }
}

/// Per-layer activation scales for int8 quantized serving.
///
/// Entry `i` is the symmetric quantization scale of layer `i`'s *input*
/// activations (`0.0` = the layer stays on the f32 path).  The spec is
/// computed once at deploy on the device that holds the full weights
/// ([`QuantSpec::calibrate`]) and shipped to providers alongside their
/// weight shards — every device quantizing a layer against the *same*
/// static scale is what keeps band outputs bitwise stitchable.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSpec {
    scales: Vec<f32>,
}

impl QuantSpec {
    /// Minimum GEMM depth `c_in·f·f` for a conv layer to take the int8
    /// path (the VGG stem's K=27 stays f32).  Measured on the stem shape
    /// (3→64 @224, one core of an AVX-512/VNNI Xeon) int8 takes ~31 ms
    /// against f32's ~26 ms, though quantizing, filling and the integer
    /// GEMM together take only ~5 ms of it: at K=27 the cost is per
    /// *output*, not per multiply.  The int8 epilogue is a separate
    /// i32→f32 pass into a fresh per-tile buffer (~15 ms here), where the
    /// f32 GEMM fuses bias and activation into its last K block.
    pub const CONV_MIN_K: usize = 72;
    /// Minimum `in_features` for an FC layer to take the int8 path.
    pub const FC_MIN_IN: usize = 256;

    /// Wraps raw per-layer scales (`0.0` = not quantized).
    pub fn new(scales: Vec<f32>) -> Self {
        Self { scales }
    }

    /// Calibrates activation scales for `model` by running the f32
    /// reference over deterministic probe inputs and recording each
    /// quantizable layer's input range.  Requires the *full* weights —
    /// this runs on the deploying device, never on a provider holding a
    /// shard.
    pub fn calibrate(model: &Model, weights: &ModelWeights) -> Result<Self> {
        let mut max_abs = vec![0.0f32; model.len()];
        for seed in [0xCA11u64, 0xCA12, 0xCA13] {
            let input = deterministic_input(model, seed);
            let outs = run_full(model, weights, &input)?;
            for i in 0..model.len() {
                let t = if i == 0 { &input } else { &outs[i - 1] };
                for &v in t.data() {
                    max_abs[i] = max_abs[i].max(v.abs());
                }
            }
        }
        let scales = model
            .layers()
            .iter()
            .zip(&max_abs)
            .map(|(layer, &m)| {
                if Self::layer_is_quantizable(layer) {
                    quant_scale(&[m])
                } else {
                    0.0
                }
            })
            .collect();
        Ok(Self { scales })
    }

    /// Whether the routing policy sends this layer to the int8 kernels.
    pub fn layer_is_quantizable(layer: &Layer) -> bool {
        let k = match layer.op {
            LayerOp::Conv { f, .. } => {
                let k = layer.input.c * f * f;
                if k < Self::CONV_MIN_K {
                    return false;
                }
                k
            }
            LayerOp::Fc { .. } => {
                let k = layer.input.volume();
                if k < Self::FC_MIN_IN {
                    return false;
                }
                k
            }
            LayerOp::MaxPool { .. } => return false,
        };
        k <= tensor::ops::qgemm::MAX_QUANT_K
    }

    /// The input scale for layer `index`, or `None` when the layer runs f32.
    pub fn layer_scale(&self, index: usize) -> Option<f32> {
        match self.scales.get(index) {
            Some(&s) if s > 0.0 => Some(s),
            _ => None,
        }
    }

    /// Raw per-layer scales (`0.0` = not quantized).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Number of layers routed to the int8 kernels.
    pub fn quantized_layer_count(&self) -> usize {
        self.scales.iter().filter(|&&s| s > 0.0).count()
    }
}

/// One layer's weights in GEMM-panel form.
#[derive(Debug, Clone)]
pub enum PackedLayerWeights {
    /// A conv layer packed for every path its geometry can take: the im2col
    /// `[c_out] × [c_in·f·f]` panels always, plus the Winograd-transformed
    /// panels for stride-1 3×3 layers (see [`tensor::ops::PackedConvFilter`]).
    Conv {
        /// Prepacked conv panels (GEMM + Winograd where eligible).
        filter: PackedConvFilter,
        /// One bias entry per output channel.
        bias: Vec<f32>,
    },
    /// An FC layer packed into `[out] × [in]` GEMM panels.
    Fc {
        /// Prepacked GEMM panels.
        filter: PackedFilter,
        /// One bias entry per output feature.
        bias: Vec<f32>,
    },
    /// An FC layer packed into int8 quad panels for the quantized path.
    QFc {
        /// Prepacked int8 panels with per-row corrections.
        filter: QuantizedFilter,
        /// Calibrated input-activation scale.
        scale_in: f32,
        /// One bias entry per output feature.
        bias: Vec<f32>,
    },
    /// A pooling layer — no weights to pack.
    Pool,
    /// Not resident on this device (sharded out).
    Absent,
}

/// Deploy-time artifact: every resident layer's weights prepacked into GEMM
/// panels, so the per-frame hot path ([`run_part_on_band_packed`] /
/// [`run_head_packed`]) never repacks.
///
/// Built once from (possibly sharded) [`ModelWeights`] at deploy, and grown
/// layer-by-layer via [`PackedModelWeights::install_layer`] when a
/// `Reconfigure` delta shard arrives — so a plan swap repacks only the
/// layers that actually shipped.
#[derive(Debug, Clone)]
pub struct PackedModelWeights {
    layers: Vec<PackedLayerWeights>,
    quant: Option<QuantSpec>,
}

impl PackedModelWeights {
    /// Packs every resident layer of `weights` (empty layers of a shard
    /// become [`PackedLayerWeights::Absent`]) on the f32 paths.
    pub fn pack(model: &Model, weights: &ModelWeights) -> Result<Self> {
        Self::pack_with(model, weights, None)
    }

    /// [`PackedModelWeights::pack`] with an optional quantization spec:
    /// layers the spec covers are packed **int8-only** (quad panels plus a
    /// per-layer weight scale — no f32 panels kept, which is where the ~4×
    /// resident-weight shrink comes from); the rest pack exactly as the
    /// f32 path does.  The spec is retained so `Reconfigure` delta shards
    /// repack the same way via [`PackedModelWeights::install_layer`].
    pub fn pack_with(
        model: &Model,
        weights: &ModelWeights,
        quant: Option<&QuantSpec>,
    ) -> Result<Self> {
        if weights.layers.len() != model.len() {
            return Err(crate::ModelError::InvalidGeometry {
                layer: 0,
                reason: format!(
                    "weights cover {} layers, model has {}",
                    weights.layers.len(),
                    model.len()
                ),
            });
        }
        let layers = model
            .layers()
            .iter()
            .zip(&weights.layers)
            .enumerate()
            .map(|(i, (layer, (w, b)))| {
                Self::pack_layer(layer, w, b, quant.and_then(|q| q.layer_scale(i)))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            layers,
            quant: quant.cloned(),
        })
    }

    fn pack_layer(
        layer: &Layer,
        w: &[f32],
        b: &[f32],
        scale_in: Option<f32>,
    ) -> Result<PackedLayerWeights> {
        let geometry_err = |e: tensor::TensorError| crate::ModelError::InvalidGeometry {
            layer: layer.index,
            reason: e.to_string(),
        };
        let packed = match layer.op {
            LayerOp::MaxPool { .. } => PackedLayerWeights::Pool,
            LayerOp::Conv {
                c_out, f, stride, ..
            } => {
                if w.is_empty() && b.is_empty() {
                    PackedLayerWeights::Absent
                } else {
                    let filter =
                        pack_conv_filter_with(w, layer.input.c, c_out, f, stride, scale_in)
                            .map_err(geometry_err)?;
                    PackedLayerWeights::Conv {
                        filter,
                        bias: b.to_vec(),
                    }
                }
            }
            LayerOp::Fc { out_features } => {
                if w.is_empty() && b.is_empty() {
                    PackedLayerWeights::Absent
                } else if let Some(scale_in) = scale_in {
                    let filter = QuantizedFilter::pack(w, out_features, layer.input.volume())
                        .map_err(geometry_err)?;
                    PackedLayerWeights::QFc {
                        filter,
                        scale_in,
                        bias: b.to_vec(),
                    }
                } else {
                    let filter = pack_linear_filter(w, layer.input.volume(), out_features)
                        .map_err(geometry_err)?;
                    PackedLayerWeights::Fc {
                        filter,
                        bias: b.to_vec(),
                    }
                }
            }
        };
        Ok(packed)
    }

    /// Packs and installs one layer's raw weights (a `Reconfigure` delta
    /// shard) — the only packing a running provider ever does after deploy.
    /// Honors the quantization spec the pack was built with, so a delta
    /// shard lands on the same kernel path as a fresh deploy.
    pub fn install_layer(
        &mut self,
        model: &Model,
        index: usize,
        w: &[f32],
        b: &[f32],
    ) -> Result<()> {
        let layer =
            model
                .layers()
                .get(index)
                .ok_or_else(|| crate::ModelError::InvalidGeometry {
                    layer: index,
                    reason: format!("model has {} layers", model.len()),
                })?;
        let scale_in = self.quant.as_ref().and_then(|q| q.layer_scale(index));
        self.layers[index] = Self::pack_layer(layer, w, b, scale_in)?;
        Ok(())
    }

    /// The quantization spec this pack was built with, if any.
    pub fn quant(&self) -> Option<&QuantSpec> {
        self.quant.as_ref()
    }

    /// Per-layer packed weights.
    pub fn layers(&self) -> &[PackedLayerWeights] {
        &self.layers
    }

    /// Whether layer `index` is resident (packed or weight-free pooling).
    pub fn is_resident(&self, index: usize) -> bool {
        !matches!(self.layers[index], PackedLayerWeights::Absent)
    }

    /// Number of layers holding packed GEMM panels (conv / FC layers whose
    /// weights are resident).
    pub fn packed_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| {
                matches!(
                    l,
                    PackedLayerWeights::Conv { .. }
                        | PackedLayerWeights::Fc { .. }
                        | PackedLayerWeights::QFc { .. }
                )
            })
            .count()
    }

    /// Bytes of packed panels plus biases resident on this device.
    pub fn resident_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                PackedLayerWeights::Conv { filter, bias } => {
                    filter.bytes() + bias.len() * std::mem::size_of::<f32>()
                }
                PackedLayerWeights::Fc { filter, bias } => {
                    filter.bytes() + bias.len() * std::mem::size_of::<f32>()
                }
                PackedLayerWeights::QFc { filter, bias, .. } => {
                    filter.bytes() + bias.len() * std::mem::size_of::<f32>()
                }
                _ => 0,
            })
            .sum()
    }
}

/// Generates a deterministic input tensor for a model.
pub fn deterministic_input(model: &Model, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let s = model.input();
    Tensor::from_fn([s.c, s.h, s.w], |_, _, _| rng.gen_range(-1.0..1.0))
}

fn run_layer_full(layer: &Layer, weights: &(Vec<f32>, Vec<f32>), input: &Tensor) -> Result<Tensor> {
    run_layer_rows(layer, weights, input, 0, 0, layer.output.h)
}

/// Runs one layer over a row band.
///
/// `input` carries original input rows `[in_row_offset, …)`; output rows
/// `[out_lo, out_hi)` (full-layer coordinates) are produced.
fn run_layer_rows(
    layer: &Layer,
    weights: &(Vec<f32>, Vec<f32>),
    input: &Tensor,
    in_row_offset: usize,
    out_lo: usize,
    out_hi: usize,
) -> Result<Tensor> {
    let t = match layer.op {
        LayerOp::Conv {
            c_out,
            f,
            stride,
            padding,
            act,
        } => conv2d_rows(
            input,
            in_row_offset,
            layer.input.h,
            out_lo,
            out_hi,
            &weights.0,
            &weights.1,
            c_out,
            f,
            stride,
            padding,
            act,
        )
        .map_err(|e| crate::ModelError::InvalidGeometry {
            layer: layer.index,
            reason: e.to_string(),
        })?,
        LayerOp::MaxPool { f, stride } => maxpool2d_rows(
            input,
            in_row_offset,
            layer.input.h,
            out_lo,
            out_hi,
            f,
            stride,
        )
        .map_err(|e| crate::ModelError::InvalidGeometry {
            layer: layer.index,
            reason: e.to_string(),
        })?,
        LayerOp::Fc { out_features } => linear(
            input,
            &weights.0,
            &weights.1,
            out_features,
            Activation::Relu,
        )
        .map_err(|e| crate::ModelError::InvalidGeometry {
            layer: layer.index,
            reason: e.to_string(),
        })?,
    };
    Ok(t)
}

/// Runs one layer over a row band from prepacked weights — the per-frame
/// hot path: no packing, ever.
fn run_layer_rows_packed(
    layer: &Layer,
    packed: &PackedLayerWeights,
    input: &Tensor,
    in_row_offset: usize,
    out_lo: usize,
    out_hi: usize,
) -> Result<Tensor> {
    let geometry_err = |reason: String| crate::ModelError::InvalidGeometry {
        layer: layer.index,
        reason,
    };
    let t = match (&layer.op, packed) {
        (
            LayerOp::Conv {
                f,
                stride,
                padding,
                act,
                ..
            },
            PackedLayerWeights::Conv { filter, bias },
        ) => conv2d_rows_packed(
            input,
            in_row_offset,
            layer.input.h,
            out_lo,
            out_hi,
            filter,
            bias,
            *f,
            *stride,
            *padding,
            *act,
        )
        .map_err(|e| geometry_err(e.to_string()))?,
        (LayerOp::MaxPool { f, stride }, PackedLayerWeights::Pool) => maxpool2d_rows(
            input,
            in_row_offset,
            layer.input.h,
            out_lo,
            out_hi,
            *f,
            *stride,
        )
        .map_err(|e| geometry_err(e.to_string()))?,
        (LayerOp::Fc { .. }, PackedLayerWeights::Fc { filter, bias }) => {
            linear_packed(input, filter, bias, Activation::Relu)
                .map_err(|e| geometry_err(e.to_string()))?
        }
        (
            LayerOp::Fc { .. },
            PackedLayerWeights::QFc {
                filter,
                scale_in,
                bias,
            },
        ) => linear_q8(input, filter, *scale_in, bias, Activation::Relu)
            .map_err(|e| geometry_err(e.to_string()))?,
        (_, PackedLayerWeights::Absent) => {
            return Err(geometry_err(
                "layer weights are not resident on this device".into(),
            ))
        }
        _ => {
            return Err(geometry_err(
                "packed weights do not match the layer op".into(),
            ))
        }
    };
    Ok(t)
}

/// Runs the full model, returning the output of every layer (index `i` holds
/// the output of layer `i`).
pub fn run_full(model: &Model, weights: &ModelWeights, input: &Tensor) -> Result<Vec<Tensor>> {
    let mut outputs = Vec::with_capacity(model.len());
    let mut current = input.clone();
    for (layer, w) in model.layers().iter().zip(&weights.layers) {
        current = run_layer_full(layer, w, &current)?;
        outputs.push(current.clone());
    }
    Ok(outputs)
}

/// Runs the full model from prepacked weights, returning the final output —
/// the single-device reference for packed (including quantized) execution.
pub fn run_full_packed(
    model: &Model,
    packed: &PackedModelWeights,
    input: &Tensor,
) -> Result<Tensor> {
    let mut current = input.clone();
    for layer in model.layers() {
        let w = &packed.layers()[layer.index];
        current = run_layer_rows_packed(layer, w, &current, 0, 0, layer.output.h)?;
    }
    Ok(current)
}

/// Runs one split-part of a layer-volume.
///
/// `volume_input` is the *full* input feature map of the volume (the model
/// input for the first volume, the previous volume's stitched output
/// otherwise); the part extracts exactly the rows its [`PartPlan`] requires.
/// Returns `None` for an empty part.
pub fn run_part(
    model: &Model,
    weights: &ModelWeights,
    plan: &PartPlan,
    volume_input: &Tensor,
) -> Result<Option<Tensor>> {
    if plan.is_empty() {
        return Ok(None);
    }
    let (in_lo, in_hi) = plan.input_rows;
    let band = slice_rows(volume_input, in_lo, in_hi)
        .map_err(|e| crate::ModelError::InvalidSplit(e.to_string()))?;
    run_part_on_band(model, weights, plan, band).map(Some)
}

/// Runs one split-part directly on its input band — the entry point the
/// distributed runtime uses, where a provider only ever holds the halo band
/// `[plan.input_rows.0, plan.input_rows.1)` it received over the wire, never
/// the full volume input.
///
/// `band` must carry exactly the rows `plan.input_rows` of the volume input.
/// Takes the band by value: the caller (the runtime's compute thread, or
/// `run_part`) owns it and never needs it afterwards, so the hot path pays
/// no copy before the first kernel.
pub fn run_part_on_band(
    model: &Model,
    weights: &ModelWeights,
    plan: &PartPlan,
    band: Tensor,
) -> Result<Tensor> {
    let (in_lo, in_hi) = plan.input_rows;
    if plan.is_empty() {
        return Err(crate::ModelError::InvalidSplit(
            "run_part_on_band called on an empty part".into(),
        ));
    }
    if band.height() != in_hi - in_lo {
        return Err(crate::ModelError::InvalidSplit(format!(
            "band carries {} rows, part needs rows {in_lo}..{in_hi}",
            band.height()
        )));
    }
    let mut band = band;
    let mut band_offset = in_lo;
    for lr in &plan.layers {
        let layer = &model.layers()[lr.layer];
        let w = &weights.layers[lr.layer];
        let (out_lo, out_hi) = lr.out_rows;
        band = run_layer_rows(layer, w, &band, band_offset, out_lo, out_hi)?;
        band_offset = out_lo;
    }
    Ok(band)
}

/// [`run_part_on_band`] over deploy-time [`PackedModelWeights`] — the entry
/// point the distributed runtime's compute threads use.  Bit-identical to
/// the raw-weight path (packing is pure data movement; both run the same
/// GEMM kernels), but pays zero packing cost per frame.
pub fn run_part_on_band_packed(
    model: &Model,
    packed: &PackedModelWeights,
    plan: &PartPlan,
    band: Tensor,
) -> Result<Tensor> {
    let (in_lo, in_hi) = plan.input_rows;
    if plan.is_empty() {
        return Err(crate::ModelError::InvalidSplit(
            "run_part_on_band_packed called on an empty part".into(),
        ));
    }
    if band.height() != in_hi - in_lo {
        return Err(crate::ModelError::InvalidSplit(format!(
            "band carries {} rows, part needs rows {in_lo}..{in_hi}",
            band.height()
        )));
    }
    let mut band = band;
    let mut band_offset = in_lo;
    for lr in &plan.layers {
        let layer = &model.layers()[lr.layer];
        let w = &packed.layers()[lr.layer];
        let (out_lo, out_hi) = lr.out_rows;
        band = run_layer_rows_packed(layer, w, &band, band_offset, out_lo, out_hi)?;
        band_offset = out_lo;
    }
    Ok(band)
}

/// Runs the model's FC head (the layers past the distributable prefix) on
/// the stitched output of the last layer-volume.  Returns the input
/// unchanged for models without a head.
pub fn run_head(model: &Model, weights: &ModelWeights, stitched: &Tensor) -> Result<Tensor> {
    let mut current = stitched.clone();
    for layer in model.head_layers() {
        let w = &weights.layers[layer.index];
        current = run_layer_full(layer, w, &current)?;
    }
    Ok(current)
}

/// [`run_head`] over deploy-time [`PackedModelWeights`] — what the head
/// device's compute thread runs per frame.
pub fn run_head_packed(
    model: &Model,
    packed: &PackedModelWeights,
    stitched: &Tensor,
) -> Result<Tensor> {
    let mut current = stitched.clone();
    for layer in model.head_layers() {
        let w = &packed.layers()[layer.index];
        current = run_layer_rows_packed(layer, w, &current, 0, 0, layer.output.h)?;
    }
    Ok(current)
}

/// Shape of the model input as a tensor shape (convenience for examples).
pub fn input_shape(model: &Model) -> Shape {
    model.input()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::{LayerVolume, PartitionScheme, VolumeSplit};
    use tensor::slice::concat_rows;

    fn small_model() -> Model {
        Model::new(
            "exec-test",
            Shape::new(2, 20, 16),
            &[
                LayerOp::conv(4, 3, 1, 1),
                LayerOp::conv(4, 3, 1, 1),
                LayerOp::pool(2, 2),
                LayerOp::conv(6, 3, 1, 1),
                LayerOp::fc(5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn run_full_produces_expected_shapes() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 7);
        let input = deterministic_input(&m, 7);
        let outs = run_full(&m, &w, &input).unwrap();
        assert_eq!(outs.len(), 5);
        assert_eq!(outs[0].shape(), [4, 20, 16]);
        assert_eq!(outs[2].shape(), [4, 10, 8]);
        assert_eq!(outs[3].shape(), [6, 10, 8]);
        assert_eq!(outs[4].shape(), [5, 1, 1]);
    }

    #[test]
    fn sharded_weights_keep_indexing_and_drop_bytes() {
        use std::collections::HashSet;
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 21);
        let keep: HashSet<usize> = [0, 2].into_iter().collect();
        let sharded = w.shard(&keep);
        assert_eq!(sharded.layers.len(), w.layers.len());
        assert_eq!(sharded.layers[0], w.layers[0]);
        assert!(sharded.layers[1].0.is_empty() && sharded.layers[1].1.is_empty());
        assert!(sharded.resident_bytes() < w.resident_bytes());
        // A part that only runs kept layers executes bit-exact on the shard.
        let v = LayerVolume::new(0, 1);
        let input = deterministic_input(&m, 21);
        let plan = PartPlan::plan(&m, v, 0, v.last_output_height(&m)).unwrap();
        let full = run_part(&m, &w, &plan, &input).unwrap().unwrap();
        let shard_out = run_part(&m, &sharded, &plan, &input).unwrap().unwrap();
        assert_eq!(full, shard_out);
    }

    #[test]
    fn weights_are_deterministic() {
        let m = small_model();
        let a = ModelWeights::deterministic(&m, 42);
        let b = ModelWeights::deterministic(&m, 42);
        assert_eq!(a.layers[0].0, b.layers[0].0);
        let c = ModelWeights::deterministic(&m, 43);
        assert_ne!(a.layers[0].0, c.layers[0].0);
    }

    #[test]
    fn split_parts_stitch_to_full_output() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 11);
        let input = deterministic_input(&m, 11);
        let full = run_full(&m, &w, &input).unwrap();

        // Two volumes: [0,3) and [3,4); split each across 3 devices.
        let scheme = PartitionScheme::new(&m, vec![0, 3, 4]).unwrap();
        let mut volume_input = input.clone();
        for volume in scheme.volumes() {
            let h_last = volume.last_output_height(&m);
            let split = VolumeSplit::new(vec![h_last / 4, h_last / 2], h_last);
            let plans = PartPlan::plan_all(&m, volume, &split).unwrap();
            let mut parts = Vec::new();
            for plan in &plans {
                if let Some(out) = run_part(&m, &w, plan, &volume_input).unwrap() {
                    parts.push(out);
                }
            }
            let stitched = concat_rows(&parts).unwrap();
            let reference = &full[volume.end - 1];
            assert!(
                stitched.approx_eq(reference, 1e-4),
                "volume {:?} mismatch: {}",
                volume,
                stitched.max_abs_diff(reference).unwrap()
            );
            volume_input = stitched;
        }
    }

    #[test]
    fn empty_part_returns_none() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 3);
        let input = deterministic_input(&m, 3);
        let v = LayerVolume::new(0, 3);
        let plan = PartPlan::plan(&m, v, 5, 5).unwrap();
        assert!(run_part(&m, &w, &plan, &input).unwrap().is_none());
    }

    #[test]
    fn single_device_split_equals_full_volume() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 9);
        let input = deterministic_input(&m, 9);
        let full = run_full(&m, &w, &input).unwrap();
        let v = LayerVolume::new(0, 4);
        let plan = PartPlan::plan(&m, v, 0, v.last_output_height(&m)).unwrap();
        let out = run_part(&m, &w, &plan, &input).unwrap().unwrap();
        assert!(out.approx_eq(&full[3], 1e-4));
    }

    #[test]
    fn run_part_on_band_matches_run_part() {
        // The runtime's entry point: the part executes on just its halo
        // band (what arrived over the wire), never the full volume input.
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 13);
        let input = deterministic_input(&m, 13);
        let v = LayerVolume::new(0, 3);
        let h = v.last_output_height(&m);
        let plan = PartPlan::plan(&m, v, h / 3, h).unwrap();
        let via_full = run_part(&m, &w, &plan, &input).unwrap().unwrap();
        let band = slice_rows(&input, plan.input_rows.0, plan.input_rows.1).unwrap();
        let via_band = run_part_on_band(&m, &w, &plan, band).unwrap();
        assert_eq!(via_band, via_full);
    }

    #[test]
    fn packed_band_execution_is_bit_identical_to_raw() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 29);
        let input = deterministic_input(&m, 29);
        let packed = PackedModelWeights::pack(&m, &w).unwrap();
        let v = LayerVolume::new(0, 3);
        let h = v.last_output_height(&m);
        let plan = PartPlan::plan(&m, v, 0, h / 2).unwrap();
        let band = slice_rows(&input, plan.input_rows.0, plan.input_rows.1).unwrap();
        let raw = run_part_on_band(&m, &w, &plan, band.clone()).unwrap();
        let fast = run_part_on_band_packed(&m, &packed, &plan, band).unwrap();
        assert_eq!(raw, fast, "prepacked weights must not change a single bit");
    }

    #[test]
    fn packed_head_is_bit_identical_to_raw() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 31);
        let input = deterministic_input(&m, 31);
        let packed = PackedModelWeights::pack(&m, &w).unwrap();
        let full = run_full(&m, &w, &input).unwrap();
        let prefix_out = &full[m.distributable_len() - 1];
        let raw = run_head(&m, &w, prefix_out).unwrap();
        let fast = run_head_packed(&m, &packed, prefix_out).unwrap();
        assert_eq!(raw, fast);
    }

    #[test]
    fn packing_a_shard_marks_dropped_layers_absent() {
        use std::collections::HashSet;
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 33);
        let keep: HashSet<usize> = [0, 2].into_iter().collect();
        let packed = PackedModelWeights::pack(&m, &w.shard(&keep)).unwrap();
        assert!(packed.is_resident(0));
        assert!(!packed.is_resident(1));
        assert!(packed.is_resident(2), "pool layers are always resident");
        assert!(!packed.is_resident(3));
        assert_eq!(packed.packed_layer_count(), 1); // layer 0 only (2 is a pool)
        assert!(packed.resident_bytes() > 0);
        // Executing a non-resident layer fails loudly instead of corrupting.
        let v = LayerVolume::new(1, 2);
        let input = deterministic_input(&m, 33);
        let l0_out = run_full(&m, &w, &input).unwrap().remove(0);
        let plan = PartPlan::plan(&m, v, 0, v.last_output_height(&m)).unwrap();
        let band = slice_rows(&l0_out, plan.input_rows.0, plan.input_rows.1).unwrap();
        assert!(run_part_on_band_packed(&m, &packed, &plan, band).is_err());
    }

    #[test]
    fn install_layer_repacks_exactly_one_layer() {
        use std::collections::HashSet;
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 35);
        let keep: HashSet<usize> = [0, 2].into_iter().collect();
        let mut packed = PackedModelWeights::pack(&m, &w.shard(&keep)).unwrap();
        assert!(!packed.is_resident(1));
        packed
            .install_layer(&m, 1, &w.layers[1].0, &w.layers[1].1)
            .unwrap();
        assert!(packed.is_resident(1));
        assert_eq!(packed.packed_layer_count(), 2);
        // The freshly installed layer computes exactly what a full pack does.
        let full_pack = PackedModelWeights::pack(&m, &w).unwrap();
        let input = deterministic_input(&m, 35);
        let l0_out = run_full(&m, &w, &input).unwrap().remove(0);
        let v = LayerVolume::new(1, 2);
        let plan = PartPlan::plan(&m, v, 0, v.last_output_height(&m)).unwrap();
        let band = slice_rows(&l0_out, plan.input_rows.0, plan.input_rows.1).unwrap();
        let a = run_part_on_band_packed(&m, &packed, &plan, band.clone()).unwrap();
        let b = run_part_on_band_packed(&m, &full_pack, &plan, band).unwrap();
        assert_eq!(a, b);
        // Out-of-range installs are rejected.
        assert!(packed.install_layer(&m, 99, &[], &[]).is_err());
    }

    fn quantizable_model() -> Model {
        Model::new(
            "quant-test",
            Shape::new(8, 16, 16),
            &[
                LayerOp::conv(16, 3, 1, 1), // K = 8·9 = 72 → int8
                LayerOp::conv(16, 3, 1, 1), // K = 144 → int8
                LayerOp::pool(2, 2),
                LayerOp::fc(10), // in = 16·8·8 = 1024 → int8
            ],
        )
        .unwrap()
    }

    #[test]
    fn calibrated_spec_follows_the_routing_policy() {
        let m = quantizable_model();
        let w = ModelWeights::deterministic(&m, 41);
        let spec = QuantSpec::calibrate(&m, &w).unwrap();
        assert_eq!(spec.quantized_layer_count(), 3);
        assert!(spec.layer_scale(0).is_some());
        assert!(spec.layer_scale(2).is_none(), "pool layers never quantize");
        assert!(spec.layer_scale(3).is_some());
        // A shallow stem stays f32: K = 2·9 = 18 < CONV_MIN_K.
        let shallow = small_model();
        let sw = ModelWeights::deterministic(&shallow, 41);
        let sspec = QuantSpec::calibrate(&shallow, &sw).unwrap();
        assert!(sspec.layer_scale(0).is_none());
    }

    #[test]
    fn quantized_pack_shrinks_resident_bytes() {
        let m = quantizable_model();
        let w = ModelWeights::deterministic(&m, 43);
        let spec = QuantSpec::calibrate(&m, &w).unwrap();
        let f32_pack = PackedModelWeights::pack(&m, &w).unwrap();
        let q_pack = PackedModelWeights::pack_with(&m, &w, Some(&spec)).unwrap();
        let shrink = f32_pack.resident_bytes() as f64 / q_pack.resident_bytes() as f64;
        assert!(shrink >= 3.0, "resident shrink only {shrink:.2}×");
    }

    #[test]
    fn quantized_run_tracks_f32_reference() {
        let m = quantizable_model();
        let w = ModelWeights::deterministic(&m, 47);
        let spec = QuantSpec::calibrate(&m, &w).unwrap();
        let q_pack = PackedModelWeights::pack_with(&m, &w, Some(&spec)).unwrap();
        let input = deterministic_input(&m, 47);
        let oracle = run_full(&m, &w, &input).unwrap().pop().unwrap();
        let quantized = run_full_packed(&m, &q_pack, &input).unwrap();
        assert_eq!(quantized.shape(), oracle.shape());
        let scale: f32 = oracle.data().iter().fold(0.1f32, |a, v| a.max(v.abs()));
        let diff = quantized.max_abs_diff(&oracle).unwrap();
        assert!(
            diff <= 0.05 * scale,
            "quantized output drifts {diff} (range {scale})"
        );
    }

    #[test]
    fn quantized_bands_stitch_bitwise_and_install_keeps_spec() {
        let m = quantizable_model();
        let w = ModelWeights::deterministic(&m, 53);
        let spec = QuantSpec::calibrate(&m, &w).unwrap();
        let q_pack = PackedModelWeights::pack_with(&m, &w, Some(&spec)).unwrap();
        assert_eq!(q_pack.quant(), Some(&spec));
        let input = deterministic_input(&m, 53);
        // Three bands over the conv prefix stitch to the one-band run
        // bitwise — every device quantizes against the same static scales.
        let v = LayerVolume::new(0, m.distributable_len());
        let h = v.last_output_height(&m);
        let whole = {
            let plan = PartPlan::plan(&m, v, 0, h).unwrap();
            let band = slice_rows(&input, plan.input_rows.0, plan.input_rows.1).unwrap();
            run_part_on_band_packed(&m, &q_pack, &plan, band).unwrap()
        };
        let mut parts = Vec::new();
        for (lo, hi) in [(0, h / 3), (h / 3, 2 * h / 3), (2 * h / 3, h)] {
            let plan = PartPlan::plan(&m, v, lo, hi).unwrap();
            let band = slice_rows(&input, plan.input_rows.0, plan.input_rows.1).unwrap();
            parts.push(run_part_on_band_packed(&m, &q_pack, &plan, band).unwrap());
        }
        let stitched = concat_rows(&parts).unwrap();
        assert_eq!(stitched, whole, "quantized bands must stitch bitwise");
        // A Reconfigure delta repacks onto the same int8 path.
        let mut repacked = q_pack.clone();
        repacked
            .install_layer(&m, 3, &w.layers[3].0, &w.layers[3].1)
            .unwrap();
        assert!(matches!(
            repacked.layers()[3],
            PackedLayerWeights::QFc { .. }
        ));
        let a = run_full_packed(&m, &q_pack, &input).unwrap();
        let b = run_full_packed(&m, &repacked, &input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_part_on_band_rejects_wrong_band_height() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 13);
        let input = deterministic_input(&m, 13);
        let v = LayerVolume::new(0, 3);
        let plan = PartPlan::plan(&m, v, 0, 4).unwrap();
        let wrong = slice_rows(&input, 0, 2).unwrap();
        assert!(run_part_on_band(&m, &w, &plan, wrong).is_err());
        let empty = PartPlan::plan(&m, v, 4, 4).unwrap();
        assert!(run_part_on_band(&m, &w, &empty, input.clone()).is_err());
    }

    #[test]
    fn run_head_matches_full_model_tail() {
        let m = small_model();
        let w = ModelWeights::deterministic(&m, 17);
        let input = deterministic_input(&m, 17);
        let full = run_full(&m, &w, &input).unwrap();
        // The head consumes the last distributable layer's output.
        let prefix_out = &full[m.distributable_len() - 1];
        let head_out = run_head(&m, &w, prefix_out).unwrap();
        assert_eq!(&head_out, full.last().unwrap());
    }

    #[test]
    fn run_head_is_identity_without_head() {
        let m = Model::new(
            "nohead",
            Shape::new(2, 8, 8),
            &[LayerOp::conv(3, 3, 1, 1), LayerOp::pool(2, 2)],
        )
        .unwrap();
        let w = ModelWeights::deterministic(&m, 1);
        let t = deterministic_input(&m, 1);
        assert_eq!(run_head(&m, &w, &t).unwrap(), t);
    }
}
