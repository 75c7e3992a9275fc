//! Bit-exactness of the kernels under concurrent callers.
//!
//! In-process providers each run their own layers at the same time, and
//! every kernel call fans out over one shared worker pool.  The pool only
//! decides *which* thread runs a tile; tile boundaries and the per-element
//! op order are fixed by the shape, so an output computed while two other
//! threads hammer the pool must equal, bit for bit, the same call run
//! alone.  This suite runs under whatever dispatch arms the environment
//! forces (`DISTREDGE_FORCE_SCALAR`, `DISTREDGE_QKERNEL`).

use std::sync::Barrier;
use tensor::ops::{
    conv2d_rows_packed, im2col_weight_len, linear_packed, pack_conv_filter_with,
    pack_linear_filter, quant_scale, winograd_preferred, Activation, PackedConvFilter,
    PackedFilter,
};
use tensor::Tensor;

const CALLERS: usize = 3;
const ROUNDS: usize = 6;

fn pseudo(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let v = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed)
                .rotate_left(17);
            ((v % 2000) as f32 / 1000.0) - 1.0
        })
        .collect()
}

fn pseudo_tensor(c: usize, h: usize, w: usize, seed: u64) -> Tensor {
    Tensor::from_vec([c, h, w], pseudo(c * h * w, seed)).expect("shape matches data")
}

/// A conv layer: input, packed filter and bias, run over its full height.
struct Conv {
    input: Tensor,
    filter: PackedConvFilter,
    bias: Vec<f32>,
}

impl Conv {
    fn new(c_in: usize, c_out: usize, hw: usize, quantized: bool, seed: u64) -> Self {
        let input = pseudo_tensor(c_in, hw, hw, seed);
        let weights = pseudo(im2col_weight_len(c_in, c_out, 3), seed ^ 0xabc);
        let scale_in = quantized.then(|| quant_scale(input.data()));
        let filter =
            pack_conv_filter_with(&weights, c_in, c_out, 3, 1, scale_in).expect("valid conv pack");
        Conv {
            input,
            filter,
            bias: pseudo(c_out, seed ^ 0xdef),
        }
    }

    fn run(&self) -> Tensor {
        let h = self.input.shape()[1];
        conv2d_rows_packed(
            &self.input,
            0,
            h,
            0,
            h,
            &self.filter,
            &self.bias,
            3,
            1,
            1,
            Activation::Relu,
        )
        .expect("valid conv call")
    }
}

/// An FC layer over a flat input vector.
struct Fc {
    input: Tensor,
    filter: PackedFilter,
    bias: Vec<f32>,
}

impl Fc {
    fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let weights = pseudo(in_features * out_features, seed ^ 0x123);
        Fc {
            input: Tensor::from_vec([in_features, 1, 1], pseudo(in_features, seed))
                .expect("shape matches data"),
            filter: pack_linear_filter(&weights, in_features, out_features)
                .expect("valid linear pack"),
            bias: pseudo(out_features, seed ^ 0x456),
        }
    }

    fn run(&self) -> Tensor {
        linear_packed(&self.input, &self.filter, &self.bias, Activation::Relu)
            .expect("valid linear call")
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn outputs_under_three_concurrent_callers_match_solo_runs_bitwise() {
    let im2col = Conv::new(16, 32, 24, false, 1);
    let winograd = Conv::new(128, 128, 14, false, 2);
    let int8 = Conv::new(32, 48, 20, true, 3);
    let fc = Fc::new(1024, 256, 4);
    assert!(im2col.filter.gemm().is_some() && !winograd_preferred(16, 32));
    assert!(winograd.filter.winograd().is_some() && winograd_preferred(128, 128));
    assert!(int8.filter.quant().is_some());

    let layers: [(&str, &(dyn Fn() -> Tensor + Sync)); 4] = [
        ("im2col conv", &|| im2col.run()),
        ("winograd conv", &|| winograd.run()),
        ("int8 conv", &|| int8.run()),
        ("fc", &|| fc.run()),
    ];
    let solo: Vec<Vec<u32>> = layers.iter().map(|(_, run)| bits(&run())).collect();

    let start = Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for caller in 0..CALLERS {
            let (layers, solo, start) = (&layers, &solo, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    // Stagger the layer order per caller so different
                    // kernels overlap on the pool.
                    for step in 0..layers.len() {
                        let l = (step + caller + round) % layers.len();
                        let (name, run) = layers[l];
                        assert!(
                            bits(&run()) == solo[l],
                            "{name} diverged from its solo run (caller {caller}, round {round})"
                        );
                    }
                }
            });
        }
    });
}
