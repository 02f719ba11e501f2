//! Inference networks that lower onto the serving runtime: a chain of
//! conv / host layers, a bit-exact host `forward`, a per-layer
//! activation trace for golden-testing, and the `Network →
//! PipelineSpec` lowering that deploys the whole network as one
//! streaming [`PipelineGraph`](maddpipe_runtime::pipeline::PipelineGraph).
//!
//! The layers here are *inference recipes*, not trainable modules (the
//! trainable stack lives in [`crate::layers`]/[`crate::net`]): each conv
//! layer is a [`MacroProgram`] — ns = input channels, ndec = output
//! kernels, one 3×3 patch per subvector, exactly the macro's geometry —
//! and each host layer is a small pure function (ReLU, 2×2 max-pool,
//! per-channel affine, a final linear head).
//!
//! The contract the pipeline tests pin: [`Network::forward`] and the
//! deployed pipeline share the *same* encode / decode / host-apply code
//! paths, and every macro backend is bit-identical to
//! [`MacroProgram::reference_output`] — so the streaming deployment's
//! logits are **bit-identical** to the host forward, whatever
//! [`BackendKind`] serves the conv stages.
//!
//! ```
//! use maddpipe_nn::network::Network;
//! use maddpipe_runtime::prelude::*;
//!
//! let net = Network::demo(7);
//! let image = Network::demo_image(7, net.input_len());
//! let logits = net.forward(&image).unwrap();
//! assert_eq!(logits.len(), 10);
//!
//! let spec = net
//!     .to_pipeline_spec(BackendKind::Functional { workers: 1 }, &StagePolicy::default())
//!     .unwrap();
//! let pipe = PipelineGraph::build(spec, PipelinePolicy::default()).unwrap();
//! let reply = pipe.submit(image).unwrap().wait().unwrap();
//! assert_eq!(reply.outputs, logits); // bit-identical, not approximately
//! pipe.shutdown();
//! ```

use maddpipe_amm::quant::QuantScale;
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::MacroProgram;
use maddpipe_runtime::backend::BackendKind;
use maddpipe_runtime::batch::{BatchResult, TokenBatch};
use maddpipe_runtime::error::BackendError;
use maddpipe_runtime::pipeline::{HostStage, MacroStage, PipelineSpec, StagePolicy, StageSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(channels, height, width)` of an activation tensor.
pub type Shape = (usize, usize, usize);

/// One layer's recipe plus its resolved shapes.
#[derive(Debug, Clone)]
struct Layer {
    name: String,
    in_shape: Shape,
    out_shape: Shape,
    kind: LayerKind,
}

#[derive(Debug, Clone)]
enum LayerKind {
    /// A 3×3, stride-1, pad-1 convolution executed on the macro:
    /// `program.ns()` input channels, `program.ndec()` output kernels.
    Conv {
        program: MacroProgram,
        /// Input quantisation into the macro's INT8 tokens.
        scale: QuantScale,
        /// Dequantisation of the macro's i16 accumulator outputs.
        out_scale: f32,
    },
    /// Elementwise `max(0, x)`.
    Relu,
    /// 2×2, stride-2 max pooling.
    MaxPool2,
    /// Per-channel `gain[c] * x + bias[c]` (a folded batch-norm).
    Affine { gain: Vec<f32>, bias: Vec<f32> },
    /// A dense head over the flattened activation: `W x + b`, rows of
    /// `weights` indexed by output.
    Linear {
        weights: Vec<Vec<f32>>,
        bias: Vec<f32>,
    },
}

/// One layer's captured activation in a [`Network::forward_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerActivation {
    /// The layer's name (`"{index}-{kind}"`).
    pub name: String,
    /// The layer's full output activation, flattened `(c, h, w)`.
    pub output: Vec<f32>,
}

/// A multi-layer inference network built for macro serving: conv layers
/// run as [`MacroProgram`]s, everything else as host math. See the
/// [module docs](crate::network) for the bit-identicality contract.
#[derive(Debug, Clone)]
pub struct Network {
    input: Shape,
    layers: Vec<Layer>,
}

impl Network {
    /// An empty network taking `(channels, height, width)` images.
    /// Chain layer builders onto it; each builder panics on a shape
    /// mismatch (construction bugs are programmer errors, matching the
    /// trainable stack's convention).
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero.
    pub fn new(channels: usize, height: usize, width: usize) -> Network {
        assert!(
            channels > 0 && height > 0 && width > 0,
            "input shape must be non-zero"
        );
        Network {
            input: (channels, height, width),
            layers: Vec::new(),
        }
    }

    fn current_shape(&self) -> Shape {
        self.layers.last().map_or(self.input, |l| l.out_shape)
    }

    fn push(&mut self, kind_name: &str, out_shape: Shape, kind: LayerKind) {
        let name = format!("{}-{kind_name}", self.layers.len());
        let in_shape = self.current_shape();
        self.layers.push(Layer {
            name,
            in_shape,
            out_shape,
            kind,
        });
    }

    /// Appends a 3×3 macro convolution: `program.ns()` must equal the
    /// current channel count; the output has `program.ndec()` channels
    /// at the same spatial size (stride 1, pad 1). `scale` quantises
    /// the input activation into INT8 tokens; `out_scale` dequantises
    /// the macro's i16 accumulator back to floats.
    ///
    /// # Panics
    ///
    /// Panics when `program.ns()` does not match the incoming channels.
    #[must_use]
    pub fn conv(mut self, program: MacroProgram, scale: QuantScale, out_scale: f32) -> Network {
        let (c, h, w) = self.current_shape();
        assert_eq!(
            program.ns(),
            c,
            "conv program has ns = {} stages but the activation has {c} channels",
            program.ns()
        );
        let out = (program.ndec(), h, w);
        self.push(
            "conv",
            out,
            LayerKind::Conv {
                program,
                scale,
                out_scale,
            },
        );
        self
    }

    /// Appends an elementwise ReLU.
    #[must_use]
    pub fn relu(mut self) -> Network {
        let shape = self.current_shape();
        self.push("relu", shape, LayerKind::Relu);
        self
    }

    /// Appends a 2×2, stride-2 max pool.
    ///
    /// # Panics
    ///
    /// Panics when the spatial size is not even.
    #[must_use]
    pub fn max_pool2(mut self) -> Network {
        let (c, h, w) = self.current_shape();
        assert!(
            h % 2 == 0 && w % 2 == 0,
            "max_pool2 needs even spatial dims, got {h}x{w}"
        );
        self.push("pool", (c, h / 2, w / 2), LayerKind::MaxPool2);
        self
    }

    /// Appends a per-channel affine `gain[c] * x + bias[c]` (a folded
    /// batch-norm).
    ///
    /// # Panics
    ///
    /// Panics when `gain`/`bias` do not have one entry per channel.
    #[must_use]
    pub fn affine(mut self, gain: Vec<f32>, bias: Vec<f32>) -> Network {
        let shape = self.current_shape();
        assert_eq!(gain.len(), shape.0, "one gain per channel");
        assert_eq!(bias.len(), shape.0, "one bias per channel");
        self.push("affine", shape, LayerKind::Affine { gain, bias });
        self
    }

    /// Appends a dense head over the flattened activation: `weights` is
    /// one row per output, each `c * h * w` long.
    ///
    /// # Panics
    ///
    /// Panics when a weight row or the bias disagrees with the shapes.
    #[must_use]
    pub fn linear(mut self, weights: Vec<Vec<f32>>, bias: Vec<f32>) -> Network {
        let (c, h, w) = self.current_shape();
        let in_len = c * h * w;
        assert!(!weights.is_empty(), "linear needs at least one output");
        for (o, row) in weights.iter().enumerate() {
            assert_eq!(row.len(), in_len, "weight row {o} must be {in_len} long");
        }
        assert_eq!(bias.len(), weights.len(), "one bias per output");
        let out = (1, 1, weights.len());
        self.push("linear", out, LayerKind::Linear { weights, bias });
        self
    }

    /// The input shape `(channels, height, width)`.
    pub fn input_shape(&self) -> Shape {
        self.input
    }

    /// Flattened input length (`c * h * w`).
    pub fn input_len(&self) -> usize {
        self.input.0 * self.input.1 * self.input.2
    }

    /// Flattened output length of the last layer.
    pub fn output_len(&self) -> usize {
        let (c, h, w) = self.current_shape();
        c * h * w
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers yet.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer names, in order — the stage names of the lowered
    /// pipeline.
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.name.clone()).collect()
    }

    /// Runs one image through every layer on the host, capturing each
    /// layer's full output activation — the per-stage golden reference
    /// each pipeline stage is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::MalformedProgram`] when `image` does not
    /// have `input_len()` values (and any layer's own failure).
    pub fn forward_trace(&self, image: &[f32]) -> Result<Vec<LayerActivation>, BackendError> {
        if image.len() != self.input_len() {
            return Err(BackendError::MalformedProgram {
                reason: format!(
                    "image has {} values, the network takes {}",
                    image.len(),
                    self.input_len()
                ),
            });
        }
        let mut x = image.to_vec();
        let mut trace = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            x = step(layer, &x)?;
            trace.push(LayerActivation {
                name: layer.name.clone(),
                output: x.clone(),
            });
        }
        Ok(trace)
    }

    /// Runs one image through every layer on the host (conv layers via
    /// [`MacroProgram::reference_output`] — the exact math every macro
    /// backend is bit-identical to) and returns the final activation.
    ///
    /// # Errors
    ///
    /// As [`Network::forward_trace`].
    pub fn forward(&self, image: &[f32]) -> Result<Vec<f32>, BackendError> {
        if image.len() != self.input_len() {
            return Err(BackendError::MalformedProgram {
                reason: format!(
                    "image has {} values, the network takes {}",
                    image.len(),
                    self.input_len()
                ),
            });
        }
        let mut x = image.to_vec();
        for layer in &self.layers {
            x = step(layer, &x)?;
        }
        Ok(x)
    }

    /// Lowers the network into a [`PipelineSpec`]: every conv layer
    /// becomes a [`MacroStage`] (serving on `kind` backends under
    /// `policy`), every host layer a [`HostStage`] — **sharing the same
    /// encode/decode/apply code paths as [`Network::forward`]**, which
    /// is what makes the deployed pipeline bit-identical to the host
    /// forward.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::MalformedProgram`] for an empty network,
    /// plus any conv program's own validation failure.
    pub fn to_pipeline_spec(
        &self,
        kind: BackendKind,
        policy: &StagePolicy,
    ) -> Result<PipelineSpec, BackendError> {
        if self.layers.is_empty() {
            return Err(BackendError::MalformedProgram {
                reason: "cannot lower an empty network".into(),
            });
        }
        let mut spec = PipelineSpec::new();
        for layer in &self.layers {
            match &layer.kind {
                LayerKind::Conv {
                    program,
                    scale,
                    out_scale,
                } => {
                    let (c, h, w) = layer.in_shape;
                    let cfg = MacroConfig::new(program.ndec(), c);
                    let in_shape = layer.in_shape;
                    let scale = *scale;
                    let (out_c, out_scale, hw) = (program.ndec(), *out_scale, h * w);
                    let stage = MacroStage::new(
                        &layer.name,
                        &cfg,
                        program.clone(),
                        kind.clone(),
                        move |x: &[f32]| conv_encode(in_shape, scale, x),
                        move |r: &BatchResult| {
                            conv_outputs(out_c, hw, out_scale, r.tokens.iter().map(|t| t.outputs))
                        },
                    )?
                    .with_policy(policy.clone());
                    spec.push(StageSpec::Macro(stage));
                }
                host => {
                    let host = host.clone();
                    let in_shape = layer.in_shape;
                    spec.push(StageSpec::Host(HostStage::new(
                        &layer.name,
                        move |x: Vec<f32>| apply_host(&host, in_shape, &x),
                    )));
                }
            }
        }
        Ok(spec)
    }

    /// A small deterministic two-conv CNN for tests, examples and
    /// benches: `(2, 8, 8)` images → conv(2→4) → ReLU → pool →
    /// conv(4→8) → ReLU → pool → affine → linear → 10 logits. Every
    /// weight is a pure function of `seed`.
    pub fn demo(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6E65_745F_6465_6D6F);
        let gain: Vec<f32> = (0..8).map(|_| rng.gen_range(0.5..1.5)).collect();
        let bias: Vec<f32> = (0..8).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let flat = 8 * 2 * 2;
        let weights: Vec<Vec<f32>> = (0..10)
            .map(|_| (0..flat).map(|_| rng.gen_range(-0.25..0.25)).collect())
            .collect();
        let head_bias: Vec<f32> = (0..10).map(|_| rng.gen_range(-0.1..0.1)).collect();
        Network::new(2, 8, 8)
            .conv(
                MacroProgram::random(4, 2, seed),
                QuantScale::new(1.0 / 64.0),
                1.0 / 64.0,
            )
            .relu()
            .max_pool2()
            .conv(
                MacroProgram::random(8, 4, seed ^ 0x9E37_79B9),
                QuantScale::new(1.0 / 16.0),
                1.0 / 64.0,
            )
            .relu()
            .max_pool2()
            .affine(gain, bias)
            .linear(weights, head_bias)
    }

    /// A deterministic `[-1, 1]` test image for [`Network::demo`]-style
    /// networks: a pure function of `seed` with `len` values.
    pub fn demo_image(seed: u64, len: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0069_6D61_6765);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }
}

/// Runs one layer on the host — the single code path shared by
/// [`Network::forward`] and the lowered pipeline's host stages.
fn step(layer: &Layer, x: &[f32]) -> Result<Vec<f32>, BackendError> {
    match &layer.kind {
        LayerKind::Conv {
            program,
            scale,
            out_scale,
        } => {
            let (_, h, w) = layer.in_shape;
            let batch = conv_encode(layer.in_shape, *scale, x)?;
            let rows: Vec<Vec<i16>> = batch
                .tokens()
                .iter()
                .map(|t| program.reference_output(t))
                .collect();
            conv_outputs(
                program.ndec(),
                h * w,
                *out_scale,
                rows.iter().map(|r| r.as_slice()),
            )
        }
        host => apply_host(host, layer.in_shape, x),
    }
}

/// The host-side layer math (everything but conv). Total over
/// [`LayerKind`] so the pipeline's host closures can call it directly.
fn apply_host(kind: &LayerKind, in_shape: Shape, x: &[f32]) -> Result<Vec<f32>, BackendError> {
    let (c, h, w) = in_shape;
    if x.len() != c * h * w {
        return Err(BackendError::MalformedProgram {
            reason: format!(
                "activation has {} values, the layer takes {}",
                x.len(),
                c * h * w
            ),
        });
    }
    match kind {
        LayerKind::Conv { .. } => Err(BackendError::MalformedProgram {
            reason: "conv layers run on the macro, not the host path".into(),
        }),
        LayerKind::Relu => Ok(x.iter().map(|&v| v.max(0.0)).collect()),
        LayerKind::MaxPool2 => {
            let (oh, ow) = (h / 2, w / 2);
            let mut out = vec![0.0f32; c * oh * ow];
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let v = x[(ch * h + 2 * oy + dy) * w + 2 * ox + dx];
                                best = best.max(v);
                            }
                        }
                        out[(ch * oh + oy) * ow + ox] = best;
                    }
                }
            }
            Ok(out)
        }
        LayerKind::Affine { gain, bias } => {
            let hw = h * w;
            let mut out = Vec::with_capacity(x.len());
            for ch in 0..c {
                for p in 0..hw {
                    out.push(gain[ch] * x[ch * hw + p] + bias[ch]);
                }
            }
            Ok(out)
        }
        LayerKind::Linear { weights, bias } => Ok(weights
            .iter()
            .zip(bias)
            .map(|(row, b)| row.iter().zip(x).map(|(wv, xv)| wv * xv).sum::<f32>() + b)
            .collect()),
    }
}

/// im2col for one image, matching [`crate::layers::im2col3x3`]'s layout
/// (row per output pixel `oy * w + ox`, column `ch * 9 + ky * 3 + kx`,
/// zero padding 1), then quantisation into one token per output pixel
/// with `ns =` input channels — exactly the macro's geometry, since a
/// subvector is one 3×3 patch.
fn conv_encode(in_shape: Shape, scale: QuantScale, x: &[f32]) -> Result<TokenBatch, BackendError> {
    let (c, h, w) = in_shape;
    if x.len() != c * h * w {
        return Err(BackendError::MalformedProgram {
            reason: format!(
                "activation has {} values, the conv takes {}",
                x.len(),
                c * h * w
            ),
        });
    }
    let width = c * 9;
    let mut patches = vec![0.0f32; h * w * width];
    for oy in 0..h {
        for ox in 0..w {
            let pixel = oy * w + ox;
            let row = &mut patches[pixel * width..(pixel + 1) * width];
            for ch in 0..c {
                for ky in 0..3 {
                    let iy = oy as isize + ky as isize - 1;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..3 {
                        let ix = ox as isize + kx as isize - 1;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        row[ch * 9 + ky * 3 + kx] = x[(ch * h + iy as usize) * w + ix as usize];
                    }
                }
            }
        }
    }
    let refs: Vec<&[f32]> = (0..h * w)
        .map(|pixel| &patches[pixel * width..(pixel + 1) * width])
        .collect();
    TokenBatch::from_f32_rows(&refs, c, scale)
}

/// Reassembles per-token macro outputs (one token per output pixel, one
/// i16 per output channel) into a flattened `(out_c, h, w)` activation,
/// dequantised by `out_scale`. Defensive about widths: a macro answer
/// that breaks the geometry is a typed error, never mis-sliced data.
fn conv_outputs<'a>(
    out_c: usize,
    hw: usize,
    out_scale: f32,
    rows: impl ExactSizeIterator<Item = &'a [i16]>,
) -> Result<Vec<f32>, BackendError> {
    if rows.len() != hw {
        return Err(BackendError::MalformedProgram {
            reason: format!("conv produced {} tokens for {hw} output pixels", rows.len()),
        });
    }
    let mut out = vec![0.0f32; out_c * hw];
    for (p, row) in rows.enumerate() {
        if row.len() != out_c {
            return Err(BackendError::MalformedProgram {
                reason: format!(
                    "conv token {p} carries {} outputs for {out_c} channels",
                    row.len()
                ),
            });
        }
        for (ch, &v) in row.iter().enumerate() {
            out[ch * hw + p] = f32::from(v) * out_scale;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::im2col3x3;
    use crate::tensor::Tensor4;

    #[test]
    fn demo_is_deterministic_and_shaped() {
        let net = Network::demo(3);
        assert_eq!(net.input_shape(), (2, 8, 8));
        assert_eq!(net.input_len(), 128);
        assert_eq!(net.output_len(), 10);
        assert_eq!(net.len(), 8);
        assert!(!net.is_empty());
        assert_eq!(
            net.layer_names(),
            ["0-conv", "1-relu", "2-pool", "3-conv", "4-relu", "5-pool", "6-affine", "7-linear"]
        );
        let image = Network::demo_image(3, net.input_len());
        let a = net.forward(&image).unwrap();
        let b = Network::demo(3).forward(&image).unwrap();
        assert_eq!(a, b, "same seed, same logits — bit for bit");
        let other = net
            .forward(&Network::demo_image(4, net.input_len()))
            .unwrap();
        assert_ne!(a, other, "different images tell apart");
    }

    #[test]
    fn forward_trace_matches_forward_layer_by_layer() {
        let net = Network::demo(11);
        let image = Network::demo_image(11, net.input_len());
        let trace = net.forward_trace(&image).unwrap();
        assert_eq!(trace.len(), net.len());
        assert_eq!(
            trace.last().unwrap().output,
            net.forward(&image).unwrap(),
            "the last activation is the forward output"
        );
        assert_eq!(trace[0].name, "0-conv");
        assert_eq!(trace[0].output.len(), 4 * 8 * 8);
        assert_eq!(trace[2].output.len(), 4 * 4 * 4, "pool halves each dim");
        // ReLU really clamps: its output is the positive part of conv's.
        let clamped: Vec<f32> = trace[0].output.iter().map(|&v| v.max(0.0)).collect();
        assert_eq!(trace[1].output, clamped);
    }

    #[test]
    fn conv_encode_matches_the_training_stacks_im2col() {
        // One image through the hand-rolled single-image im2col must
        // produce the same patch rows as the training stack's batched
        // `im2col3x3` — the layout contract the lowering relies on.
        let (c, h, w) = (3, 4, 4);
        let x: Vec<f32> = (0..c * h * w).map(|i| (i as f32).sin()).collect();
        let golden = im2col3x3(&Tensor4::from_vec(1, c, h, w, x.clone()));
        let scale = QuantScale::new(1.0);
        let batch = conv_encode((c, h, w), scale, &x).unwrap();
        assert_eq!(batch.len(), h * w);
        for (p, token) in batch.tokens().iter().enumerate() {
            for s in 0..c {
                for e in 0..9 {
                    let expected = scale.quantize(golden[(p, s * 9 + e)]);
                    assert_eq!(token[s][e], expected, "pixel {p}, stage {s}, elem {e}");
                }
            }
        }
    }

    #[test]
    fn bad_shapes_are_typed_errors() {
        let net = Network::demo(1);
        assert!(matches!(
            net.forward(&[0.0; 3]).unwrap_err(),
            BackendError::MalformedProgram { .. }
        ));
        assert!(matches!(
            net.forward_trace(&[]).unwrap_err(),
            BackendError::MalformedProgram { .. }
        ));
        let empty = Network::new(1, 2, 2);
        assert!(matches!(
            empty
                .to_pipeline_spec(
                    maddpipe_runtime::backend::BackendKind::Analytic,
                    &StagePolicy::default()
                )
                .unwrap_err(),
            BackendError::MalformedProgram { .. }
        ));
        // Wrong-width macro answers are typed, never mis-sliced.
        let short = [vec![0i16; 2], vec![0i16; 1]];
        let err = conv_outputs(2, 2, 1.0, short.iter().map(|r| r.as_slice())).unwrap_err();
        assert!(
            matches!(err, BackendError::MalformedProgram { .. }),
            "{err}"
        );
        let few = [vec![0i16; 2]];
        let err = conv_outputs(2, 2, 1.0, few.iter().map(|r| r.as_slice())).unwrap_err();
        assert!(
            matches!(err, BackendError::MalformedProgram { .. }),
            "{err}"
        );
    }

    #[test]
    fn lowering_preserves_layer_names_and_reference_trace_matches_forward_trace() {
        let net = Network::demo(5);
        let spec = net
            .to_pipeline_spec(
                maddpipe_runtime::backend::BackendKind::Functional { workers: 1 },
                &StagePolicy::default(),
            )
            .unwrap();
        assert_eq!(spec.stage_names(), net.layer_names());
        let image = Network::demo_image(5, net.input_len());
        let host_trace = net.forward_trace(&image).unwrap();
        let pipe_trace = spec.reference_trace(&image).unwrap();
        assert_eq!(pipe_trace.len(), host_trace.len());
        for (stage, host) in pipe_trace.iter().zip(&host_trace) {
            assert_eq!(stage, &host.output, "stage {} diverged", host.name);
        }
    }
}
