//! Shard plans: how a wide macro program is partitioned across macros.
//!
//! A [`ShardPlan`] assigns each of a program's decoder chains (output
//! channels / CNN kernels) to exactly one shard, as a list of contiguous
//! ranges. It is the serving-side counterpart of the output-channel
//! tiling computed by [`maddpipe_core::mapping::ConvMapping`]: where the
//! mapping serialises `tiles_out` passes through **one** macro, the plan
//! gives each tile its **own** macro and the
//! [`ShardedBackend`](crate::sharded::ShardedBackend) models them as
//! running in parallel.
//!
//! Plans are pure data — building one never spawns threads or netlists —
//! so they can be inspected, displayed and unit-tested on their own.

use crate::error::BackendError;
use core::fmt;
use core::ops::Range;
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::MacroProgram;
use maddpipe_core::mapping::ConvShape;

/// A partition of `out_channels` decoder chains into contiguous,
/// non-empty, order-preserving shard ranges.
///
/// ```
/// use maddpipe_runtime::plan::ShardPlan;
///
/// let plan = ShardPlan::even(10, 4).unwrap();
/// assert_eq!(plan.shards(), 4);
/// assert_eq!(plan.widths(), &[3, 3, 2, 2]); // never more than 1 apart
/// assert_eq!(plan.range(0), 0..3);
/// assert_eq!(plan.out_channels(), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    widths: Vec<usize>,
}

impl ShardPlan {
    /// Splits `out_channels` chains into `shards` near-equal contiguous
    /// ranges: the first `out_channels % shards` shards take one extra
    /// chain, so widths never differ by more than one.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidShardPlan`] when `shards` is zero or
    /// exceeds `out_channels` (a shard would own no decoder chain).
    pub fn even(out_channels: usize, shards: usize) -> Result<ShardPlan, BackendError> {
        if shards == 0 {
            return Err(BackendError::InvalidShardPlan {
                reason: "a plan needs at least one shard".into(),
            });
        }
        if shards > out_channels {
            return Err(BackendError::InvalidShardPlan {
                reason: format!(
                    "{shards} shards over {out_channels} output channels would leave a shard empty"
                ),
            });
        }
        let base = out_channels / shards;
        let extra = out_channels % shards;
        Ok(ShardPlan {
            widths: (0..shards).map(|s| base + usize::from(s < extra)).collect(),
        })
    }

    /// The plan induced by tiling `shape`'s output channels onto macros of
    /// `cfg.ndec` decoder chains — one shard per `tiles_out` tile of the
    /// layer's [`ConvMapping`](maddpipe_core::mapping::ConvMapping), the
    /// last one carrying the remainder.
    pub fn for_layer(shape: &ConvShape, cfg: &MacroConfig) -> ShardPlan {
        ShardPlan {
            widths: shape
                .split_out_channels(cfg.ndec)
                .iter()
                .map(|sub| sub.out_channels)
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.widths.len()
    }

    /// Decoder chains owned by each shard, in shard order.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Total decoder chains across all shards.
    pub fn out_channels(&self) -> usize {
        self.widths.iter().sum()
    }

    /// The contiguous output-channel range of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn range(&self, shard: usize) -> Range<usize> {
        let start: usize = self.widths[..shard].iter().sum();
        start..start + self.widths[shard]
    }

    /// Slices a wide program into one sub-program per shard: identical
    /// hash trees (every shard sees the same token), each stage's LUT row
    /// restricted to the shard's decoder range. Concatenating the shards'
    /// reference outputs in plan order reproduces the wide program's
    /// output bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidShardPlan`] when the program's
    /// decoder count differs from the plan's total.
    pub fn split(&self, program: &MacroProgram) -> Result<Vec<MacroProgram>, BackendError> {
        if program.ndec() != self.out_channels() {
            return Err(BackendError::InvalidShardPlan {
                reason: format!(
                    "plan covers {} output channels but the program has {} decoder chains",
                    self.out_channels(),
                    program.ndec()
                ),
            });
        }
        Ok((0..self.shards())
            .map(|s| {
                let range = self.range(s);
                MacroProgram {
                    trees: program.trees.clone(),
                    luts: program
                        .luts
                        .iter()
                        .map(|stage| stage[range.clone()].to_vec())
                        .collect(),
                }
            })
            .collect())
    }
}

impl fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shards over {} channels {:?}",
            self.shards(),
            self.out_channels(),
            self.widths
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TokenBatch;

    #[test]
    fn even_plans_balance_the_remainder() {
        let plan = ShardPlan::even(7, 3).unwrap();
        assert_eq!(plan.widths(), &[3, 2, 2]);
        assert_eq!(plan.out_channels(), 7);
        assert_eq!(plan.range(0), 0..3);
        assert_eq!(plan.range(1), 3..5);
        assert_eq!(plan.range(2), 5..7);
        assert!(plan.to_string().contains("3 shards"), "{plan}");
    }

    #[test]
    fn degenerate_and_unit_plans() {
        // Single shard: the identity partition.
        let one = ShardPlan::even(5, 1).unwrap();
        assert_eq!(one.widths(), &[5]);
        assert_eq!(one.range(0), 0..5);
        // One chain per shard: the finest partition.
        let fine = ShardPlan::even(4, 4).unwrap();
        assert_eq!(fine.widths(), &[1, 1, 1, 1]);
    }

    #[test]
    fn invalid_plans_are_typed_errors() {
        assert!(matches!(
            ShardPlan::even(4, 0),
            Err(BackendError::InvalidShardPlan { .. })
        ));
        assert!(matches!(
            ShardPlan::even(2, 3),
            Err(BackendError::InvalidShardPlan { .. })
        ));
    }

    #[test]
    fn layer_plans_mirror_the_conv_tiling() {
        let cfg = MacroConfig::new(16, 32);
        let shape = ConvShape::new(32, 37, 8, 8);
        let plan = ShardPlan::for_layer(&shape, &cfg);
        assert_eq!(plan.widths(), &[16, 16, 5]);
        assert_eq!(plan.out_channels(), 37);
    }

    #[test]
    fn split_programs_reassemble_bit_for_bit() {
        let program = MacroProgram::random(10, 3, 5);
        let plan = ShardPlan::even(10, 4).unwrap();
        let subs = plan.split(&program).unwrap();
        assert_eq!(subs.len(), 4);
        for (s, sub) in subs.iter().enumerate() {
            assert_eq!(sub.ndec(), plan.widths()[s]);
            assert_eq!(sub.ns(), 3);
        }
        for token in TokenBatch::random(3, 6, 9).tokens() {
            let wide = program.reference_output(token);
            let stitched: Vec<i16> = subs
                .iter()
                .flat_map(|sub| sub.reference_output(token))
                .collect();
            assert_eq!(stitched, wide);
        }
    }

    #[test]
    fn mismatched_programs_are_rejected() {
        let plan = ShardPlan::even(4, 2).unwrap();
        let narrow = MacroProgram::random(3, 2, 1);
        assert!(matches!(
            plan.split(&narrow),
            Err(BackendError::InvalidShardPlan { .. })
        ));
    }
}
