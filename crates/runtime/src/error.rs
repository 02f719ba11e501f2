//! The unified error type of the execution API.
//!
//! Every failure a backend or session can hit is a [`BackendError`]
//! variant — construction-time shape disagreements, malformed batches,
//! netlists that fail to settle or break their handshake protocol, shard
//! plans that don't partition the program, and shards that fail
//! mid-serving. Backends
//! never panic on user input; a batch either completes whole (one
//! observation per token) or is rejected whole with one of these values.
//! Shard failures wrap the shard's own error in
//! [`BackendError::Shard`], preserving the chain via
//! [`std::error::Error::source`].

use core::fmt;
use maddpipe_core::macro_rtl::TokenError;
use maddpipe_sim::engine::OscillationError;

/// The specific [`QueuePolicy`](crate::queue::QueuePolicy) bound that
/// rejected a submission with [`BackendError::QueueFull`].
///
/// The two admission bounds protect different resources: `Requests`
/// caps how many tickets can be unresolved at once (queued *or*
/// executing), while `Tokens` caps how much batch payload may sit
/// queued awaiting dispatch, so one client submitting huge batches
/// cannot bypass memory bounds by staying under the request cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueLimit {
    /// The unresolved-request bound (`max_depth`) was hit.
    Requests {
        /// The configured depth bound.
        max_depth: usize,
    },
    /// The queued-token bound (`max_pending_tokens`) would be exceeded.
    Tokens {
        /// Tokens already queued when the submission arrived.
        pending_tokens: usize,
        /// The configured queued-token bound.
        max_pending_tokens: usize,
    },
}

/// Everything that can go wrong building or running a backend — one typed
/// enum in place of the previous mix of `assert!` panics and raw
/// [`OscillationError`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// A batch must carry at least one token.
    EmptyBatch,
    /// A token does not provide one subvector per pipeline stage.
    ShapeMismatch {
        /// Index of the offending token within the batch.
        token: usize,
        /// Pipeline stages the macro was configured with.
        expected: usize,
        /// Subvectors the token actually carries.
        got: usize,
    },
    /// The program's shape disagrees with the macro configuration.
    ProgramMismatch {
        /// Decoders per block in the configuration.
        cfg_ndec: usize,
        /// Pipeline stages in the configuration.
        cfg_ns: usize,
        /// Decoders per block in the program.
        program_ndec: usize,
        /// Pipeline stages in the program.
        program_ns: usize,
    },
    /// The program cannot be executed by this backend (e.g. a hash tree
    /// whose depth differs from the hardware's fixed 4 levels).
    MalformedProgram {
        /// Human-readable explanation.
        reason: String,
    },
    /// A session was built without a program.
    MissingProgram,
    /// The RTL netlist failed to settle — a handshake bug or a
    /// combinational loop.
    Oscillation(OscillationError),
    /// The RTL netlist broke its handshake protocol: it stalled before an
    /// edge the testbench waited for, its output register held an `X`
    /// bit, or a stream produced a wrong number of output strobes (one of
    /// the [`TokenError::is_protocol`] variants). The netlist itself is
    /// at fault, so a retry on it would fail alike; the
    /// [`RtlBackend`](crate::rtl::RtlBackend) rebuilds its netlist before
    /// the next batch.
    Protocol(TokenError),
    /// A shard plan cannot be constructed or does not fit the program it
    /// is asked to partition (zero shards, more shards than decoder
    /// chains, width disagreement, a shard breaking the
    /// one-observation-per-token contract, …).
    InvalidShardPlan {
        /// Human-readable explanation.
        reason: String,
    },
    /// One shard of a sharded backend failed; the whole batch was
    /// rejected and no partial output was assembled.
    Shard {
        /// Index of the failing shard within the plan.
        shard: usize,
        /// The shard's own typed failure.
        source: Box<BackendError>,
    },
    /// One stage of a [`PipelineGraph`](crate::pipeline::PipelineGraph)
    /// failed the request; the stage's own typed failure is wrapped so a
    /// submitter can tell *where* in the dataflow the request died, just
    /// as [`BackendError::Shard`] names the failing shard of a width
    /// split.
    Stage {
        /// Index of the failing stage within the pipeline.
        stage: usize,
        /// The stage's own typed failure.
        source: Box<BackendError>,
    },
    /// A transient fault: the computation itself is sound, but this
    /// attempt failed for a reason that is expected to clear on retry
    /// (a soft error, an injected chaos fault, a resource hiccup).
    /// Serving layers re-run the batch under their
    /// [`RecoveryPolicy`](crate::pool::RecoveryPolicy) instead of
    /// surfacing this immediately.
    Transient {
        /// Human-readable explanation.
        reason: String,
    },
    /// The replica serving a micro-batch panicked mid-service. The
    /// batch itself may be fine — pools re-queue the riders and retry
    /// on another (or a respawned) replica; the error only reaches a
    /// ticket once the retry budget is exhausted.
    ReplicaPanicked,
    /// A serving queue rejected the submission because accepting it
    /// would exceed one of its [`QueuePolicy`](crate::queue::QueuePolicy)
    /// bounds — typed backpressure; retry after waiting on an
    /// outstanding ticket (or split the batch, for the token bound).
    QueueFull {
        /// Which policy bound rejected the submission.
        limit: QueueLimit,
    },
    /// The serving queue is shut down (or its last replica died): it
    /// accepts no new submissions, and any ticket that could no longer
    /// be served resolves to this error instead of leaking.
    QueueClosed,
    /// A replica pool was given no backend recipes, so it has no
    /// replica to serve on
    /// ([`ReplicaPool::from_recipes`](crate::pool::ReplicaPool::from_recipes)
    /// with an empty list).
    QueueUnavailable {
        /// Human-readable explanation.
        reason: String,
    },
}

impl BackendError {
    /// Whether retrying the same work is expected to succeed.
    ///
    /// Transient failures are properties of an *attempt*, not of the
    /// batch or program: a replica panic, a soft error flagged as
    /// [`BackendError::Transient`], a netlist that missed its
    /// completion window ([`BackendError::Oscillation`] — on real
    /// silicon the self-synchronous handshake simply re-fires), or
    /// backpressure ([`BackendError::QueueFull`])
    /// that clears as tickets resolve. Everything else — shape and
    /// program mismatches, malformed input, a closed queue — is a
    /// property of the request or the configuration and will fail
    /// identically on every retry.
    ///
    /// The [`ReplicaPool`](crate::pool::ReplicaPool) — the one place
    /// that retries — consults this to decide between re-queueing under
    /// its [`RecoveryPolicy`](crate::pool::RecoveryPolicy) and failing
    /// the tickets with the typed error.
    pub fn is_transient(&self) -> bool {
        match self {
            BackendError::Transient { .. }
            | BackendError::ReplicaPanicked
            | BackendError::Oscillation(_)
            | BackendError::QueueFull { .. } => true,
            // A shard or stage failure is as transient as what it hit.
            BackendError::Shard { source, .. } | BackendError::Stage { source, .. } => {
                source.is_transient()
            }
            BackendError::EmptyBatch
            | BackendError::ShapeMismatch { .. }
            | BackendError::Protocol(_)
            | BackendError::ProgramMismatch { .. }
            | BackendError::MalformedProgram { .. }
            | BackendError::MissingProgram
            | BackendError::InvalidShardPlan { .. }
            | BackendError::QueueClosed
            | BackendError::QueueUnavailable { .. } => false,
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::EmptyBatch => write!(f, "a token batch must not be empty"),
            BackendError::ShapeMismatch {
                token,
                expected,
                got,
            } => write!(
                f,
                "token {token} carries {got} subvectors but the macro has {expected} stages"
            ),
            BackendError::ProgramMismatch {
                cfg_ndec,
                cfg_ns,
                program_ndec,
                program_ns,
            } => write!(
                f,
                "program shape Ndec={program_ndec}/NS={program_ns} does not match \
                 configuration Ndec={cfg_ndec}/NS={cfg_ns}"
            ),
            BackendError::MalformedProgram { reason } => {
                write!(f, "malformed program: {reason}")
            }
            BackendError::MissingProgram => {
                write!(f, "session builder needs a program before build()")
            }
            BackendError::Oscillation(e) => write!(f, "{e}"),
            BackendError::Protocol(e) => write!(f, "netlist protocol failure: {e}"),
            BackendError::InvalidShardPlan { reason } => {
                write!(f, "invalid shard plan: {reason}")
            }
            BackendError::Shard { shard, source } => {
                write!(f, "shard {shard} failed: {source}")
            }
            BackendError::Stage { stage, source } => {
                write!(f, "pipeline stage {stage} failed: {source}")
            }
            BackendError::Transient { reason } => {
                write!(f, "transient fault (retryable): {reason}")
            }
            BackendError::ReplicaPanicked => {
                write!(
                    f,
                    "replica panicked mid-service; the batch was not completed"
                )
            }
            BackendError::QueueFull { limit } => match limit {
                QueueLimit::Requests { max_depth } => write!(
                    f,
                    "serving queue is full ({max_depth} unresolved requests); \
                     retry after a ticket resolves"
                ),
                QueueLimit::Tokens {
                    pending_tokens,
                    max_pending_tokens,
                } => write!(
                    f,
                    "serving queue is full ({pending_tokens} tokens queued, bound \
                     {max_pending_tokens}); retry after a ticket resolves or split the batch"
                ),
            },
            BackendError::QueueClosed => {
                write!(f, "serving queue is shut down and accepts no submissions")
            }
            BackendError::QueueUnavailable { reason } => {
                write!(f, "cannot open a serving queue: {reason}")
            }
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Oscillation(e) => Some(e),
            BackendError::Protocol(e) => Some(e),
            BackendError::Shard { source, .. } | BackendError::Stage { source, .. } => {
                Some(source.as_ref())
            }
            _ => None,
        }
    }
}

impl From<OscillationError> for BackendError {
    fn from(e: OscillationError) -> BackendError {
        BackendError::Oscillation(e)
    }
}

impl From<TokenError> for BackendError {
    fn from(e: TokenError) -> BackendError {
        match e {
            TokenError::ShapeMismatch {
                token,
                expected,
                got,
            } => BackendError::ShapeMismatch {
                token,
                expected,
                got,
            },
            TokenError::EmptyStream => BackendError::EmptyBatch,
            TokenError::Oscillation(o) => BackendError::Oscillation(o),
            TokenError::HandshakeStall { .. }
            | TokenError::UnknownOutput { .. }
            | TokenError::StrobeCount { .. } => BackendError::Protocol(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_sim::time::SimTime;

    #[test]
    fn displays_are_informative() {
        let s = BackendError::ShapeMismatch {
            token: 3,
            expected: 4,
            got: 2,
        }
        .to_string();
        assert!(s.contains("token 3") && s.contains('4') && s.contains('2'));
        assert!(BackendError::EmptyBatch.to_string().contains("empty"));
        let o = BackendError::from(OscillationError {
            events: 9,
            time: SimTime::ZERO,
        });
        assert!(o.to_string().contains("quiescence"));
    }

    #[test]
    fn shard_errors_name_the_shard_and_expose_the_source() {
        let inner = BackendError::EmptyBatch;
        let e = BackendError::Shard {
            shard: 3,
            source: Box::new(inner.clone()),
        };
        assert!(e.to_string().contains("shard 3"), "{e}");
        use std::error::Error as _;
        assert_eq!(e.source().unwrap().to_string(), inner.to_string());
        let p = BackendError::InvalidShardPlan {
            reason: "0 shards".into(),
        };
        assert!(p.to_string().contains("0 shards"));
    }

    #[test]
    fn stage_errors_name_the_stage_and_inherit_transience() {
        let fatal = BackendError::Stage {
            stage: 2,
            source: Box::new(BackendError::MalformedProgram {
                reason: "wrong width".into(),
            }),
        };
        assert!(fatal.to_string().contains("pipeline stage 2"), "{fatal}");
        assert!(fatal.to_string().contains("wrong width"), "{fatal}");
        assert!(!fatal.is_transient(), "payload faults stay fatal");
        use std::error::Error as _;
        assert!(fatal.source().unwrap().to_string().contains("wrong width"));
        let transient = BackendError::Stage {
            stage: 0,
            source: Box::new(BackendError::ReplicaPanicked),
        };
        assert!(transient.is_transient(), "a stage panic is retryable");
    }

    #[test]
    fn queue_errors_are_informative() {
        let full = BackendError::QueueFull {
            limit: QueueLimit::Requests { max_depth: 7 },
        };
        assert!(full.to_string().contains('7'), "{full}");
        let tokens = BackendError::QueueFull {
            limit: QueueLimit::Tokens {
                pending_tokens: 9,
                max_pending_tokens: 8,
            },
        };
        assert!(
            tokens.to_string().contains('9') && tokens.to_string().contains('8'),
            "{tokens}"
        );
        assert!(BackendError::QueueClosed.to_string().contains("shut down"));
        let unavailable = BackendError::QueueUnavailable {
            reason: "an empty recipe list".into(),
        };
        assert!(
            unavailable.to_string().contains("empty recipe list"),
            "{unavailable}"
        );
    }

    #[test]
    fn transient_classification_separates_retryable_from_fatal() {
        // Retryable: faults of the attempt, not of the request.
        assert!(BackendError::Transient {
            reason: "soft error".into()
        }
        .is_transient());
        assert!(BackendError::ReplicaPanicked.is_transient());
        assert!(BackendError::Oscillation(OscillationError {
            events: 1,
            time: SimTime::ZERO,
        })
        .is_transient());
        assert!(BackendError::QueueFull {
            limit: QueueLimit::Requests { max_depth: 1 },
        }
        .is_transient());
        // A shard error inherits the class of its source.
        assert!(BackendError::Shard {
            shard: 2,
            source: Box::new(BackendError::ReplicaPanicked),
        }
        .is_transient());
        assert!(!BackendError::Shard {
            shard: 2,
            source: Box::new(BackendError::EmptyBatch),
        }
        .is_transient());
        // Fatal: properties of the request or configuration.
        assert!(!BackendError::EmptyBatch.is_transient());
        assert!(!BackendError::MissingProgram.is_transient());
        assert!(!BackendError::MalformedProgram {
            reason: "bad tree".into()
        }
        .is_transient());
        assert!(!BackendError::QueueClosed.is_transient());
        let transient = BackendError::Transient {
            reason: "chaos fault".into(),
        };
        assert!(transient.to_string().contains("chaos fault"), "{transient}");
        assert!(
            BackendError::ReplicaPanicked.to_string().contains("panic"),
            "{}",
            BackendError::ReplicaPanicked
        );
    }

    #[test]
    fn protocol_failures_are_typed_and_fatal() {
        for e in [
            TokenError::HandshakeStall {
                time: SimTime::from_picos(5.0),
            },
            TokenError::UnknownOutput {
                time: SimTime::from_picos(7.0),
            },
            TokenError::StrobeCount {
                tokens: 4,
                strobes: 3,
            },
        ] {
            assert!(e.is_protocol(), "{e}");
            let b = BackendError::from(e.clone());
            assert_eq!(b, BackendError::Protocol(e.clone()));
            assert!(!b.is_transient(), "{b}");
            assert!(b.to_string().contains("protocol"), "{b}");
            use std::error::Error as _;
            assert_eq!(b.source().unwrap().to_string(), e.to_string());
        }
        assert!(!TokenError::EmptyStream.is_protocol());
    }

    #[test]
    fn token_errors_translate() {
        assert_eq!(
            BackendError::from(TokenError::EmptyStream),
            BackendError::EmptyBatch
        );
        assert_eq!(
            BackendError::from(TokenError::ShapeMismatch {
                token: 1,
                expected: 2,
                got: 3,
            }),
            BackendError::ShapeMismatch {
                token: 1,
                expected: 2,
                got: 3,
            }
        );
    }
}
