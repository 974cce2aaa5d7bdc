"""Experiment harness: drives the servers, verifiers, and sizings behind
every figure of the paper's evaluation (section 6); the figure benchmarks
time what it drives."""

from repro.harness.experiment import (
    AdviceSizes,
    ContinuousAuditArms,
    ExperimentConfig,
    StreamingMemoryComparison,
    VerificationArms,
    advice_sizes,
    continuous_audit_arms,
    make_store,
    serve,
    serve_after_warmup,
    serve_to_store,
    streaming_memory,
    verification_arms,
)
from repro.harness.reporting import format_series, print_series

__all__ = [
    "AdviceSizes",
    "ContinuousAuditArms",
    "ExperimentConfig",
    "StreamingMemoryComparison",
    "VerificationArms",
    "advice_sizes",
    "continuous_audit_arms",
    "make_store",
    "serve",
    "serve_after_warmup",
    "serve_to_store",
    "streaming_memory",
    "verification_arms",
    "format_series",
    "print_series",
]
