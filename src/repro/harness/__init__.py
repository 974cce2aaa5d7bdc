"""Experiment harness: drives the servers, verifiers, and measurements
behind every figure of the paper's evaluation (section 6)."""

from repro.harness.experiment import (
    AdviceSizes,
    ContinuousAuditComparison,
    ExperimentConfig,
    ServerComparison,
    StorageIoComparison,
    StreamingMemoryComparison,
    VerifierComparison,
    make_app,
    make_store,
    measure_advice_sizes,
    measure_continuous_audit,
    measure_server_overhead,
    measure_storage_io,
    measure_streaming_memory,
    measure_verification,
    serve_to_store,
)
from repro.harness.reporting import format_series, print_series

__all__ = [
    "AdviceSizes",
    "ContinuousAuditComparison",
    "ExperimentConfig",
    "ServerComparison",
    "StorageIoComparison",
    "StreamingMemoryComparison",
    "VerifierComparison",
    "make_app",
    "make_store",
    "measure_advice_sizes",
    "measure_continuous_audit",
    "measure_server_overhead",
    "measure_storage_io",
    "measure_streaming_memory",
    "measure_verification",
    "serve_to_store",
    "format_series",
    "print_series",
]
