"""Online DCN serving: defense-as-a-service over the fused engines.

The offline reproduction runs tables; this package serves live traffic.
:class:`DCNService` coalesces concurrent classify requests into
shape-bucketed engine dispatches, routes benign rows straight out through
the detector gate, and fuses all flagged rows across the batch into one
early-exit corrector vote — with admission control, backpressure
and per-request telemetry around the hot path.  See DESIGN.md ("Serving
layer") for the full design and ``python -m repro serve`` for the CLI.
"""

from .bucketing import bucket_for, bucket_sizes, pad_to_bucket
from .client import CircuitBreaker, ClientCounters, DCNClient, RemoteProtocolError
from .loadgen import (
    GeneratedRequest,
    RunStats,
    StreamSpec,
    build_stream,
    run_coalesced,
    run_offline,
    run_remote,
    run_windowed,
)
from .service import OVERLOAD_POLICIES, DCNService, ServeResult, ServeTicket
from .slo import AdmissionDecision, DispatchCostModel, SloAdmission
from .telemetry import (
    LatencySketch,
    ServeCounters,
    TelemetryExporter,
    read_telemetry,
    rotated_segment,
)
from .transport import (
    DEFAULT_MAX_FRAME_BYTES,
    FRAME_ERROR_CODES,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    DCNServer,
    FrameError,
)
from .workers import ServePool

__all__ = [
    "DCNService",
    "ServeResult",
    "ServeTicket",
    "ServePool",
    "DCNServer",
    "DCNClient",
    "ClientCounters",
    "CircuitBreaker",
    "RemoteProtocolError",
    "FrameError",
    "FRAME_ERROR_CODES",
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "OVERLOAD_POLICIES",
    "ServeCounters",
    "LatencySketch",
    "TelemetryExporter",
    "read_telemetry",
    "rotated_segment",
    "DispatchCostModel",
    "SloAdmission",
    "AdmissionDecision",
    "bucket_sizes",
    "bucket_for",
    "pad_to_bucket",
    "StreamSpec",
    "GeneratedRequest",
    "RunStats",
    "build_stream",
    "run_offline",
    "run_coalesced",
    "run_windowed",
    "run_remote",
]
