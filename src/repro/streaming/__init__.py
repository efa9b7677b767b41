"""Streaming workloads: autoregressive decode, evolving graphs, traffic.

The paper's headline scenarios — LLM serving on TRON, GNN inference on
GHOST — are *streaming* in production: decode cost varies per token as
the KV cache grows, graph workloads re-run on evolving edge sets, and
the serving tier sees multi-tenant load with diurnal shape.  This
package models all three phased-workload axes:

- :mod:`repro.streaming.decode` — per-token decode series with a
  stacked SoA path bit-identical to the scalar step loop;
- :mod:`repro.streaming.temporal` — edge-delta streams and snapshot
  re-evaluation with partition/physics reuse accounting;
- :mod:`repro.streaming.traffic` — multi-tenant trace generation with
  diurnal/bursty rate shaping over the serving arrival processes.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    ".decode": (
        "DecodeSeries", "DecodeWorkload", "decode_series",
        "decode_series_batch", "episode_decode_ops",
    ),
    ".temporal": (
        "DeltaKind", "GraphDelta", "TemporalGraphWorkload", "TemporalReport",
        "delta_stream", "run_temporal", "snapshots_from",
    ),
    ".traffic": (
        "ShapedArrivalProcess", "TenantProfile", "TrafficModel",
        "diurnal_rate_curve", "generate_tenant_trace", "parse_shaped_arrivals",
    ),
})

__all__ = [
    "DecodeSeries",
    "DecodeWorkload",
    "decode_series",
    "decode_series_batch",
    "episode_decode_ops",
    "DeltaKind",
    "GraphDelta",
    "TemporalGraphWorkload",
    "TemporalReport",
    "delta_stream",
    "run_temporal",
    "snapshots_from",
    "TenantProfile",
    "TrafficModel",
    "ShapedArrivalProcess",
    "diurnal_rate_curve",
    "generate_tenant_trace",
    "parse_shaped_arrivals",
]
