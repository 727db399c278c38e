"""Per-layer metrics of a traced run, computed from its spans.

Every metric is a total over the traced set-up and the first ``min_items``
items of the workload, so counts repeat exactly for a given seed and times
compare across commits.  A layer that a workload never enters reads 0 s on
that workload.
"""

from __future__ import annotations

import tracer as tr

_BUSY = (
    "norms.dual_norm", "norms.goodness", "norms.projection_ratio_norm",
    "subspaces.probe_subspace", "subspaces.worst_goodness",
    "subspaces.projection_op_norm", "subspaces.sigma_set", "subspaces.euclidean_constant",
    "lemmas.small_support_incidence", "lemmas.verify_range_support_gap",
    "lemmas.mc_subspace_volume", "lemmas.verify_frame_escape",
    "lemmas.verify_typicality_probability", "lemmas.verify_goodness_equivalence",
    "lemmas.verify_support_characterization", "exactparams.check_parameter_chain",
    "cli.render_report", "linalg.sample_projection", "linalg.sample_unit_sphere",
    "subspaces.sample_two_d_subspace",
)
_SELF = ("subspaces.probe_subspace", "subspaces.worst_goodness", "cli.main")

_COUNTS = [
    ("norms.dual_norm.calls", "norms.dual_norm", "calls"),
    ("norms.dual_norm.errors", "norms.dual_norm", "errors"),
    ("norms.goodness.calls", "norms.goodness", "calls"),
    ("norms.projection_ratio_norm.calls", "norms.projection_ratio_norm", "calls"),
]

PER_LAYER = (
    [(name, "count") for name, _, _ in _COUNTS]
    + [("norms.dual_norm.call_ms_p50", "ms"), ("norms.dual_norm.call_ms_p99", "ms")]
    + [(f"{layer}.busy_s", "s") for layer in _BUSY]
    + [(f"{layer}.self_s", "s") for layer in _SELF]
    + [
        ("subspaces.worst_goodness.solves_per_call", "count/call"),
        ("subspaces.worst_goodness.failures", "count"),
        ("lemmas.failed_reports", "count"),
        ("exactparams.check_parameter_chain.max_bits", "bits"),
        ("accuracy.shortfall_max", "1"),
        ("accuracy.inexact_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.wall_s", "s"),
    ]
)


def all_metrics(spans: list[list], wall_s: float, overhead: float, acc: tuple) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``, in ``PER_LAYER`` order."""
    stats = tr.layer_stats(spans)

    def stat(layer, key):
        return stats.get(layer, {}).get(key, 0)

    out = {name: (stat(layer, key), "count") for name, layer, key in _COUNTS}
    out["norms.dual_norm.call_ms_p50"] = (stat("norms.dual_norm", "call_ms_p50"), "ms")
    out["norms.dual_norm.call_ms_p99"] = (stat("norms.dual_norm", "call_ms_p99"), "ms")
    for layer in _BUSY:
        out[f"{layer}.busy_s"] = (stat(layer, "busy_s"), "s")
    for layer in _SELF:
        out[f"{layer}.self_s"] = (stat(layer, "self_s"), "s")

    attrs = [s[tr.ATTRS] for s in spans if s[tr.ATTRS]]
    out["subspaces.worst_goodness.solves_per_call"] = (
        tr.children_per_call(spans, "subspaces.worst_goodness", "norms.goodness"),
        "count/call")
    out["subspaces.worst_goodness.failures"] = (
        sum(a.get("failures", 0) for a in attrs), "count")
    out["lemmas.failed_reports"] = (tr.failed_reports(spans), "count")
    out["exactparams.check_parameter_chain.max_bits"] = (
        max((a["max_bits"] for a in attrs if "max_bits" in a), default=0), "bits")
    short_max, inexact = acc
    # 0 where the workload has no certified output
    out["accuracy.shortfall_max"] = (short_max or 0.0, "1")
    out["accuracy.inexact_ratio"] = (inexact or 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out["trace.wall_s"] = (wall_s, "s")
    return out


def print_shares(metrics: dict) -> None:
    """The shares the workload design predicts, each with its base."""
    v = {k: val for k, (val, _) in metrics.items()}

    def share(num, den):
        if v[den]:
            print(f"share {num} / {den} = {v[num] / v[den]:.3f}  ({v[num]:.4g} / {v[den]:.4g})")

    share("subspaces.worst_goodness.busy_s", "subspaces.probe_subspace.busy_s")
    share("norms.dual_norm.busy_s", "trace.wall_s")
    share("norms.goodness.busy_s", "trace.wall_s")
    share("norms.projection_ratio_norm.busy_s", "trace.wall_s")
