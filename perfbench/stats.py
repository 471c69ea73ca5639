"""Statistics and metric arithmetic for the perfbench ledger (stdlib only).

The ledger binary prints raw samples; everything derived from them -- medians,
quartiles, ratios, the closure row, the pair rule -- is computed here so the
arithmetic is tested in one place (perfbench/test_perfbench.py).
"""

import math
import statistics
from collections import defaultdict

# ---------------------------------------------------------------------------
# Sample statistics
# ---------------------------------------------------------------------------


def median(values):
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def iqr_share(values):
    """Distance between the quartiles as a share of the median; None when
    the median is 0 (the share is undefined)."""
    q1, q2, q3 = quartiles(values)
    return ratio(q3 - q1, q2)


def tail_percentile(values, min_beyond=10):
    """Highest of the 99th/95th/90th/75th/50th percentiles (nearest rank)
    with at least `min_beyond` samples strictly above its rank, as
    (percent, value); None when the sample is too small for any."""
    ordered = sorted(values)
    n = len(ordered)
    for percent in (99, 95, 90, 75, 50):
        rank = max(1, math.ceil(percent / 100 * n))
        if n - rank >= min_beyond:
            return (percent, ordered[rank - 1])
    return None


# ---------------------------------------------------------------------------
# Ratios: an undefined ratio is None (printed "null"), never 0
# ---------------------------------------------------------------------------


def _finite(x):
    return x is not None and isinstance(x, (int, float)) and math.isfinite(x)


def ratio(numerator, denominator):
    """numerator / denominator, or None when either side is missing or
    non-finite, or the denominator is 0."""
    if not (_finite(numerator) and _finite(denominator)) or denominator == 0:
        return None
    return numerator / denominator


def fmt(value, unit="", digits=4):
    """Human-readable value with its unit; None prints as null."""
    if value is None:
        return "null"
    if isinstance(value, int):
        text = str(value)
    else:
        text = f"{value:.{digits}g}"
    return f"{text} {unit}".rstrip()


# ---------------------------------------------------------------------------
# Engine spans and the closure row
# ---------------------------------------------------------------------------


def gating_spans(spans):
    """Fold telemetry spans [iteration, rank, name, seconds] into the gating
    rank's phase times.

    Per iteration the gating rank is the one with the longest assign + update.
    Returns a dict with the per-iteration means of the gating rank's assign
    and update spans, their total over the run, the number of iterations
    seen, and the update imbalance (max over mean of per-rank update time).
    Values that are undefined (no spans, zero mean) are None.
    """
    per_iter = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
    update_by_rank = defaultdict(float)
    for iteration, rank, name, seconds in spans:
        slot = 0 if name == "assign" else 1
        per_iter[iteration][rank][slot] += seconds
        if slot == 1:
            update_by_rank[rank] += seconds
    assign_total = 0.0
    update_total = 0.0
    for ranks in per_iter.values():
        assign_s, update_s = max(ranks.values(), key=lambda p: p[0] + p[1])
        assign_total += assign_s
        update_total += update_s
    iterations = len(per_iter)
    mean_update = ratio(sum(update_by_rank.values()), len(update_by_rank))
    return {
        "iterations": iterations,
        "assign_s": ratio(assign_total, iterations),
        "update_s": ratio(update_total, iterations),
        "span_total_s": assign_total + update_total,
        "update_imbalance": ratio(max(update_by_rank.values(), default=None),
                                  mean_update),
    }


def unattributed_share(solve_s, setup_s, span_total_s):
    """Closure: the part of one fit's wall time that neither set-up nor the
    gating rank's phase spans explain, as a share of the fit."""
    if not all(_finite(x) for x in (solve_s, setup_s, span_total_s)):
        return None
    return ratio(solve_s - setup_s - span_total_s, solve_s)


# ---------------------------------------------------------------------------
# Metric assembly from the ledger's raw output
# ---------------------------------------------------------------------------


def end_to_end(raw):
    """End-to-end metrics of one untraced run, name -> value."""
    iterations = raw["iterations"]
    solve = median(raw["solve_s"])
    setup = median(raw["setup_s"])
    return {
        "solve_s": solve,
        "setup_s": setup,
        "iter_s": ratio(solve - setup, iterations),
        "modeled_iter_s": ratio(raw["model"]["total_s"], iterations),
        "peak_rss_mib": raw["peak_rss_mib"],
    }


MODEL_FIELDS = ("compute_s", "mesh_comm_s", "net_comm_s", "sample_read_s",
                "centroid_stream_s", "update_s", "net_bytes", "net_rounds",
                "net_crossing_bytes", "flops")


def gemm_traffic(tile, k_slice, d):
    """Computed flops and bytes of one GEMM tile: 2*T*K*d multiply-adds over
    the T x d float samples, the K x d float centroids, K double norms and
    T 24-byte top-two records (the exact rescore is not counted)."""
    flops = 2 * tile * k_slice * d
    nbytes = 4 * tile * d + 4 * k_slice * d + 8 * k_slice + 24 * tile
    return flops, nbytes


def chain_traffic(tile, k_slice, d):
    """Computed flops and bytes of one multi-chain tile: a subtract, multiply
    and add per sample, centroid and dimension, over the same operands as the
    GEMM tile without the norms."""
    flops = 3 * tile * k_slice * d
    nbytes = 4 * tile * d + 4 * k_slice * d + 24 * tile
    return flops, nbytes


def roofline_gflops(peak_gflops, bandwidth_gbs, flops_per_byte):
    """Roofline bound: the lower of peak rate and bandwidth x intensity."""
    if not all(_finite(x) for x in (peak_gflops, bandwidth_gbs, flops_per_byte)):
        return None
    return min(peak_gflops, bandwidth_gbs * flops_per_byte)


def per_layer(raw):
    """Per-layer metrics of one traced run, name -> value (None when
    undefined)."""
    iterations = raw["iterations"]
    kernel = raw["kernel"]
    fma = median(raw["fma_gflops"])
    stream = median(raw["stream_gbs"])
    shape = (kernel["tile"], kernel["k_slice"], kernel["d"])
    rows = {}
    for name, traffic in (("gemm", gemm_traffic), ("chain", chain_traffic)):
        flops, nbytes = traffic(*shape)
        tile_s = median(kernel[name + "_tile_s"])
        gflops = ratio(flops / 1e9, tile_s)
        intensity = ratio(flops, nbytes)
        prefix = "kernel." + name
        rows[prefix + ".tile_s"] = tile_s
        rows[prefix + ".gflops"] = gflops
        rows[prefix + ".flops_per_byte"] = intensity
        rows[prefix + ".roofline_frac"] = ratio(
            gflops, roofline_gflops(fma, stream, intensity))
    spans = gating_spans(raw["spans"])
    setup = median(raw["setup_s"])
    traced = raw["traced_s"]
    ranks = raw["ranks"]

    m = dict(rows)
    m.update({
        "kernel.gate.tile_s": median(kernel["gate_tile_s"]),
        "engine.assign_s": spans["assign_s"],
        "engine.update_s": spans["update_s"],
        "engine.update_imbalance": spans["update_imbalance"],
        "closure.unattributed_share": unattributed_share(
            traced, setup, spans["span_total_s"]),
        "gate.prune_rate": raw["gate"]["prune_rate"],
        "gate.distance_evals": raw["gate"]["distance_evals"],
        "swmpi.spawn_s": median(raw["spawn_s"]),
        "swmpi.allreduce_minloc_s": median(raw["allreduce_minloc_s"]),
        "swmpi.reduce_and_update_s": median(raw["reduce_and_update_s"]),
        "swmpi.stall_share": ratio(raw["stall_s"],
                                   traced * ranks if _finite(traced) else None),
        "planner.plan_s": median(raw["plan_s"]),
        "init.seed_s": median(raw["init_s"]),
        "checkpoint.save_s": median(raw["checkpoint_save_s"]),
        "checkpoint.load_s": median(raw["checkpoint_load_s"]),
        "checkpoint.bytes": raw["checkpoint_bytes"],
        "recovery.legs": raw["recovery_legs"],
        "recovery.leg_overhead_s": ratio(
            raw["recovery_fit_s"] - raw["plain_fit_s"]
            if _finite(raw["recovery_fit_s"]) and _finite(raw["plain_fit_s"])
            else None, raw["recovery_legs"]),
        "lloyd.serial_s": raw["lloyd_serial_s"],
        "host.fma_gflops": fma,
        "host.stream_gbs": stream,
        "host.stream_array_mib": raw["stream_array_bytes"] / 2**20,
        "host.llc_mib": raw["llc_bytes"] / 2**20,
        "telemetry.overhead_share": (
            None if ratio(traced, raw["untraced_s"]) is None
            else ratio(traced, raw["untraced_s"]) - 1),
    })
    for field in MODEL_FIELDS:
        m["model." + field] = ratio(raw["model"][field], iterations)
    return m


# ---------------------------------------------------------------------------
# Comparing a parent and a change
# ---------------------------------------------------------------------------


def pair_rule(parent, change, better="lower"):
    """The gain rule over alternating parent/change pairs.

    A gain is claimed only with at least 10 pairs, the change winning at
    least 9/10 of them (ties count for neither side), and the gap between
    the medians larger than the parent's quartile spread.
    """
    if len(parent) != len(change):
        raise ValueError("pairs need one parent and one change value each")
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pairs = len(parent)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = median(change)
    gap = sign * (p_med - c_med)
    return {
        "pairs": pairs,
        "wins": wins,
        "gap": gap,
        "parent_iqr": p_q3 - p_q1,
        "gain": pairs >= 10 and wins * 10 >= 9 * pairs and gap > p_q3 - p_q1,
    }


def verdict(parent, change, bound, better="lower"):
    """Regression row for one metric on one workload.

    "improved": the pair rule holds. "unresolved": the parent's own spread
    exceeds the bound and not every change run beats every parent run.
    "regression": the change median is worse than the parent median by more
    than `bound` (a share of the parent median). "ok" otherwise.
    """
    rule = pair_rule(parent, change, better)
    if rule["gain"]:
        return "improved"
    sign = 1 if better == "lower" else -1
    spread = iqr_share(parent)
    every_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread is None or spread > bound:
        return "improved" if every_better else "unresolved"
    worse_by = ratio(sign * (median(change) - median(parent)), median(parent))
    if worse_by is None:
        return "unresolved"
    return "regression" if worse_by > bound else "ok"
