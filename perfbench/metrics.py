"""Metric math of the benchmark: percentiles, span self time, ratios, and the
end-to-end and per-layer metrics derived from one driver run.

Everything here is a pure function of the driver's JSON output and span
list, so tests/test_metrics.py can pin it down without building anything.
"""

import math
import statistics

# Percentile ladder, in units of 1/10000 (9900 = p99), highest first.
_LADDER = (9999, 9990, 9900, 9000, 5000)

# src/ modules a span can be attributed to; "cell" (one scenario) and
# "bench" (the benchmark's own checks) are not layers of the program.
SRC_LAYERS = ("net", "graph", "route", "traffic", "sim", "analysis", "embed")

PROTOCOLS = ("pr", "lfa", "reconv")


def _rank(n, per10k):
    """Nearest-rank position (1-based) of a percentile among n samples."""
    return max(1, (per10k * n + 9999) // 10000)


def tail_percentile(n):
    """The highest ladder percentile with at least ten samples beyond it.

    Returns the percentile as a float (99.0 for p99), or None when even the
    median has fewer than ten samples above it.
    """
    for per10k in _LADDER:
        if n - _rank(n, per10k) >= 10:
            return per10k / 100.0
    return None


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    per10k = int(round(pct * 100))
    return ordered[_rank(len(ordered), per10k) - 1]


def timing_summary(values):
    """Median and tail of a timing sample, with the tail's percentile and the
    sample count.  Below twenty samples the tail is the maximum."""
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": None}
    pct = tail_percentile(n)
    tail = percentile(values, pct) if pct is not None else max(values)
    return {"n": n, "p50": percentile(values, 50.0), "tail": tail, "tail_pct": pct}


def ratio(num, den):
    """num / den, or 0.0 when the base is zero (a layer the workload never
    reaches); every caller names its base."""
    return num / den if den else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def covered_length(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover.  `spans` are dicts with id, parent, start_ns, end_ns.
    Returns {id: self_ns}."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        out[s["id"]] = (end - start) - covered_length(start, end, children.get(s["id"], ()))
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def span_ledger(spans):
    """Aggregates a traced pass: cell durations, per-name self time and
    durations of spans inside cells, and top-level (out-of-cell) spans."""
    by_id = {s["id"]: s for s in spans}
    in_cell = {}
    for s in sorted(spans, key=lambda s: s["id"]):
        p = s["parent"]
        in_cell[s["id"]] = p >= 0 and (by_id[p]["name"] == "cell" or in_cell.get(p, False))
    selfs = self_times(spans)
    ledger = {"cells": [], "self": {}, "durations": {}, "outside": {}}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        if s["name"] == "cell":
            ledger["cells"].append(dur)
        elif in_cell[s["id"]]:
            ledger["self"][s["name"]] = ledger["self"].get(s["name"], 0) + selfs[s["id"]]
            ledger["durations"].setdefault(s["name"], []).append(dur)
        else:
            ledger["outside"].setdefault(s["name"], []).append(dur)
    return ledger


def layer_coverage(ledger):
    """Share of traced cell time that src/ layer spans account for by self
    time.  Base: the summed duration of all cell spans."""
    layer_self = sum(v for k, v in ledger["self"].items() if layer_of(k) in SRC_LAYERS)
    return ratio(layer_self, sum(ledger["cells"]))


def pass_rates(passes, threads):
    """Scenarios per second of each pass run at `threads` threads."""
    return [p["scenarios"] / p["wall_s"] for p in passes
            if p["threads"] == threads and p["wall_s"] > 0]


def end_to_end(run):
    """The end-to-end metrics of a measure-mode driver run."""
    n = run["threads_par"]
    return {
        "scen_per_s_1t": (median(pass_rates(run["passes"], 1)), "1/s"),
        "scen_per_s_par": (median(pass_rates(run["passes"], n)), "1/s"),
        "setup_s": (median([s["total_s"] for s in run["setups"]]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(run, spans):
    """The per-layer metrics of a trace-mode driver run and its spans.

    Units name their base: "ns/scen" is a mean over traced scenarios,
    "ns/persist" a median over checkpoint persists, "s/setup" a median over
    set-ups.  Plain "ns" marks a percentile of individual spans.  A layer a
    workload never calls reads 0."""
    trace = run["trace"]
    tally = trace["tally"]
    ledger = span_ledger(spans)
    cells = len(ledger["cells"])
    selfs = ledger["self"]

    def per_scenario(name):
        return (ratio(selfs.get(name, 0), cells), "ns/scen")

    m = {}
    m["net.sample_ns"] = per_scenario("net.sample")
    m["net.fail_ns"] = per_scenario("net.fail")
    m["graph.components_ns"] = per_scenario("graph.components")
    for p in PROTOCOLS:
        m["route.protocol_build_ns." + p] = per_scenario("route.protocol_build." + p)
    m["route.spf_repair_ns"] = per_scenario("route.spf_repair")
    spf = timing_summary(ledger["durations"].get("route.spf_repair", []))
    m["route.spf_repair_ns_p50"] = (spf["p50"], "ns")
    m["route.spf_repair_ns_tail"] = (spf["tail"], "ns")
    m["route.cache_rebuilds"] = (tally["cache_rebuilds"], "count")
    m["route.cache_hits"] = (tally["cache_hits"], "count")
    m["traffic.probe_ns"] = per_scenario("traffic.probe")
    m["traffic.affected_flow_frac"] = (ratio(tally["affected_flows"], tally["probed_flows"]),
                                       "frac")
    m["traffic.replay_ns"] = per_scenario("traffic.replay")
    m["traffic.replay_adds"] = (ratio(tally["replay_adds"], cells), "adds/scen")
    m["traffic.price_ns"] = per_scenario("traffic.price")
    m["traffic.merge_ns"] = per_scenario("traffic.merge")
    walk_total = 0
    for p in PROTOCOLS:
        w = tally.get("walk", {}).get(p, {"flows": 0, "hops": 0, "delivered_hops": 0,
                                          "ttl_expired": 0})
        walk_ns = selfs.get("sim.walk." + p, 0)
        walk_total += walk_ns
        m["sim.walk_ns." + p] = (ratio(walk_ns, cells), "ns/scen")
        m["sim.hops_per_scenario." + p] = (ratio(w["hops"], cells), "hops/scen")
        m["sim.ns_per_hop." + p] = (ratio(walk_ns, w["hops"]), "ns/hop")
        m["sim.useful_hop_frac." + p] = (ratio(w["delivered_hops"], w["hops"]), "frac")
        m["sim.ttl_expired_flow_frac." + p] = (ratio(w["ttl_expired"], w["flows"]), "frac")
    m["sim.walk_ns"] = (ratio(walk_total, cells), "ns/scen")
    m["analysis.reduce_ns"] = per_scenario("analysis.reduce")
    persists = ledger["outside"].get("analysis.persist", [])
    m["analysis.persist_ns"] = (median(persists), "ns/persist")
    m["analysis.checkpoint_bytes"] = (ratio(trace["checkpoint_bytes"], trace["persists"]),
                                      "B/persist")
    n = run["threads_par"]
    rate_1t = median(pass_rates(run["passes"], 1))
    rate_par = median(pass_rates(run["passes"], n))
    m["sim.par_efficiency"] = (ratio(rate_par, n * rate_1t), "frac")
    m["sim.unit_busy_frac"] = (trace["unit_busy_frac"], "frac")
    cell = timing_summary(ledger["cells"])
    m["cell_ns_p50"] = (cell["p50"], "ns")
    m["cell_ns_tail"] = (cell["tail"], "ns")
    m["embed.suite_build_s"] = (median([s["suite_build_s"] for s in run["setups"]]), "s/setup")
    m["route.pristine_build_s"] = (median([s["pristine_build_s"] for s in run["setups"]]),
                                   "s/setup")
    m["trace_overhead_frac"] = (ratio(trace["traced_wall_s"], trace["untraced_wall_s"]) - 1.0,
                                "frac")
    m["trace.layer_coverage_frac"] = (layer_coverage(ledger), "frac")
    details = {"cell": cell, "spf_repair": spf}
    return m, details


def finite(metrics):
    """True when every metric value is a finite number."""
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v, _ in metrics.values())
