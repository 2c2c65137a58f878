"""Statistics shared by the benchmark's entry point and its A/B mode.

Everything here is a pure function of numbers or parsed JSON, so
perfbench/tests/test_stats.py can check it without building anything.
"""

import statistics

# Run pairs per (metric, workload) that a verdict needs: the
# choosing-metrics rule counts a gain as a win in >= 9 of 10 pairs.
PAIRS = 10


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them.

    A single value is its own quartiles.
    """
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def trimmed_mean(values, share=0.1):
    """Mean of `values` without the lowest and highest `share` of them
    (int(len * share) from each end; nothing dropped from few values)."""
    values = sorted(values)
    k = int(len(values) * share)
    return statistics.fmean(values[k:len(values) - k])


def spread(values):
    """Interquartile distance as a share of the median (0 if median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(parent, child, better):
    """How much worse `child` is than `parent`, as a share of `parent`.

    Positive means worse in the metric's `better` direction ("lower" or
    "higher"); negative means better.
    """
    if parent == 0:
        return 0.0
    delta = (child - parent) / abs(parent)
    return delta if better == "lower" else -delta


def is_better(a, b, better):
    """True when value `b` beats value `a` in the `better` direction."""
    return b < a if better == "lower" else b > a


def compare(parent_runs, child_runs, better, bound):
    """Judge one (metric, workload) pair from alternating run pairs.

    parent_runs[i] and child_runs[i] come from the same pair (same
    seed). Returns a dict with both sides' quartiles, the child's win
    count, and a verdict:

      "gain"        the child won >= 9/10 of the pairs (ties count for
                    neither) and the medians differ by more than the
                    parent's own interquartile distance;
      "regression"  the child's median is worse than the parent's by
                    more than `bound`;
      "unresolved"  the parent's spread exceeds `bound`, so a
                    regression within it cannot be ruled out (unless
                    every child run beats every parent run);
      "same"        none of the above: no worse than `bound`.

    With fewer than PAIRS pairs every verdict is "unresolved": the
    win rule is not defined below 10 pairs.
    """
    if len(parent_runs) != len(child_runs) or not parent_runs:
        raise ValueError("need the same, non-zero number of runs per side")
    pq = quartiles(parent_runs)
    cq = quartiles(child_runs)
    wins = sum(1 for p, c in zip(parent_runs, child_runs) if is_better(p, c, better))
    pairs = len(parent_runs)
    parent_iqr = pq[2] - pq[0]
    gap = abs(cq[1] - pq[1])
    worse = worse_by(pq[1], cq[1], better)
    all_better = all(is_better(p, c, better) for p in parent_runs for c in child_runs)
    if pairs < PAIRS:
        verdict = "unresolved"
    elif wins >= 0.9 * pairs and gap > parent_iqr and is_better(pq[1], cq[1], better):
        verdict = "gain"
    elif spread(parent_runs) > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "same"
    return {
        "parent": pq,
        "child": cq,
        "wins": wins,
        "pairs": pairs,
        "worse_by": worse,
        "parent_spread": spread(parent_runs),
        "verdict": verdict,
    }


# --------------------------------------------------------------------
# Per-layer metrics from the simulator's dumpStatsJson documents.
# --------------------------------------------------------------------


def _weighted_mean(pairs):
    total = sum(c for _, c in pairs)
    return sum(m * c for m, c in pairs) / total if total else 0.0


def layer_counters(stats_docs, payload_bytes):
    """Fold one or more dumpStatsJson documents into per-layer metrics.

    A workload that builds several Systems (the paper sweep) passes one
    document per System; counters add up, means are weighted by their
    sample counts, and the bus ratio is the busiest node of any System.
    """
    out = {
        "os.context_switches": 0,
        "os.proxy_faults": 0,
        "dma.transfers": 0,
        "ni.retransmits": 0,
        "ni.timeouts": 0,
        "ni.fast_retransmits": 0,
        "ni.cwnd_cuts": 0,
        "ni.ecn_marked": 0,
        "ni.rx_ooo_buffered": 0,
    }
    fault_us, initiate_us, xfer_us, delivery_us = [], [], [], []
    tlb_hits = tlb_misses = status_loads = completed = 0
    bytes_routed = lost_chunks = 0
    busy_max = 0.0
    for doc in stats_docs:
        ticks = doc.get("sim", {}).get("ticks", 0)
        net = doc.get("net", {})
        bytes_routed += net.get("bytesRouted", 0)
        fault = net.get("fault", {})
        lost_chunks += (fault.get("dropped", 0) + fault.get("corrupted", 0)
                        + fault.get("downDropped", 0))
        for node in doc.get("nodes", []):
            kernel = node.get("kernel", {})
            out["os.context_switches"] += kernel.get("contextSwitches", 0)
            out["os.proxy_faults"] += kernel.get("proxyFaults", 0)
            h = kernel.get("fault_us", {})
            fault_us.append((h.get("mean", 0), h.get("count", 0)))
            tlb = node.get("tlb", {})
            tlb_hits += tlb.get("hits", 0)
            tlb_misses += tlb.get("misses", 0)
            if ticks:
                busy_max = max(busy_max, node.get("bus", {}).get("busyTicks", 0) / ticks)
            for group, body in node.items():
                if not group.startswith("udma") or not isinstance(body, dict):
                    continue
                if group.endswith(".engine"):
                    completed += body.get("transfersCompleted", 0)
                    h = body.get("xfer_us", {})
                    xfer_us.append((h.get("mean", 0), h.get("count", 0)))
                else:
                    out["dma.transfers"] += body.get("transfersStarted", 0)
                    status_loads += body.get("statusLoads", 0)
                    h = body.get("initiate_us", {})
                    initiate_us.append((h.get("mean", 0), h.get("count", 0)))
            ni = node.get("ni")
            if ni:
                out["ni.retransmits"] += ni.get("retransmits", 0)
                out["ni.timeouts"] += ni.get("timeouts", 0)
                out["ni.fast_retransmits"] += ni.get("fastRetransmits", 0)
                out["ni.cwnd_cuts"] += ni.get("cwndCuts", 0)
                out["ni.ecn_marked"] += ni.get("ecnMarked", 0)
                out["ni.rx_ooo_buffered"] += ni.get("rxOooBuffered", 0)
                h = ni.get("delivery_us", {})
                delivery_us.append((h.get("mean", 0), h.get("count", 0)))
    out["os.fault_us_mean"] = _weighted_mean(fault_us)
    lookups = tlb_hits + tlb_misses
    out["vm.tlb_hit_rate"] = tlb_hits / lookups if lookups else 0.0
    out["dma.initiate_us_mean"] = _weighted_mean(initiate_us)
    out["dma.xfer_us_mean"] = _weighted_mean(xfer_us)
    out["dma.status_loads_per_transfer"] = status_loads / completed if completed else 0.0
    out["bus.busy_frac_max"] = busy_max
    out["ni.retransmit_ratio"] = out["ni.retransmits"] / lost_chunks if lost_chunks else 0.0
    out["ni.delivery_us_mean"] = _weighted_mean(delivery_us)
    out["net.bytes_routed_per_payload_byte"] = (
        bytes_routed / payload_bytes if payload_bytes else 0.0)
    return out
