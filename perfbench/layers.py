"""Per-layer metrics of a traced run, named as in BENCHMARK.json.

Each metric is read from the traced passes of the workload under test.  A
metric whose spans that workload never records (a 2D size on the 1D
workload, an experiment on a walk workload) is read from one traced pass of
the first other workload that records them, so every metric carries a
measured value; the report marks those values with the workload they came
from.  `<layer>.self_s` and `other_s` of the workload's own passes add up to
its `trace.wall_s`.
"""

from __future__ import annotations

import numpy as np

from tracer import LAYERS

# the experiments as BENCHMARK.json names them
EXPERIMENTS = ("evolve1d", "evolve2d", "dispersion", "gauge-check", "current-check", "landau",
               "bloch", "exb", "rational-field", "nonabelian-check", "curved-schwarzschild",
               "gw-scan", "aharonov", "convergence")

SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}

# metric, unit, span name, tag parts every sample must carry, statistic:
#   p50/p99  percentile of the call's duration, self50 median self time,
#   per_step50 median duration divided by the call's steps,
#   per_pass total duration per pass, setup total duration during set-up
CALLS = [
    ("lattice.shift_us.2d128", "us", "lattice.shift", ("2d128",), "self50"),
    ("lattice.shift_us.1d1024", "us", "lattice.shift", ("1d1024",), "self50"),
    ("lattice.apply_coin_us.uniform.2d128", "us", "lattice.apply_coin", ("2d128", "uniform"), "self50"),
    ("lattice.apply_coin_us.field.2d128", "us", "lattice.apply_coin", ("2d128", "field"), "self50"),
    ("lattice.apply_coin_us.1d1024", "us", "lattice.apply_coin", ("1d1024",), "self50"),
    ("lattice.step_us.1d1024", "us", "lattice.step", ("1d1024",), "p50"),
    ("lattice.step_us.1d64", "us", "lattice.step", ("1d64",), "p50"),
    ("abelian.em_step_2d_us", "us", "abelian.em_step_2d", (), "p50"),
    ("abelian.em_step_2d_us.p99", "us", "abelian.em_step_2d", (), "p99"),
    ("abelian.em_step_2d.overhead_us", "us", "abelian.em_step_2d", (), "self50"),
    ("abelian.electric_step_1d_us", "us", "abelian.electric_step_1d", ("1d1024",), "p50"),
    ("abelian.electric_step_1d_us.1d64", "us", "abelian.electric_step_1d", ("1d64",), "p50"),
    ("abelian.electric_step_1d.overhead_us", "us", "abelian.electric_step_1d", ("1d1024",), "self50"),
    ("abelian.gauge_transform_1d_ms", "ms", "abelian.gauge_transform_1d", (), "p50"),
    ("abelian.landau_quasienergies_s", "s", "abelian.landau_quasienergies", (), "per_pass"),
    ("abelian.exb_positions_s", "s", "abelian.exb_positions", (), "per_pass"),
    ("nonabelian.step_us.n2", "us", "nonabelian.nonabelian_step", ("1d1024", "n2"), "p50"),
    ("nonabelian.step_us.n3", "us", "nonabelian.nonabelian_step", ("1d1024", "n3"), "p50"),
    ("nonabelian.step_us.n2.1d64", "us", "nonabelian.nonabelian_step", ("1d64", "n2"), "p50"),
    ("nonabelian.links_ms", "ms", "nonabelian.links", (), "setup"),
    ("nonabelian.gauge_transform_links_ms", "ms", "nonabelian.gauge_transform_links", (), "p50"),
    ("curved.evolve_1p2_step_us", "us", "curved.evolve_1p2", ("2d128",), "per_step50"),
    ("curved.coin_angles_from_triad_ms", "ms", "curved.coin_angles_from_triad", (), "p50"),
    ("curved.curved_step_1p1_us", "us", "curved.curved_step_1p1", ("1d1024",), "p50"),
    ("curved.curved_step_1p1_us.1d64", "us", "curved.curved_step_1p1", ("1d64",), "p50"),
    ("curved.gw_wavelength_scan_s", "s", "curved.gw_wavelength_scan", (), "per_pass"),
    ("measured.sample_averaged_distribution_s", "s", "measured.sample_averaged_distribution",
     (), "p50"),
    ("dirac.walk_dirac_convergence_s", "s", "dirac.walk_dirac_convergence", (), "per_pass"),
    ("config.load_config_us", "us", "config.load_config", (), "p50"),
    ("table.render_table_ms", "ms", "table.render_table", (), "per_pass"),
    ("cli.main_s", "s", "cli.main", (), "per_pass"),
] + [(f"experiments.run_s.{e}", "s", "experiments.run", (e,), "per_pass") for e in EXPERIMENTS]


def _statistic(agg, setup_spans, name, parts, stat):
    """(value in seconds, sample count), or None when nothing was recorded."""
    if stat == "setup":
        durations = [s.t1 - s.t0 for s in setup_spans if s.name == name]
        return (sum(durations), len(durations)) if durations else None
    total, own, steps = (np.frombuffer(a, dtype=float) for a in agg.samples(name, parts))
    if not len(total):
        return None
    if stat == "p50":
        return float(np.percentile(total, 50)), len(total)
    if stat == "p99":
        return float(np.percentile(total, 99)), len(total)
    if stat == "self50":
        return float(np.percentile(own, 50)), len(own)
    if stat == "per_step50":
        return float(np.percentile(total / steps, 50)), len(total)
    if stat == "per_pass":
        return float(total.sum()) / agg.passes, len(total)
    raise ValueError(stat)


def per_layer(sources, overhead_ratio, ledger, sizes=None):
    """Metrics dict {name: (value, unit)} and the human-readable report lines.

    `sources` is [(workload, PassAggregate, setup spans)], the workload under
    test first; `sizes` maps the size tags in metric names to the ones run.
    """
    own_name, own, _ = sources[0]
    metrics, report = {}, [f"perfbench per-layer report, workload {own_name}"]
    for metric, unit, span, parts, stat in CALLS:
        parts = tuple((sizes or {}).get(p, p) for p in parts)
        for source, agg, setup_spans in sources:
            got = _statistic(agg, setup_spans, span, parts, stat)
            if got is not None:
                break
        if got is None:
            ledger.add(f"recorded.{metric}", False)
            continue
        value, count = got
        metrics[metric] = (value * SCALE[unit], unit)
        origin = "" if source == own_name else f"  (from {source})"
        report.append(f"  {metric:44s} {value * SCALE[unit]:14.6g} {unit:5s} n={count}{origin}")

    iterations = None
    for source, agg, _ in sources:
        counts, its = agg.counts()
        if counts["measured"][0]:
            iterations = its
            break
    metrics["measured.step_iterations"] = (iterations or 0, "count")

    passes = own.passes
    wall = own.wall / passes
    other = (own.wall - own.top) / passes
    covered = 0.0
    for layer in LAYERS:
        for source, agg, _ in sources:
            counts, _ = agg.counts()
            if counts[layer][0]:
                break
        calls, sites, nbytes = counts[layer]
        self_s = agg.layer_self[layer] / agg.passes
        if source == own_name:
            covered += self_s
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.site_updates"] = (sites, "count")
        metrics[f"{layer}.bytes_computed"] = (nbytes, "bytes")
        origin = "" if source == own_name else f"  (from {source})"
        report.append(f"  layer {layer:12s} self {self_s:.6g} s/pass  calls {calls}  "
                      f"site updates {sites}  bytes {nbytes} (computed){origin}")
    ledger.add("trace_self_times_add_up", abs(covered + other - wall) <= 1e-9 * wall)
    report.append(f"  own layers self {covered:.6g} s + other {other:.6g} s = traced wall "
                  f"{wall:.6g} s per pass over {passes} passes; overhead x{overhead_ratio:.4f}")

    metrics["other_s"] = (other, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    metrics["ops_failed_ratio"] = (len(ledger.failures) / max(ledger.attempted, 1), "ratio")
    return metrics, report
