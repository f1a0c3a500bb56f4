"""Spans and counts recorded around the benchmark's calls into each layer.

The layers are arraygain's modules: beam, optimize, estimate, oracle,
scenario and cli.  Spans come from the benchmark's own code only: one
root span per operation ("op.<kind>") and one child span per call into
a layer's public function ("<layer>.<function>").  Layer calls do not
nest, so a layer span's self time is its duration, and the root's self
time is the benchmark's own share of the operation.

Spans stay in memory and are written out when the run ends.  Every
traced run also plays a fixed probe block that calls each layer on
fixed inputs, so that every per-layer metric has a value on every
workload: a metric is taken from the workload's own operations where
they call that function, and from the probe block where they do not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("beam", "optimize", "estimate", "oracle", "scenario", "cli")


class NullTracer:
    """Tracing off: calls go straight through."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value):
        pass

    def begin(self, kind):
        pass

    def end(self, start, end):
        pass


NULL = NullTracer()


class Tracer:
    """Records (id, parent, op, name, start, end) spans and named counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.ops = 0
        self._next_id = 0
        self._root: tuple[int, str] | None = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def begin(self, kind: str) -> None:
        self.ops += 1
        self._root = (self._new_id(), kind)

    def end(self, start: float, end: float) -> None:
        root_id, kind = self._root
        self.spans.append((root_id, None, self.ops, "op." + kind, start, end))
        self._root = None

    def call(self, name: str, fn, *args):
        span_id = self._new_id()
        parent = self._root[0] if self._root else None
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((span_id, parent, self.ops if self._root else None, name, start, time.perf_counter()))

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, span, start, end in self.spans if span == name]

    def layer_self(self, layer: str) -> list[float]:
        prefix = layer + "."
        return [end - start for _, _, _, span, start, end in self.spans if span.startswith(prefix)]

    def bench_self(self) -> float:
        """Root time not covered by layer spans, summed over operations."""
        total = 0.0
        for _, parent, _, name, start, end in self.spans:
            total += (end - start) * (-1.0 if parent is not None else 1.0)
        return total

    def dump(self, fh, source: str) -> None:
        for span_id, parent, op, name, start, end in self.spans:
            fh.write(json.dumps({"source": source, "id": span_id, "parent": parent, "op": op,
                                 "name": name, "start": start, "end": end}) + "\n")


# (metric, unit, scale, span or count name in the workload, name in the probe block)
SPAN_METRICS = (
    ("beam.effective_gain_us", "us", 1e6, "beam.effective_gain", "beam.effective_gain"),
    ("beam.effective_gain_value_us", "us", 1e6, "beam.effective_gain_value", "beam.effective_gain_value"),
    ("optimize.scan_ms", "ms", 1e3, "optimize.scan", "optimize.scan_n1e4"),
    ("optimize.scan_n256_ms", "ms", 1e3, None, "optimize.scan_n256"),
    ("optimize.scan_n1e4_ms", "ms", 1e3, None, "optimize.scan_n1e4"),
    ("optimize.scan_n1e6_ms", "ms", 1e3, None, "optimize.scan_n1e6"),
    ("cli.sweep_ms", "ms", 1e3, "cli.sweep", "cli.main_sweep"),
    ("estimate.relative_gains_us", "us", 1e6, "estimate.relative_gains_from_power", "estimate.relative_gains_from_power"),
    ("estimate.estimate_ls_us", "us", 1e6, "estimate.estimate_ls", "estimate.estimate_ls"),
    ("oracle.grid_us", "us", 1e6, "oracle.grid_for", "oracle.grid_for"),
    ("oracle.convolve_ms", "ms", 1e3, "oracle.convolve_effective_pattern", "oracle.convolve_effective_pattern"),
    ("oracle.monte_carlo_ms", "ms", 1e3, "oracle.monte_carlo_effective_gain", "oracle.monte_carlo_effective_gain"),
    ("oracle.array_factor_ms", "ms", 1e3, "oracle.upa_array_factor_beamwidth", "oracle.upa_array_factor_beamwidth"),
    ("oracle.array_factor_k32_ms", "ms", 1e3, None, "oracle.array_factor_k32"),
    ("scenario.read_scenario_values_us", "us", 1e6, "scenario.read_scenario_values", "scenario.read_scenario_values"),
    ("scenario.load_measurements_csv_us", "us", 1e6, "scenario.load_measurements_csv", "scenario.load_measurements_csv"),
    ("cli.main_optimize_ms", "ms", 1e3, None, "cli.main_optimize"),
    ("cli.main_sweep_ms", "ms", 1e3, None, "cli.main_sweep"),
    ("cli.main_estimate_ms", "ms", 1e3, None, "cli.main_estimate"),
    ("cli.main_validate_ms", "ms", 1e3, None, "cli.main_validate"),
)
COUNT_METRICS = (
    ("optimize.budget_elements", "count"),
    ("estimate.pairs_used", "count"),
    ("oracle.grid_samples", "count"),
    ("oracle.mc_draws", "count"),
    ("oracle.mc_computed_mb", "MiB"),
)
COLD_METRICS = ("cli.interpreter_ms", "cli.import_ms", "cli.numpy_import_ms")


def per_layer_metrics(loop: Tracer, probe: Tracer, cold: dict[str, float], overhead_pct: float) -> dict:
    """Every per-layer metric, from the loop where it has the span, else the probes."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name, unit, scale, loop_span, probe_span in SPAN_METRICS:
        values = loop.durations(loop_span) if loop_span else []
        put(name, statistics.mean(values or probe.durations(probe_span)) * scale, unit)
    for name, unit in COUNT_METRICS:
        put(name, statistics.mean(loop.counts.get(name) or probe.counts[name]), unit)
    for name in COLD_METRICS:
        put(name, cold[name], "ms")
    for layer in LAYERS:
        spans = loop.layer_self(layer)
        # ms of the layer's own time per workload operation; per probe call
        # for a layer the workload never calls
        value = sum(spans) / loop.ops if spans else statistics.mean(probe.layer_self(layer))
        put(f"{layer}.self_ms", value * 1e3, "ms/op")
    put("bench.self_ms", loop.bench_self() / loop.ops * 1e3, "ms/op")
    put("trace.overhead_pct", overhead_pct, "%")
    return out


def run_probes(tr: Tracer, ag, workdir: str, spawn) -> dict[str, float]:
    """Call every layer on fixed inputs; return the fresh-interpreter timings.

    `spawn(argv)` runs `python <argv>` and returns (exit code, stdout).
    """
    from arraygain import cli, scenario

    el8 = ag.element_pattern_from_gain(8.0)
    spread = ag.AngularSpread(zsd_rad=math.radians(1.0), asd_rad=math.radians(16.0))
    geom = ag.ArrayGeometry(rows=8, cols=16)
    for _ in range(200):
        tr.call("beam.effective_gain", ag.effective_gain, el8, geom, spread)
        tr.call("beam.effective_gain_value", ag.effective_gain_value, el8, 8, 16, spread)

    el5 = ag.element_pattern_from_gain(5.0)
    spread5 = ag.AngularSpread(zsd_rad=math.radians(5.0), asd_rad=math.radians(22.0))
    for n, name, repeats in ((256, "optimize.scan_n256", 20), (10_000, "optimize.scan_n1e4", 3),
                             (1_000_000, "optimize.scan_n1e6", 1)):
        for _ in range(repeats):
            tr.count("optimize.budget_elements", n)
            tr.call(name, ag.optimal_geometry_integer, n, el5, spread5)

    records = [(4, 4, 10.0, -70.0), (4, 8, 10.0, -67.0), (4, 16, 10.0, -64.5), (8, 4, 10.0, -66.5), (16, 4, 10.0, -63.8)]
    for _ in range(50):
        gains = tr.call("estimate.relative_gains_from_power", ag.relative_gains_from_power, records, 0)
        est = tr.call("estimate.estimate_ls", ag.estimate_ls, gains)
        tr.count("estimate.pairs_used", est.n_pairs_asd + est.n_pairs_zsd)

    nominal = ag.nominal_beamwidths(el8, geom)
    config = ag.McConfig()
    for _ in range(3):
        grid = tr.call("oracle.grid_for", ag.grid_for, nominal.bw_elev_rad, nominal.bw_azim_rad, spread)
        tr.count("oracle.grid_samples", grid.n_elev + grid.n_azim)
        pattern = tr.call("oracle.gaussian_pattern_sampled", ag.gaussian_pattern_sampled,
                          nominal.bw_elev_rad, nominal.bw_azim_rad, grid)
        tr.call("oracle.convolve_effective_pattern", ag.convolve_effective_pattern, pattern, spread)
        draws = 3 * config.n_paths * config.n_realizations
        tr.count("oracle.mc_draws", draws)
        tr.count("oracle.mc_computed_mb", draws * 8 / 2**20)
        tr.call("oracle.monte_carlo_effective_gain", ag.monte_carlo_effective_gain, el8, geom, spread, config)
    tr.call("oracle.upa_array_factor_beamwidth", ag.upa_array_factor_beamwidth, 8)
    tr.call("oracle.array_factor_k32", ag.upa_array_factor_beamwidth, 32)

    scenario_path = os.path.join(workdir, "probe.scenario")
    csv_path = os.path.join(workdir, "probe.csv")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        fh.write("element_gain_dbi = 5.0\nn_elements = 256\nasd_deg = 14.0\nzsd_deg = 0.6\n"
                 "allowed_geometries = 32x8, 16x16\n")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("rows,cols,tx_power_dbm,rx_power_dbm\n")
        fh.writelines(f"{r},{c},{tx},{rx}\n" for r, c, tx, rx in records)
    for _ in range(50):
        tr.call("scenario.read_scenario_values", scenario.read_scenario_values, scenario_path)
        tr.call("scenario.load_measurements_csv", ag.load_measurements_csv, csv_path)

    element = ["--element-gain-dbi", "5", "--asd-deg", "22", "--zsd-deg", "5"]
    warm = (
        ("cli.main_optimize", ["optimize", "--elements", "256", *element]),
        ("cli.main_sweep", ["sweep", "--elements", "256", *element, "--out", os.path.join(workdir, "probe-sweep.csv")]),
        ("cli.main_estimate", ["estimate", csv_path, "--element-gain-dbi", "5", "--predict", "16", "16"]),
        ("cli.main_validate", ["validate", "--element-gain-dbi", "8", "--rows", "8", "--cols", "16",
                               "--asd-deg", "16", "--zsd-deg", "1"]),
    )
    for name, argv in warm:
        for _ in range(3):
            with contextlib.redirect_stdout(io.StringIO()):
                status = tr.call(name, cli.main, argv)
            if status != 0:
                raise RuntimeError(f"probe {name} exited {status}")

    return cold_start_times(spawn)


_TIMED_IMPORT = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


def cold_start_times(spawn, repeats: int = 5) -> dict[str, float]:
    """Median bare-interpreter wall time and fresh import times, in ms."""
    bare = []
    for _ in range(repeats):
        start = time.perf_counter()
        spawn(["-c", "pass"])
        bare.append(time.perf_counter() - start)
    out = {"cli.interpreter_ms": statistics.median(bare) * 1e3}
    for name, module in (("cli.import_ms", "arraygain.cli"), ("cli.numpy_import_ms", "numpy")):
        samples = []
        for _ in range(repeats):
            status, text = spawn(["-c", _TIMED_IMPORT.format(module)])
            if status != 0:
                raise RuntimeError(f"fresh import of {module} exited {status}")
            samples.append(float(text))
        out[name] = statistics.median(samples) * 1e3
    return out
