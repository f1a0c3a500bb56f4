"""The three workloads: seeded inputs, the operations, and their checks.

A workload is a pool of rounds; a round is a list of operations.  The
timed loop plays whole rounds, cycling through the pool, one operation
at a time (a closed loop with one caller).  Each operation is an `Op`:
`run(tracer)` calls the program and returns its output, `check(output)`
compares that output with `reference` and raises CheckError on a
mismatch.  Checks run after the operation's clock has stopped.

Inputs that set an operation's cost (budgets, geometries, beamwidths,
array-factor sizes) are stratified: every round takes one value from
each stratum, and the pool holds the same values whatever the seed, so
every pass over the pool, and nearly every part of one, does the same
amount of work.  The seed decides which values meet which elements and
spreads, and the order of rounds and of operations.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import reference as ref
import tracing
from reference import CheckError, check, check_rel

import arraygain as ag
from arraygain import cli


class OpFailed(Exception):
    """The program reported an error instead of a result."""


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    rounds: list[list[Op]]
    # run-level checks, called once after the timed loop
    finish: Callable[[], None] = field(default=lambda: None)


def stratified(rng: random.Random, rounds: int, per_round: int) -> list[list[float]]:
    """`rounds` lists of `per_round` values in (0, 1).

    Each list holds one value from each of `per_round` equal strata;
    across lists, each stratum's values are the midpoints of its
    `rounds` equal sub-strata, one each, in seeded order.  The values
    themselves do not depend on the seed, only which list gets which.
    """
    columns = []
    for stratum in range(per_round):
        order = list(range(rounds))
        rng.shuffle(order)
        columns.append([(stratum + (order[j] + 0.5) / rounds) / per_round for j in range(rounds)])
    out = []
    for j in range(rounds):
        row = [column[j] for column in columns]
        rng.shuffle(row)
        out.append(row)
    return out


def log_between(u: float, low: float, high: float) -> float:
    return math.exp(math.log(low) + u * (math.log(high) - math.log(low)))


def spread_deg(rng: random.Random, high: float) -> float:
    # one draw in eight is exactly zero: the degenerate axis has its own code path
    return 0.0 if rng.random() < 0.125 else round(rng.uniform(0.2, high), 4)


class Case:
    """One element and one channel, as a user types them (dBi, degrees)
    and in radians for the reference formulas."""

    def __init__(self, rng: random.Random, gain_share: float = 0.5, max_asd: float = 40.0):
        if rng.random() < gain_share:
            self.gain_dbi: float | None = round(rng.uniform(0.0, 15.0), 4)
            self.bw_e = self.bw_a = ref.element_bw_from_gain(self.gain_dbi)
            self.flags = ["--element-gain-dbi", repr(self.gain_dbi)]
        else:
            self.gain_dbi = None
            bw_e_deg, bw_a_deg = round(rng.uniform(5.0, 60.0), 4), round(rng.uniform(5.0, 60.0), 4)
            self.bw_e, self.bw_a = math.radians(bw_e_deg), math.radians(bw_a_deg)
            self.flags = ["--bw-elev-deg", repr(bw_e_deg), "--bw-azim-deg", repr(bw_a_deg)]
        self.zsd_deg = spread_deg(rng, 15.0)
        self.asd_deg = spread_deg(rng, max_asd)
        self.zsd, self.asd = math.radians(self.zsd_deg), math.radians(self.asd_deg)
        self.flags += ["--zsd-deg", repr(self.zsd_deg), "--asd-deg", repr(self.asd_deg)]
        self.ref = (self.bw_e, self.bw_a, self.zsd, self.asd)
        self.element = (
            ag.element_pattern_from_gain(self.gain_dbi)
            if self.gain_dbi is not None
            else ag.ElementPattern(bw_elev_rad=self.bw_e, bw_azim_rad=self.bw_a)
        )
        self.spread = ag.AngularSpread(zsd_rad=self.zsd, asd_rad=self.asd)

    def gain(self, rows, cols) -> float:
        return ref.gain(*self.ref, rows, cols)


def fitting_geometries(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    """`count` distinct geometries within budget n."""
    out: list[tuple[int, int]] = []
    while len(out) < count:
        cols = max(1, round(log_between(rng.random(), 1, n)))
        rows = max(1, round(log_between(rng.random(), 1, n // cols)))
        if (rows, cols) not in out:
            out.append((rows, cols))
    return out


def measurement_shapes(rng: random.Random) -> list[tuple[int, int]]:
    """Five sub-arrays: a base, two sharing its rows, two sharing its cols."""
    r0, c0 = rng.choice((2, 4, 8)), rng.choice((2, 4, 8))
    cols = rng.sample([k for k in (2, 4, 8, 16) if k != c0], 2)
    rows = rng.sample([k for k in (2, 4, 8, 16) if k != r0], 2)
    return [(r0, c0), (r0, cols[0]), (r0, cols[1]), (rows[0], c0), (rows[1], c0)]


def forward_powers(rng: random.Random, case: Case, shapes) -> list[tuple[int, int, float, float]]:
    """Noiseless power logs: rx = tx + gain - a common path loss."""
    loss = rng.uniform(60.0, 100.0)
    records = []
    for rows, cols in shapes:
        tx = round(rng.uniform(0.0, 20.0), 3)
        records.append((rows, cols, tx, tx + ref.db(case.gain(rows, cols)) - loss))
    return records


def check_estimate(case: Case, asd_sq: float, zsd_sq: float) -> None:
    for name, got, want in (
        ("asd", asd_sq, (case.asd / case.bw_a) ** 2),
        ("zsd", zsd_sq, (case.zsd / case.bw_e) ** 2),
    ):
        if want == 0.0:
            check(abs(got) <= ref.SPREAD_SQ_TOL, f"estimated {name} squared {got!r}, want 0")
        else:
            check_rel(f"estimated {name} squared", got, want, ref.ESTIMATE_REL_TOL)


# ---------------------------------------------------------------- plan

PLAN_ROUNDS = 16
PLAN_SCANS = 10
PLAN_SWEEPS = 2


def plan(seed: int, workdir: str) -> Workload:
    """Geometry-planning queries, in-process: mostly integer scans."""
    rng = random.Random(f"plan-{seed}")
    scan_u = stratified(rng, PLAN_ROUNDS, PLAN_SCANS)
    sweep_u = stratified(rng, PLAN_ROUNDS, PLAN_SWEEPS)
    rounds = []
    for j in range(PLAN_ROUNDS):
        ops = [_scan_op(Case(rng), round(log_between(u, 100, 100_000))) for u in scan_u[j]]
        ops += [_allowed_op(rng, Case(rng)) for _ in range(2)]
        ops += [_eirp_op(rng) for _ in range(2)]
        ops.append(_gain_op(rng, Case(rng)))
        ops.append(_gain_value_op(rng, Case(rng)))
        ops += [
            _sweep_op(Case(rng), round(log_between(u, 100, 100_000)), os.path.join(workdir, f"sweep-{j}-{i}.csv"))
            for i, u in enumerate(sweep_u[j])
        ]
        ops += [_estimate_op(rng, Case(rng, max_asd=30.0)) for _ in range(2)]
        rng.shuffle(ops)
        rounds.append(ops)
    return Workload(rounds)


EXHAUSTIVE_MAX_N = 2000


def _scan_op(case: Case, n: int) -> Op:
    # reference winners are computed on first use, not at set-up
    exhaustive = functools.cache(lambda: ref.best_geometry(*case.ref, ref.all_geometries(n)))

    def run(tr):
        tr.count("optimize.budget_elements", n)
        result = tr.call("optimize.scan", ag.optimal_geometry_integer, n, case.element, case.spread)
        best = result.integer_best
        return best.rows, best.cols, result.integer_gain.effective_gain_linear, result.bound_gain_linear

    def check_(out):
        rows, cols, gain, bound = out
        ref.check_plan_winner(n, *case.ref, rows, cols, gain, exhaustive() if n <= EXHAUSTIVE_MAX_N else None)
        if case.zsd == 0.0:
            # gain then grows with rows at any fixed aperture: one tall column
            ref.check_winner("zero elevation spread", (rows, cols), (n, 1))
        check_rel("budget bound", bound, ref.am_gm_bound(*case.ref, n))

    return Op("scan", run, check_)


def _allowed_op(rng: random.Random, case: Case) -> Op:
    n = round(log_between(rng.random(), 100, 100_000))
    allowed = fitting_geometries(rng, n, 6)
    geoms = [ag.ArrayGeometry(rows=r, cols=c) for r, c in allowed]
    want = ref.best_geometry(*case.ref, allowed)

    def run(tr):
        result = tr.call("optimize.scan_allowed", ag.optimal_geometry_integer, n, case.element, case.spread, geoms)
        best = result.integer_best
        return best.rows, best.cols, result.integer_gain.effective_gain_linear

    def check_(out):
        rows, cols, gain = out
        ref.check_plan_winner(n, *case.ref, rows, cols, gain)
        ref.check_winner("allowed geometries", (rows, cols), want)

    return Op("scan_allowed", run, check_)


def _eirp_op(rng: random.Random) -> Op:
    power, gain_dbi = rng.uniform(0.0, 20.0), rng.uniform(0.0, 15.0)
    eirp = power + gain_dbi + rng.uniform(0.0, 60.0)

    def run(tr):
        return tr.call("optimize.max_elements_for_eirp", ag.max_elements_for_eirp, eirp, power, gain_dbi)

    def check_(n):
        check(n == ref.eirp_budget(eirp, power, gain_dbi), f"eirp budget {n}")
        headroom = eirp - power - gain_dbi
        check(20.0 * math.log10(n) <= headroom + 1e-9 < 20.0 * math.log10(n + 1) + 2e-9, f"eirp budget {n} off the cap")

    return Op("eirp", run, check_)


def _gain_op(rng: random.Random, case: Case) -> Op:
    rows, cols = (round(log_between(rng.random(), 1, 256)) for _ in range(2))
    geom = ag.ArrayGeometry(rows=rows, cols=cols)

    def run(tr):
        report = tr.call("beam.effective_gain", ag.effective_gain, case.element, geom, case.spread)
        return (
            report.effective_gain_linear,
            report.nominal_gain_linear,
            report.upper_bound_linear,
            report.effective_gain_dbi,
        )

    def check_(out):
        effective, nominal, bound, effective_dbi = out
        want = case.gain(rows, cols)
        check_rel("effective gain", effective, want)
        check_rel("nominal gain", nominal, ref.nominal_gain(case.bw_e, case.bw_a, rows, cols))
        check_rel("gain bound", bound, ref.am_gm_bound(*case.ref, rows * cols))
        check(abs(effective_dbi - ref.db(want)) <= 1e-9, f"effective gain {effective_dbi} dBi")

    return Op("gain", run, check_)


def _gain_value_op(rng: random.Random, case: Case) -> Op:
    rows, cols = (log_between(rng.random(), 1, 300) for _ in range(2))

    def run(tr):
        return tr.call("beam.effective_gain_value", ag.effective_gain_value, case.element, rows, cols, case.spread)

    return Op("gain_value", run, lambda g: check_rel("real-valued gain", g, case.gain(rows, cols)))


def _sweep_op(case: Case, n: int, path: str) -> Op:
    argv = ["sweep", "--elements", str(n), *case.flags, "--out", path]

    def run(tr):
        status = tr.call("cli.sweep", cli.main, argv)
        if status != 0:
            raise OpFailed(f"sweep exited {status}")

    verified: set[bytes] = set()

    def check_(_):
        with open(path, "rb") as fh:
            text = fh.read()
        # a repeat that matches an output already checked line by line is checked
        digest = hashlib.sha256(text).digest()
        if digest not in verified:
            ref.check_sweep(io.StringIO(text.decode()), *case.ref, ref.SweepAll(n))
            verified.add(digest)

    return Op("sweep", run, check_)


def _estimate_op(rng: random.Random, case: Case) -> Op:
    shapes = measurement_shapes(rng)
    records = forward_powers(rng, case, shapes)
    baseline = rng.randrange(len(records))
    target = (rng.choice((1, 2, 4, 8, 16, 32)), rng.choice((1, 2, 4, 8, 16, 32)))
    base_shape = shapes[baseline]

    def run(tr):
        gains = tr.call("estimate.relative_gains_from_power", ag.relative_gains_from_power, records, baseline)
        est = tr.call("estimate.estimate_ls", ag.estimate_ls, gains)
        predicted = tr.call("estimate.predict_subarray_gain", ag.predict_subarray_gain, gains[baseline], est, *target)
        tr.count("estimate.pairs_used", est.n_pairs_asd + est.n_pairs_zsd)
        return est.asd_over_bhe_sq, est.zsd_over_bve_sq, est.n_pairs_asd, est.n_pairs_zsd, predicted

    def check_(out):
        asd_sq, zsd_sq, pairs_asd, pairs_zsd, predicted = out
        check((pairs_asd, pairs_zsd) == (3, 3), f"pairs used {pairs_asd}, {pairs_zsd}, want 3, 3")
        check_estimate(case, asd_sq, zsd_sq)
        check_rel("predicted gain", predicted, case.gain(*target) / case.gain(*base_shape), 1e-9)

    return Op("estimate", run, check_)


# ---------------------------------------------------------------- crosscheck

CROSS_ROUNDS = 12
CROSS_POINTS = 39
MC_CONFIG = {"n_paths": 20, "n_realizations": 10_000}
# The oracle points come from this fixed design, not from --seed.  The
# coverage gate (99 % of points within 3 SE) is statistical: with the
# normal tail's 0.27 % miss rate, ~500 fresh random points would fail
# it in about 0.3 % of runs of a correct oracle.  A fixed design makes
# the verdict a property of the program, as the acceptance suite's
# fixed seeds do; --seed orders the rounds and their operations and
# places the array-factor sizes.
CROSS_DESIGN_SEED = 0


def crosscheck(seed: int, workdir: str) -> Workload:
    """Validate-style oracle points plus a few array-factor calls."""
    design = random.Random(f"crosscheck-design-{CROSS_DESIGN_SEED}")
    rng = random.Random(f"crosscheck-{seed}")
    dims = [stratified(design, CROSS_ROUNDS, CROSS_POINTS) for _ in range(4)]
    k_u = stratified(rng, CROSS_ROUNDS, 1)
    # z-score of each spread point, and the keys of every point played
    z_scores: dict[int, float] = {}
    played: set[int] = set()
    points: list[Op] = []
    rounds = []
    for j in range(CROSS_ROUNDS):
        ops = []
        for i in range(CROSS_POINTS):
            u_bwe, u_bwa, u_rows, u_cols = (d[j][i] for d in dims)
            bw_e_deg = 1.0 + 29.0 * u_bwe
            bw_a_deg = 1.0 + 29.0 * u_bwa
            # tall arrays of up to 300 rows, and a nominal elevation beam of
            # at least 0.02 deg, which keeps each grid axis near 2e5 samples
            rows = round(log_between(u_rows, 1, min(300.0, 50.0 * bw_e_deg)))
            cols = round(log_between(u_cols, 1, 8))
            # the first point of every round has no spread at all
            zsd_deg = 0.0 if i == 0 else spread_deg(design, 30.0)
            asd_deg = 0.0 if i == 0 else spread_deg(design, 30.0)
            mc_seed = design.getrandbits(63)
            points.append(_point_op(bw_e_deg, bw_a_deg, zsd_deg, asd_deg, rows, cols, mc_seed, len(points), z_scores, played))
            ops.append(points[-1])
        ops.append(_array_factor_op(2 + min(30, int(31 * k_u[j][0]))))
        rng.shuffle(ops)
        rounds.append(ops)
    rng.shuffle(rounds)

    def finish():
        # the gate covers every spread point of the design, however few
        # of them the timed loop reached; the rest run here, untimed
        for key, point in enumerate(points):
            if key not in played:
                try:
                    output = point.run(tracing.NULL)
                except Exception as exc:  # a program failure outside the loop fails the check
                    raise CheckError(f"oracle point failed: {exc!r}") from exc
                point.check(output)
        ref.check_coverage(z_scores.values())

    return Workload(rounds, finish)


def _point_op(bw_e_deg, bw_a_deg, zsd_deg, asd_deg, rows, cols, mc_seed, key, z_scores, played) -> Op:
    bw_e, bw_a = math.radians(bw_e_deg), math.radians(bw_a_deg)
    zsd, asd = math.radians(zsd_deg), math.radians(asd_deg)
    element = ag.ElementPattern(bw_elev_rad=bw_e, bw_azim_rad=bw_a)
    geom = ag.ArrayGeometry(rows=rows, cols=cols)
    spread = ag.AngularSpread(zsd_rad=zsd, asd_rad=asd)
    config = ag.McConfig(seed=mc_seed, **MC_CONFIG)
    nominal_e, nominal_a = bw_e / rows, bw_a / cols
    draws = 3 * config.n_paths * config.n_realizations

    def run(tr):
        played.add(key)
        grid = tr.call("oracle.grid_for", ag.grid_for, nominal_e, nominal_a, spread)
        tr.count("oracle.grid_samples", grid.n_elev + grid.n_azim)
        pattern = tr.call("oracle.gaussian_pattern_sampled", ag.gaussian_pattern_sampled, nominal_e, nominal_a, grid)
        peak = tr.call("oracle.convolve_effective_pattern", ag.convolve_effective_pattern, pattern, spread).peak_power
        tr.count("oracle.mc_draws", draws)
        tr.count("oracle.mc_computed_mb", draws * 8 / 2**20)
        estimate, se = tr.call("oracle.monte_carlo_effective_gain", ag.monte_carlo_effective_gain, element, geom, spread, config)
        return peak, estimate, se

    def check_(out):
        peak, estimate, se = out
        want = ref.gain(bw_e, bw_a, zsd, asd, rows, cols)
        if zsd == 0.0 and asd == 0.0:
            nominal = ref.nominal_gain(bw_e, bw_a, rows, cols)
            check(peak == nominal and estimate == nominal and se == 0.0, "zero spread: gain is not the nominal gain")
            return
        ref.check_convolution(peak, want)
        z_scores[key] = ref.check_monte_carlo(estimate, se, want)

    return Op("point", run, check_)


def _array_factor_op(k: int) -> Op:
    def run(tr):
        return tr.call("oracle.upa_array_factor_beamwidth", ag.upa_array_factor_beamwidth, k)

    return Op("array_factor", run, lambda ratio: ref.check_array_factor(k, ratio))


# ---------------------------------------------------------------- cold_cli

COLD_ROUNDS = 16
# validate's Monte-Carlo verdict is a 3-SE gate, so its cases are fixed
# rather than drawn: (element flags, rows, cols, zsd, asd)
VALIDATE_CASES = (
    (["--element-gain-dbi", "8"], 8, 16, 1.0, 16.0),
    (["--element-gain-dbi", "5"], 32, 8, 5.0, 22.0),
    (["--bw-elev-deg", "20", "--bw-azim-deg", "10"], 4, 4, 3.0, 10.0),
    (["--element-gain-dbi", "12"], 64, 2, 2.0, 30.0),
)
VALIDATE_REALIZATIONS = 2000


def cold_cli(seed: int, workdir: str, spawn) -> Workload:
    """One `python -m arraygain` child per operation, all four subcommands.

    `spawn(argv)` runs one child and returns (exit code, stdout text).
    """
    rng = random.Random(f"cold_cli-{seed}")
    n_u = stratified(rng, COLD_ROUNDS, 2)
    rounds = []
    for j in range(COLD_ROUNDS):
        base = os.path.join(workdir, f"r{j}")
        ops = [
            _cold_optimize_op(spawn, Case(rng), round(log_between(n_u[j][0], 100, 1000))),
            _cold_eirp_op(spawn, rng, Case(rng, gain_share=0.0), round(log_between(n_u[j][1], 100, 1000))),
            _cold_scenario_op(spawn, rng, Case(rng, gain_share=1.0), base + ".scenario"),
            _cold_sweep_op(spawn, rng, Case(rng), explicit=True),
            _cold_sweep_op(spawn, rng, Case(rng), explicit=False),
            _cold_estimate_op(spawn, rng, Case(rng, gain_share=1.0, max_asd=30.0), base + ".csv"),
            _cold_validate_op(spawn, VALIDATE_CASES[j % len(VALIDATE_CASES)]),
        ]
        rng.shuffle(ops)
        rounds.append(ops)
    return Workload(rounds)


def _cold_run(spawn, argv):
    def run(tr):
        status, text = tr.call("cli.cold_" + argv[0], spawn, argv)
        if status != 0:
            raise OpFailed(f"{argv[0]} exited {status}")
        return text

    return run


def _cold_optimize_op(spawn, case: Case, n: int) -> Op:
    want = functools.cache(lambda: ref.best_geometry(*case.ref, ref.all_geometries(n)))
    argv = ["optimize", "--elements", str(n), *case.flags]
    return Op("optimize", _cold_run(spawn, argv), lambda text: ref.check_optimize_text(text, n, *case.ref, want()))


def _cold_eirp_op(spawn, rng: random.Random, case: Case, n: int) -> Op:
    power = round(rng.uniform(0.0, 20.0), 3)
    gain_dbi = ref.db(2.0 / (case.bw_e * case.bw_a))
    # a cap halfway (in amplitude) between n and n + 1 elements
    eirp = power + gain_dbi + 20.0 * math.log10(n + 0.5)
    check(ref.eirp_budget(eirp, power, gain_dbi) == n, "eirp cap construction")
    want = functools.cache(lambda: ref.best_geometry(*case.ref, ref.all_geometries(n)))
    argv = ["optimize", "--eirp-dbm", repr(eirp), "--element-power-dbm", repr(power), *case.flags]
    return Op(
        "optimize_eirp",
        _cold_run(spawn, argv),
        lambda text: ref.check_optimize_text(text, n, *case.ref, want(), eirp=(eirp, power)),
    )


def _cold_scenario_op(spawn, rng: random.Random, case: Case, path: str) -> Op:
    n = round(log_between(rng.random(), 100, 1000))
    allowed = fitting_geometries(rng, n, 5)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# seeded planning case\nelement_gain_dbi = {case.gain_dbi!r}\nn_elements = {n}\n"
            f"asd_deg = {case.asd_deg!r}\nzsd_deg = {case.zsd_deg!r}\n"
            f"allowed_geometries = {', '.join(f'{r}x{c}' for r, c in allowed)}\n"
        )
    want = ref.best_geometry(*case.ref, allowed)
    return Op(
        "optimize_scenario",
        _cold_run(spawn, ["optimize", "--scenario", path]),
        lambda text: ref.check_optimize_text(text, n, *case.ref, want),
    )


def _cold_sweep_op(spawn, rng: random.Random, case: Case, explicit: bool) -> Op:
    if explicit:
        n = round(log_between(rng.random(), 100, 1000))
        geometries = fitting_geometries(rng, n, 8)
        argv = ["sweep", "--elements", str(n), *case.flags, "--geometries", ",".join(f"{r}x{c}" for r, c in geometries)]
    else:
        geometries = ref.SweepAll(256)
        argv = ["sweep", "--elements", "256", *case.flags, "--geometries", "all"]
    return Op(
        "sweep" if explicit else "sweep_all",
        _cold_run(spawn, argv),
        lambda text: ref.check_sweep(text.splitlines(), *case.ref, geometries),
    )


def _cold_estimate_op(spawn, rng: random.Random, case: Case, path: str) -> Op:
    shapes = measurement_shapes(rng)
    records = forward_powers(rng, case, shapes)
    baseline = rng.randrange(len(records))
    target = (rng.choice((1, 2, 4, 8, 16, 32)), rng.choice((1, 2, 4, 8, 16, 32)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# forward-modelled, noiseless\nrows,cols,tx_power_dbm,rx_power_dbm\n")
        fh.writelines(f"{r},{c},{tx!r},{rx!r}\n" for r, c, tx, rx in records)
    argv = ["estimate", path, "--baseline-index", str(baseline), "--element-gain-dbi", repr(case.gain_dbi),
            "--predict", str(target[0]), str(target[1])]
    want_db = ref.db(case.gain(*target) / case.gain(*shapes[baseline]))
    asd_sq, zsd_sq = (case.asd / case.bw_a) ** 2, (case.zsd / case.bw_e) ** 2
    return Op(
        "estimate",
        _cold_run(spawn, argv),
        lambda text: ref.check_estimate_text(text, len(records), asd_sq, zsd_sq, case.bw_e, case.bw_a, (target, want_db)),
    )


def _cold_validate_op(spawn, case) -> Op:
    flags, rows, cols, zsd_deg, asd_deg = case
    argv = ["validate", *flags, "--rows", str(rows), "--cols", str(cols), "--zsd-deg", str(zsd_deg),
            "--asd-deg", str(asd_deg), "--realizations", str(VALIDATE_REALIZATIONS)]
    if flags[0] == "--element-gain-dbi":
        bw_e = bw_a = ref.element_bw_from_gain(float(flags[1]))
    else:
        bw_e, bw_a = math.radians(float(flags[1])), math.radians(float(flags[3]))
    zsd, asd = math.radians(zsd_deg), math.radians(asd_deg)
    return Op(
        "validate",
        _cold_run(spawn, argv),
        lambda text: ref.check_validate_text(text, bw_e, bw_a, zsd, asd, rows, cols),
    )
