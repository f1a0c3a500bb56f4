"""Command-line front end.

Four subcommands: ``optimize`` solves for the best geometry under the
scenario's constraints, ``sweep`` emits per-geometry gains as CSV plot
data, ``estimate`` inverts measurement CSVs into angular spreads, and
``validate`` runs the numerical oracles against the closed form.

Inputs use degrees and dB; conversion happens here and nowhere deeper.
Every failure prints a single ``error[<code>]: message`` line to stderr;
exit status is 0 on success, 1 on user error or a failed validation,
2 on an internal fault.  Output is byte-stable for fixed inputs: fixed
field order, 6-decimal floats, LF line endings.

``sweep`` writes runs of equal rows in blocks of a few thousand rows, so
its memory stays flat in N; each gain takes the float operations of
``effective_gain_value`` and ``linear_to_db`` in order, so the bytes are
a row-by-row writer's.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from itertools import chain, repeat
from operator import eq, mul, truediv

from .beam import ArrayGeometry, effective_gain, nominal_beamwidths
from .errors import ArrayGainError, OracleUnavailableError, ScenarioError
from .estimate import estimate_ls, predict_subarray_gain, relative_gains_from_power
from .optimize import _row_runs, optimal_geometry_integer
from .scenario import (
    Scenario,
    load_measurements_csv,
    parse_geometry_list,
    read_scenario_values,
)
from .units import linear_to_db

SWEEP_HEADER = "rows,cols,effective_gain_dbi,is_optimum"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on bad flags; route through the
    # single error path instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _add_element_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--element-gain-dbi", type=float, metavar="DBI",
        help="element gain; implies symmetric element beamwidths",
    )
    parser.add_argument(
        "--bw-elev-deg", type=float, metavar="DEG",
        help="element elevation RMS beamwidth (with --bw-azim-deg, instead of a gain)",
    )
    parser.add_argument(
        "--bw-azim-deg", type=float, metavar="DEG",
        help="element azimuth RMS beamwidth",
    )


def _add_spread_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--asd-deg", type=float, metavar="DEG", help="azimuth RMS spread")
    parser.add_argument("--zsd-deg", type=float, metavar="DEG", help="elevation RMS spread")


def _add_scenario_flags(parser: argparse.ArgumentParser, budget: bool, geometry: bool) -> None:
    parser.add_argument("--scenario", metavar="PATH", help="scenario file; flags override it")
    _add_element_flags(parser)
    _add_spread_flags(parser)
    if budget:
        parser.add_argument(
            "--elements", type=int, dest="n_elements", metavar="N", help="element budget"
        )
        parser.add_argument("--eirp-dbm", type=float, metavar="DBM", help="EIRP cap")
        parser.add_argument(
            "--element-power-dbm", type=float, dest="per_element_power_dbm",
            metavar="DBM", help="per-element transmit power, for the EIRP cap",
        )
        parser.add_argument(
            "--allowed-geometries", metavar="LIST",
            help="restrict the search, e.g. 32x8,16x16",
        )
    if geometry:
        parser.add_argument("--rows", type=int, metavar="R", help="array rows")
        parser.add_argument("--cols", type=int, metavar="C", help="array cols")


_SCENARIO_FIELD_ARGS = (
    "element_gain_dbi",
    "bw_elev_deg",
    "bw_azim_deg",
    "n_elements",
    "asd_deg",
    "zsd_deg",
    "eirp_dbm",
    "per_element_power_dbm",
    "rows",
    "cols",
)


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    values = read_scenario_values(args.scenario) if args.scenario else {}
    overrides: dict = {}
    for name in _SCENARIO_FIELD_ARGS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "allowed_geometries", None) is not None:
        overrides["allowed_geometries"] = parse_geometry_list(args.allowed_geometries)
    # a flag-supplied element description replaces the file's, whichever
    # form each uses; a mixed result is rejected by Scenario itself
    if "element_gain_dbi" in overrides:
        values.pop("bw_elev_deg", None)
        values.pop("bw_azim_deg", None)
    elif "bw_elev_deg" in overrides and "bw_azim_deg" in overrides:
        values.pop("element_gain_dbi", None)
    values.update(overrides)
    return Scenario(**values)


# columns formatted at once: the rows = 1 run alone spans half the budget,
# and blocks of this many keep memory flat in N
_SWEEP_BLOCK = 4096


def _write_sweep(path: str | None, element, spread, runs, winner: ArrayGeometry) -> None:
    # runs: (rows, range of cols) pairs, consumed once; path None is stdout.
    # Each gain takes the float operations of effective_gain_value and
    # linear_to_db in their order: the elevation width once per run, the
    # rest column by column, a block at a time
    with nullcontext(sys.stdout) if path is None else open(
        path, "w", encoding="utf-8", newline="\n"
    ) as out:
        out.write(SWEEP_HEADER + "\n")
        bw_azim, asd = element.bw_azim_rad, spread.asd_rad
        for rows, cols in runs:
            elev = math.hypot(element.bw_elev_rad / rows, spread.zsd_rad)
            flagged = rows == winner.rows
            template = f"{rows},%d,%.6f,%d\n" if flagged else f"{rows},%d,%.6f,0\n"

            def text(block: range, gains: list[float]) -> str:
                dbis = map(mul, repeat(10.0), map(math.log10, gains))
                if flagged:
                    fields = zip(block, dbis, map(eq, block, repeat(winner.cols)))
                else:
                    fields = zip(block, dbis)
                return (template * len(block)) % tuple(chain.from_iterable(fields))

            for start in range(cols.start, cols.stop, _SWEEP_BLOCK):
                block = range(start, min(start + _SWEEP_BLOCK, cols.stop))
                azims = map(math.hypot, map(truediv, repeat(bw_azim), block), repeat(asd))
                gains = list(map(truediv, repeat(2.0), map(mul, repeat(elev), azims)))
                try:
                    lines = text(block, gains)
                except ValueError:
                    # log10 refuses a zero gain (widths whose product
                    # overflows): write the rows before it, then fail as
                    # linear_to_db does
                    bad = gains.index(0.0)
                    out.write(text(block[:bad], gains[:bad]))
                    linear_to_db(gains[bad])
                out.write(lines)


def _cmd_optimize(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    element = scenario.element()
    spread = scenario.spread()
    budget = scenario.budget()
    result = optimal_geometry_integer(budget, element, spread, scenario.allowed_geometries)
    best = result.integer_best

    lines = [f"budget: {budget} elements"]
    if scenario.eirp_dbm is not None:
        lines.append(
            f"eirp cap: {scenario.eirp_dbm:.6f} dBm at "
            f"{scenario.per_element_power_dbm:.6f} dBm per element"
        )
    if result.continuous is None:
        lines.append("continuous optimum: none (degenerate spread)")
    else:
        lines.append(
            f"continuous optimum: {result.continuous.rows_real:.6f} x "
            f"{result.continuous.cols_real:.6f}"
        )
    lines.append(f"integer optimum: {best.rows} x {best.cols} ({best.n_elements} elements)")
    lines.append(f"effective gain: {result.integer_gain.effective_gain_dbi:.6f} dBi")
    lines.append(f"nominal gain: {result.integer_gain.nominal_gain_dbi:.6f} dBi")
    lines.append(f"upper bound: {linear_to_db(result.bound_gain_linear):.6f} dBi")
    print("\n".join(lines))
    if args.csv is not None:
        _write_sweep(args.csv, element, spread, [(best.rows, range(best.cols, best.cols + 1))], best)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    element = scenario.element()
    spread = scenario.spread()
    budget = scenario.budget()
    if args.geometries is None or args.geometries == "all":
        runs = _row_runs(budget)
        restriction = scenario.allowed_geometries
    else:
        restriction = parse_geometry_list(args.geometries)
        runs = ((geom.rows, range(geom.cols, geom.cols + 1)) for geom in restriction)
    winner = optimal_geometry_integer(budget, element, spread, restriction).integer_best
    _write_sweep(args.out, element, spread, runs, winner)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    records = load_measurements_csv(args.measurements_csv)
    gains = relative_gains_from_power(records, args.baseline_index)
    result = estimate_ls(gains)

    element = None
    if (
        args.element_gain_dbi is not None
        or args.bw_elev_deg is not None
        or args.bw_azim_deg is not None
    ):
        element = Scenario(
            element_gain_dbi=args.element_gain_dbi,
            bw_elev_deg=args.bw_elev_deg,
            bw_azim_deg=args.bw_azim_deg,
        ).element()

    lines = [
        f"measurements: {len(records)} (baseline index {args.baseline_index})",
        f"asd pairs: {result.n_pairs_asd} used, {result.n_skipped_asd} skipped",
        f"zsd pairs: {result.n_pairs_zsd} used, {result.n_skipped_zsd} skipped",
        f"normalized asd squared: {result.asd_over_bhe_sq:.6f}",
        f"normalized zsd squared: {result.zsd_over_bve_sq:.6f}",
    ]
    if element is not None:
        spread = result.absolute_spread(element)
        lines.append(f"absolute asd: {math.degrees(spread.asd_rad):.6f} deg")
        lines.append(f"absolute zsd: {math.degrees(spread.zsd_rad):.6f} deg")
    if args.predict is not None:
        rows, cols = args.predict
        predicted = predict_subarray_gain(gains[args.baseline_index], result, rows, cols)
        lines.append(
            f"predicted gain {rows}x{cols} vs baseline: {linear_to_db(predicted):.6f} dB"
        )
    print("\n".join(lines))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    # the only subcommand that needs numpy; the others never load it
    try:
        from .oracle import (
            McConfig,
            convolve_effective_pattern,
            gaussian_pattern_sampled,
            grid_for,
            monte_carlo_effective_gain,
        )
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise OracleUnavailableError(
            "validate needs numpy, which is not installed: pip install 'arraygain[oracle]'"
        ) from None

    scenario = _scenario_from_args(args)
    geom = scenario.geometry()
    if geom is None:
        raise ScenarioError("validate needs a geometry: set --rows and --cols")
    element = scenario.element()
    spread = scenario.spread()

    analytic = effective_gain(element, geom, spread)
    nominal = nominal_beamwidths(element, geom)

    grid = grid_for(nominal.bw_elev_rad, nominal.bw_azim_rad, spread)
    pattern = gaussian_pattern_sampled(nominal.bw_elev_rad, nominal.bw_azim_rad, grid)
    convolved = convolve_effective_pattern(pattern, spread)
    conv_dbi = linear_to_db(convolved.peak_power)
    conv_delta = conv_dbi - analytic.effective_gain_dbi

    config = McConfig(n_paths=args.paths, n_realizations=args.realizations, seed=args.seed)
    mc_gain, mc_se = monte_carlo_effective_gain(element, geom, spread, config)
    mc_err = abs(mc_gain - analytic.effective_gain_linear)
    if mc_se > 0.0:
        z_score = mc_err / mc_se
        se_db = linear_to_db(mc_gain + mc_se) - linear_to_db(mc_gain)
        mc_ok = mc_err <= 3.0 * mc_se
    else:
        z_score = 0.0 if mc_err == 0.0 else float("inf")
        se_db = 0.0
        mc_ok = mc_err == 0.0
    conv_ok = abs(conv_delta) <= 0.2

    lines = [
        f"geometry: {geom.rows} x {geom.cols}",
        f"analytic gain: {analytic.effective_gain_dbi:.6f} dBi",
        f"convolution gain: {conv_dbi:.6f} dBi (delta {conv_delta:.6f} dB, limit 0.2)",
        f"monte-carlo gain: {linear_to_db(mc_gain):.6f} dBi +/- {se_db:.6f} dB (z {z_score:.6f}, limit 3)",
        "PASS" if conv_ok and mc_ok else "FAIL",
    ]
    print("\n".join(lines))
    return 0 if conv_ok and mc_ok else 1


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="arraygain",
        description="Effective beamforming gain of planar arrays under angular spread: "
        "optimize geometry, sweep gains, estimate spreads, validate numerically.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("optimize", help="solve for the gain-maximizing geometry")
    _add_scenario_flags(p, budget=True, geometry=False)
    p.add_argument("--csv", metavar="PATH", help="also write the winner as a CSV row")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="per-geometry effective gains as CSV")
    _add_scenario_flags(p, budget=True, geometry=False)
    p.add_argument(
        "--geometries", metavar="LIST",
        help="'all' (default) or explicit list, e.g. 64x4,16x16,1x256",
    )
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("estimate", help="estimate spreads from a measurement CSV")
    p.add_argument("measurements_csv", metavar="CSV", help="rows,cols,tx_power_dbm,rx_power_dbm")
    p.add_argument("--baseline-index", type=int, default=0, metavar="I",
                   help="measurement that anchors the relative gain scale")
    _add_element_flags(p)
    p.add_argument("--predict", type=int, nargs=2, metavar=("ROWS", "COLS"),
                   help="also predict this sub-array's gain")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("validate", help="cross-check the closed form numerically")
    _add_scenario_flags(p, budget=False, geometry=True)
    p.add_argument("--realizations", type=int, default=10_000, metavar="N",
                   help="Monte-Carlo realizations")
    p.add_argument("--paths", type=int, default=20, metavar="N",
                   help="multipath components per realization")
    p.add_argument("--seed", type=int, default=0, metavar="S", help="Monte-Carlo seed")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ArrayGainError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error[input]: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))
