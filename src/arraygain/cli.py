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

``sweep`` writes cols 1..999, or a listed set, in batches of up to 1,000
rows, then runs of equal rows in blocks ending at multiples of 1,000
columns, gains from ``beam``; :func:`_write_sweep` says which blocks join.

Each subcommand imports the modules it runs when it runs, so a cold
start compiles and loads only those.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from contextlib import contextmanager, suppress
from functools import cache
from itertools import chain, repeat
from operator import floordiv

from .beam import effective_gain, effective_gain_value, nominal_beamwidths
from .beam import pair_gains_dbi, row_gains_dbi
from .errors import ArrayGainError, OracleUnavailableError, ScenarioError
from .scenario import Scenario, load_measurements_csv, merged, parse_geometry_list
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


def _add_scenario_flags(parser: argparse.ArgumentParser, budget: bool, geometry: bool) -> None:
    parser.add_argument("--scenario", metavar="PATH", help="scenario file; flags override it")
    _add_element_flags(parser)
    parser.add_argument("--asd-deg", type=float, metavar="DEG", help="azimuth RMS spread")
    parser.add_argument("--zsd-deg", type=float, metavar="DEG", help="elevation RMS spread")
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


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    # every flag by its dest; merged takes those named like scenario keys
    overrides = vars(args)
    if (text := overrides.get("allowed_geometries")) is not None:
        overrides = {**overrides, "allowed_geometries": parse_geometry_list(text)}
    return merged(getattr(args, "scenario", None) or None, overrides)


# a sweep batch holds at most this many rows, and blocks end at multiples of
# this many columns: from 1,000 on, a block's cols share all but three digits
_SWEEP_BLOCK = 1000


@cache
def _tails() -> tuple[str, ...]:
    # those three digits; built on first use, so a sweep that stays
    # below 1,000 columns never pays for them
    return tuple(f"{i:03d}" for i in range(_SWEEP_BLOCK))


# the slack around the two end values: a computed dBi value is within about
# 1e-12 dB of its exact value, a thousand times less
_MARGIN_DB = 1e-9


def _flat_text(dbi, block: range) -> str | None:
    """The ``%.6f`` text that every cols of block prints, or None.

    ``dbi`` maps cols to the run's gain in dBi and is called at the two ends
    only (:func:`_write_sweep` says why that suffices); None when those two
    values, widened by ``_MARGIN_DB``, print differently.
    """
    first, last = dbi(block[0]), dbi(block[-1])
    text = "%.6f" % (min(first, last) - _MARGIN_DB)
    return text if "%.6f" % (max(first, last) + _MARGIN_DB) == text else None


def _db(value: float) -> str:
    # a dB/dBi report field: six decimals, unsigned when it rounds to zero
    text = "%.6f" % value
    return "0.000000" if text == "-0.000000" else text


@contextmanager
def _output(path: str | None):
    # stdout for None; else the file at path, removed again when writing or
    # closing it fails (an interrupt too), so no partial output is left.
    # Only a regular file that path names itself is removed: never a device,
    # a FIFO or a symlink, so /dev/null and /dev/stdout stay
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        opened = os.fstat(out.fileno())
        try:
            yield out
            out.close()  # the last flush can fail too (a full disk)
        except BaseException:
            with suppress(OSError):
                out.close()
            # a failed cleanup must not hide the failure that caused it
            with suppress(OSError):
                if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(path)):
                    os.remove(path)
            raise


def _write_batch(out, element, spread, rows, cols, winner) -> None:
    # rows[i] x cols[i] for each i, at most _SWEEP_BLOCK, with one "%" template.
    # A line's text is a function of its geometry, so one replace marks the
    # winner's lines; a match ends at its flag, so two in a row do not overlap
    template = "%d,%d,%.6f,0\n"
    dbis = pair_gains_dbi(element, rows, cols, spread)
    text = (template * len(cols)) % tuple(chain.from_iterable(zip(rows, cols, dbis)))
    line = template % (winner.rows, winner.cols, *pair_gains_dbi(
        element, (winner.rows,), (winner.cols,), spread))
    out.write(("\n" + text).replace("\n" + line[:-1], "\n" + line[:-2] + "1")[1:])


def _write_sweep(path: str | None, element, spread, geometries, runs, winner) -> None:
    # geometries: (rows, cols) sequences, written in batches; runs: (rows,
    # range of cols from 1,000 on) pairs, consumed once; path None is stdout.
    #
    # A run's block that does not hold the winner is decided from its two end
    # gains alone (_flat_text).  Within a run of equal rows the exact gain
    # does not fall as cols grows, and beam.row_gains_dbi says why each
    # computed dBi is within about 1e-12 dB of it.  So every column's value
    # lies in [min - m, max + m] of the two end values, m = _MARGIN_DB, and
    # "%.6f" is correctly rounded, so it never falls as its input rises: when
    # min - m and max + m print alike, every column prints that text, and the
    # block is one join over the last three digits of its cols with no gain
    # computed inside it.  Any other block is written row by row; both give
    # the same bytes, so nothing checks the rows a join stands for
    with _output(path) as out:
        out.write(SWEEP_HEADER + "\n")
        rows, cols = geometries
        for i in range(0, len(cols), _SWEEP_BLOCK):
            batch = slice(i, i + _SWEEP_BLOCK)
            _write_batch(out, element, spread, rows[batch], cols[batch], winner)
        for rows, cols in runs:
            def dbi(col: int) -> float:
                return linear_to_db(effective_gain_value(element, rows, col, spread))

            start = cols.start
            while start < cols.stop:
                block = range(start, min(start - start % _SWEEP_BLOCK + _SWEEP_BLOCK, cols.stop))
                head = f"{rows},{start // _SWEEP_BLOCK}"
                tails = _tails()[start % _SWEEP_BLOCK:][:len(block)]
                if rows == winner.rows and winner.cols in block:
                    _write_batch(out, element, spread, [rows] * len(block), block, winner)
                elif (shared := _flat_text(dbi, block)) is not None:
                    out.write(head + f",{shared},0\n{head}".join(tails) + f",{shared},0\n")
                else:
                    dbis = row_gains_dbi(element, rows, block, spread)
                    template = f"{head}%s,%.6f,0\n" * len(block)
                    out.write(template % tuple(chain.from_iterable(zip(tails, dbis))))
                start = block.stop


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .optimize import optimal_geometry_integer

    scenario = _scenario_from_args(args)
    element = scenario.element()
    spread = scenario.spread()
    budget = scenario.budget()
    result = optimal_geometry_integer(budget, element, spread, scenario.allowed_geometries)
    best = result.integer_best

    lines = [f"budget: {budget} elements"]
    if scenario.eirp_dbm is not None:
        lines.append(
            f"eirp cap: {_db(scenario.eirp_dbm)} dBm at "
            f"{_db(scenario.per_element_power_dbm)} dBm per element"
        )
    if result.continuous is None:
        lines.append("continuous optimum: none (degenerate spread)")
    else:
        lines.append(
            f"continuous optimum: {result.continuous.rows_real:.6f} x "
            f"{result.continuous.cols_real:.6f}"
        )
    lines.append(f"integer optimum: {best.rows} x {best.cols} ({best.n_elements} elements)")
    lines.append(f"effective gain: {_db(result.integer_gain.effective_gain_dbi)} dBi")
    lines.append(f"nominal gain: {_db(result.integer_gain.nominal_gain_dbi)} dBi")
    lines.append(f"upper bound: {_db(linear_to_db(result.bound_gain_linear))} dBi")
    # the file first: a failure to write it leaves no report on stdout
    if args.csv is not None:
        _write_sweep(args.csv, element, spread, ([best.rows], [best.cols]), (), best)
    print("\n".join(lines))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .optimize import _check_fits, _row_runs, optimal_geometry_integer

    scenario = _scenario_from_args(args)
    element = scenario.element()
    spread = scenario.spread()
    budget = scenario.budget()
    listed = None
    if args.geometries is None or args.geometries == "all":
        low = range(1, min(budget, _SWEEP_BLOCK - 1) + 1)
        geometries = (list(map(floordiv, repeat(budget), low)), low)
        runs = _row_runs(budget, low.stop)
    else:
        listed = parse_geometry_list(args.geometries)
        geometries, runs = ([geom.rows for geom in listed], [geom.cols for geom in listed]), ()
    # the optimum comes from the allowed list when there is one, else from LIST
    restriction = listed if scenario.allowed_geometries is None else scenario.allowed_geometries
    winner = optimal_geometry_integer(budget, element, spread, restriction).integer_best
    if listed is not None:
        # every listed row fits the budget, whichever list the optimum came from
        _check_fits(listed, budget)
    _write_sweep(args.out, element, spread, geometries, runs, winner)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .estimate import estimate_ls, predict_subarray_gain, relative_gains_from_power

    records = load_measurements_csv(args.measurements_csv)
    gains = relative_gains_from_power(records, args.baseline_index)
    result = estimate_ls(gains)
    lines = [
        f"measurements: {len(records)} (baseline index {args.baseline_index})",
        f"asd pairs: {result.n_pairs_asd} used, {result.n_skipped_asd} skipped",
        f"zsd pairs: {result.n_pairs_zsd} used, {result.n_skipped_zsd} skipped",
        f"normalized asd squared: {result.asd_over_bhe_sq:.6f}",
        f"normalized zsd squared: {result.zsd_over_bve_sq:.6f}",
    ]
    if (args.element_gain_dbi, args.bw_elev_deg, args.bw_azim_deg) != (None, None, None):
        spread = result.absolute_spread(_scenario_from_args(args).element())
        lines.append(f"absolute asd: {math.degrees(spread.asd_rad):.6f} deg")
        lines.append(f"absolute zsd: {math.degrees(spread.zsd_rad):.6f} deg")
    if args.predict is not None:
        rows, cols = args.predict
        predicted = predict_subarray_gain(gains[args.baseline_index], result, rows, cols)
        lines.append(f"predicted gain {rows}x{cols} vs baseline: {_db(linear_to_db(predicted))} dB")
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
    mc_ok = mc_err <= 3.0 * mc_se
    se_db = linear_to_db(mc_gain + mc_se) - linear_to_db(mc_gain)
    # a zero SE: z is 0 for an exact gain, inf for any other
    z_score = mc_err / mc_se if mc_se > 0.0 else (math.inf if mc_err else 0.0)
    conv_ok = abs(conv_delta) <= 0.2

    lines = [
        f"geometry: {geom.rows} x {geom.cols}",
        f"analytic gain: {_db(analytic.effective_gain_dbi)} dBi",
        f"convolution gain: {_db(conv_dbi)} dBi (delta {_db(conv_delta)} dB, limit 0.2)",
        f"monte-carlo gain: {_db(linear_to_db(mc_gain))} dBi +/- {_db(se_db)} dB"
        f" (z {z_score:.6f}, limit 3)",
        "PASS" if conv_ok and mc_ok else "FAIL",
    ]
    print("\n".join(lines))
    return 0 if conv_ok and mc_ok else 1


@cache
def _build_parser() -> _Parser:
    # once per process: parse_args leaves the parser as it was
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
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
        return status
    except ArrayGainError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed the pipe (`| head`), not an I/O fault of the tool;
        # stdout goes to devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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
