"""Reference values and output checkers, kept apart from the program.

Nothing here imports arraygain.  Expected values come from the closed
forms of the Gaussian-beam model, coded again from the formulas alone,
or from properties any correct answer must have.  Each checker raises
CheckError with a one-line reason; the benchmark counts a run correct
only when no checker raised.
"""

from __future__ import annotations

import math

REL_TOL = 1e-12
# a value printed with 6 decimals is within half a unit of its last digit
PRINT_TOL = 5e-7
# a spread estimated from noiseless, forward-modelled measurements: its
# square is exact to ESTIMATE_REL_TOL, or to SPREAD_SQ_TOL when it is 0
ESTIMATE_REL_TOL = 1e-9
SPREAD_SQ_TOL = 1e-12


class CheckError(Exception):
    """An output disagrees with its reference."""


def gain(bw_e: float, bw_a: float, zsd: float, asd: float, rows: float, cols: float) -> float:
    """Effective gain 2 / (hypot(bw_e/R, zsd) * hypot(bw_a/C, asd)), linear."""
    return 2.0 / (math.hypot(bw_e / rows, zsd) * math.hypot(bw_a / cols, asd))


def nominal_gain(bw_e: float, bw_a: float, rows: int, cols: int) -> float:
    """Zero-spread gain of an R x C array: 2 / ((bw_e/R) * (bw_a/C))."""
    return 2.0 / ((bw_e / rows) * (bw_a / cols))


def am_gm_bound(bw_e: float, bw_a: float, zsd: float, asd: float, n: int) -> float:
    """Gain no geometry within n elements can beat: 2 / (asd*zsd + bw_e*bw_a/n)."""
    return 2.0 / (asd * zsd + bw_e * bw_a / n)


def db(value: float) -> float:
    return 10.0 * math.log10(value)


def element_bw_from_gain(gain_dbi: float) -> float:
    """Symmetric element beamwidth with directional gain 2 / bw**2."""
    return math.sqrt(2.0 / 10.0 ** (gain_dbi / 10.0))


def eirp_budget(eirp_dbm: float, power_dbm: float, gain_dbi: float) -> int:
    """Largest n with power + gain + 20 log10(n) <= eirp."""
    return math.floor(10.0 ** ((eirp_dbm - power_dbm - gain_dbi) / 20.0))


def best_geometry(bw_e, bw_a, zsd, asd, candidates) -> tuple[int, int]:
    """Highest-gain (rows, cols); near-ties (1e-12) go to the taller array,
    then to the earlier candidate."""
    scored = [(gain(bw_e, bw_a, zsd, asd, r, c), r, c) for r, c in candidates]
    top = max(g for g, _, _ in scored)
    near = [(r, c) for g, r, c in scored if g >= top * (1.0 - REL_TOL)]
    tallest = max(r for r, _ in near)
    return next((r, c) for r, c in near if r == tallest)


class SweepAll:
    """The geometries `sweep` lists by default: cols 1..n, rows n // cols."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return ((self.n // cols, cols) for cols in range(1, self.n + 1))


def all_geometries(n: int):
    """Every rows x cols with rows * cols <= n."""
    for cols in range(1, n + 1):
        for rows in range(1, n // cols + 1):
            yield rows, cols


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def check_rel(name: str, got: float, want: float, rel: float = REL_TOL) -> None:
    check(abs(got - want) <= rel * abs(want), f"{name}: got {got!r}, want {want!r}")


def check_printed(name: str, text: str, want: float) -> None:
    """A 6-decimal field must be a rounding of the reference value."""
    try:
        got = float(text)
    except ValueError:
        raise CheckError(f"{name}: {text!r} is not a number") from None
    check(
        abs(got - want) <= PRINT_TOL + 1e-9 * max(1.0, abs(want)),
        f"{name}: printed {text}, want {want:.9f}",
    )


def check_printed_spread(name: str, text: str, want_sq: float, bw: float) -> None:
    """A spread printed in degrees with 6 decimals, sqrt(want_sq) * bw.

    Checked through its square, to the tolerance of a noiseless estimate
    of the square (SPREAD_SQ_TOL absolute, ESTIMATE_REL_TOL relative):
    near zero the square root magnifies round-off, so a squared estimate
    of 1e-16 from exact inputs prints as 0.000001 deg.
    """
    try:
        got = float(text)
    except ValueError:
        raise CheckError(f"{name}: {text!r} is not a number") from None
    low = (math.radians(max(got - PRINT_TOL, 0.0)) / bw) ** 2
    high = (math.radians(got + PRINT_TOL) / bw) ** 2
    slack = SPREAD_SQ_TOL + ESTIMATE_REL_TOL * want_sq
    check(low - slack <= want_sq <= high + slack, f"{name}: printed {text}, want {math.degrees(math.sqrt(want_sq) * bw):.9f}")


def check_winner(name: str, got: tuple[int, int], want: tuple[int, int]) -> None:
    check(tuple(got) == tuple(want), f"{name}: winner {got}, want {want}")


def check_plan_winner(n, bw_e, bw_a, zsd, asd, rows, cols, gain_linear, exhaustive=None):
    """Properties of an optimum within budget n: it fits, its gain is the
    closed form, it is under the AM-GM bound, and it is the exhaustive
    winner when one is given."""
    check(1 <= rows and 1 <= cols and rows * cols <= n, f"winner {rows}x{cols} exceeds budget {n}")
    check_rel("winner gain", gain_linear, gain(bw_e, bw_a, zsd, asd, rows, cols))
    bound = am_gm_bound(bw_e, bw_a, zsd, asd, n)
    check(gain_linear <= bound * (1.0 + REL_TOL), f"winner gain {gain_linear!r} above bound {bound!r}")
    if exhaustive is not None:
        check_winner("exhaustive scan", (rows, cols), exhaustive)


def check_sweep(lines, bw_e, bw_a, zsd, asd, geometries) -> None:
    """A sweep CSV: one row per geometry, in order, gains to 6 decimals,
    exactly one is_optimum row, and that row has the highest gain."""
    lines = iter(lines)
    check(next(lines, "").rstrip("\n") == "rows,cols,effective_gain_dbi,is_optimum", "sweep header")
    flagged = []
    top = -math.inf
    count = 0
    for (rows, cols), line in zip(geometries, lines):
        fields = line.rstrip("\n").split(",")
        check(len(fields) == 4, f"sweep row {line!r}")
        check((int(fields[0]), int(fields[1])) == (rows, cols), f"sweep row {line!r}, want {rows}x{cols}")
        g = gain(bw_e, bw_a, zsd, asd, rows, cols)
        check_printed(f"sweep gain {rows}x{cols}", fields[2], db(g))
        check(fields[3] in ("0", "1"), f"sweep flag {fields[3]!r}")
        if fields[3] == "1":
            flagged.append(g)
        top = max(top, g)
        count += 1
    check(count == len(geometries) and next(lines, None) is None, "sweep row count")
    check(len(flagged) == 1, f"sweep has {len(flagged)} is_optimum rows")
    check(flagged[0] >= top * (1.0 - REL_TOL), "sweep is_optimum row is not the highest gain")


def check_monte_carlo(estimate: float, se: float, want: float) -> float:
    """Within 5 standard errors; returns the z-score for the coverage gate."""
    check(se > 0.0, f"monte-carlo standard error {se!r}")
    z = abs(estimate - want) / se
    check(z <= 5.0, f"monte-carlo {estimate!r} is {z:.2f} SE from {want!r}")
    return z


def check_coverage(z_scores, share: float = 0.99) -> None:
    inside = sum(1 for z in z_scores if z <= 3.0)
    check(inside >= share * len(z_scores), f"monte-carlo: {inside}/{len(z_scores)} points within 3 SE")


def check_convolution(peak: float, want: float) -> None:
    delta = abs(db(peak) - db(want))
    check(delta <= 0.2, f"convolution {delta:.4f} dB from the closed form")


def check_array_factor(k: int, ratio: float) -> None:
    check(abs(k * ratio - 1.0) <= 0.15, f"array factor k*ratio {k * ratio:.4f} for k={k}")


def parse_fields(text: str) -> dict[str, str]:
    """'key: value' lines of CLI output; a bare line is keyed by itself."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        out[key] = value if sep else line
    return out


def check_optimize_text(text, n, bw_e, bw_a, zsd, asd, winner, eirp=None) -> None:
    """`arraygain optimize` output against the reference values."""
    f = parse_fields(text)
    check(f.get("budget") == f"{n} elements", f"budget line {f.get('budget')!r}, want {n}")
    if eirp is not None:
        check(f.get("eirp cap") == f"{eirp[0]:.6f} dBm at {eirp[1]:.6f} dBm per element", "eirp line")
    if zsd > 0.0 and asd > 0.0:
        rows_real = math.sqrt(n * bw_e * asd / (bw_a * zsd))
        parts = f.get("continuous optimum", "").split(" x ")
        check(len(parts) == 2, "continuous optimum line")
        check_printed("continuous rows", parts[0], rows_real)
        check_printed("continuous cols", parts[1], n / rows_real)
    else:
        check(f.get("continuous optimum") == "none (degenerate spread)", "continuous optimum line")
    rows, cols = winner
    check(
        f.get("integer optimum") == f"{rows} x {cols} ({rows * cols} elements)",
        f"integer optimum {f.get('integer optimum')!r}, want {rows} x {cols}",
    )
    for key, want in (
        ("effective gain", gain(bw_e, bw_a, zsd, asd, rows, cols)),
        ("nominal gain", nominal_gain(bw_e, bw_a, rows, cols)),
        ("upper bound", am_gm_bound(bw_e, bw_a, zsd, asd, n)),
    ):
        value = f.get(key, "")
        check(value.endswith(" dBi"), f"{key} line {value!r}")
        check_printed(key, value[: -len(" dBi")], db(want))


def check_estimate_text(text, n_records, asd_sq, zsd_sq, bw_e, bw_a, predict) -> None:
    """`arraygain estimate` output: spreads and the prediction."""
    f = parse_fields(text)
    check(f.get("measurements", "").startswith(f"{n_records} "), "measurements line")
    check_printed("normalized asd squared", f.get("normalized asd squared", ""), asd_sq)
    check_printed("normalized zsd squared", f.get("normalized zsd squared", ""), zsd_sq)
    for key, want_sq, bw in (("absolute asd", asd_sq, bw_a), ("absolute zsd", zsd_sq, bw_e)):
        value = f.get(key, "")
        check(value.endswith(" deg"), f"{key} line {value!r}")
        check_printed_spread(key, value[: -len(" deg")], want_sq, bw)
    (rows, cols), want_db = predict
    value = f.get(f"predicted gain {rows}x{cols} vs baseline", "")
    check(value.endswith(" dB"), f"prediction line {value!r}")
    check_printed("predicted gain", value[: -len(" dB")], want_db)


def check_validate_text(text, bw_e, bw_a, zsd, asd, rows, cols) -> None:
    """`arraygain validate` output: geometry, analytic gain, PASS."""
    f = parse_fields(text)
    check(f.get("geometry") == f"{rows} x {cols}", "geometry line")
    value = f.get("analytic gain", "")
    check(value.endswith(" dBi"), f"analytic gain line {value!r}")
    check_printed("analytic gain", value[: -len(" dBi")], db(gain(bw_e, bw_a, zsd, asd, rows, cols)))
    check(text.splitlines()[-1:] == ["PASS"], "validate did not print PASS")
