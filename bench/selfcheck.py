"""Self-check of the benchmark's output checkers.

    python3 bench/selfcheck.py

Builds correct outputs from the reference formulas, confirms that each
checker accepts them, then perturbs each output the way a faulty
program might and confirms that the checker rejects it: a gain off by
0.01 dB, a non-optimal winner, a Monte-Carlo estimate 6 SE away and a
sweep with two is_optimum rows.  Exits 1 if a checker rejects a correct
output or lets a perturbed one through.  Needs neither numpy nor
arraygain.
"""

from __future__ import annotations

import math
import sys

import reference as ref

N = 256
BW = ref.element_bw_from_gain(5.0)
PARAMS = (BW, BW, math.radians(5.0), math.radians(22.0))
OFF_DB = 0.01


def optimize_text(winner, offset_db: float = 0.0) -> str:
    rows, cols = winner
    bw_e, bw_a, zsd, asd = PARAMS
    rows_real = math.sqrt(N * bw_e * asd / (bw_a * zsd))
    return "\n".join([
        f"budget: {N} elements",
        f"continuous optimum: {rows_real:.6f} x {N / rows_real:.6f}",
        f"integer optimum: {rows} x {cols} ({rows * cols} elements)",
        f"effective gain: {ref.db(ref.gain(*PARAMS, rows, cols)) + offset_db:.6f} dBi",
        f"nominal gain: {ref.db(ref.nominal_gain(bw_e, bw_a, rows, cols)):.6f} dBi",
        f"upper bound: {ref.db(ref.am_gm_bound(*PARAMS, N)):.6f} dBi",
    ]) + "\n"


def sweep_lines(flagged: set, offset_row: int | None = None) -> list[str]:
    lines = ["rows,cols,effective_gain_dbi,is_optimum"]
    for i, (rows, cols) in enumerate(ref.SweepAll(N)):
        gain_db = ref.db(ref.gain(*PARAMS, rows, cols)) + (OFF_DB if i == offset_row else 0.0)
        lines.append(f"{rows},{cols},{gain_db:.6f},{1 if (rows, cols) in flagged else 0}")
    return lines


def estimate_text(asd_deg: str, asd: float) -> str:
    bw_e, bw_a, zsd, _ = PARAMS
    return "\n".join([
        "measurements: 5 (baseline index 0)",
        f"normalized asd squared: {(asd / bw_a) ** 2:.6f}",
        f"normalized zsd squared: {(zsd / bw_e) ** 2:.6f}",
        f"absolute asd: {asd_deg} deg",
        f"absolute zsd: {math.degrees(zsd):.6f} deg",
        "predicted gain 4x4 vs baseline: 0.000000 dB",
    ]) + "\n"


def check_estimate(asd_deg: str, asd: float):
    bw_e, bw_a, zsd, _ = PARAMS
    return lambda: ref.check_estimate_text(
        estimate_text(asd_deg, asd), 5, (asd / bw_a) ** 2, (zsd / bw_e) ** 2, bw_e, bw_a, ((4, 4), 0.0)
    )


def main() -> int:
    best = ref.best_geometry(*PARAMS, ref.all_geometries(N))
    other = (16, 16)
    gain = ref.gain(*PARAMS, *best)
    se = 0.01 * gain

    def winner(geom, gain_linear, exhaustive=best):
        return lambda: ref.check_plan_winner(N, *PARAMS, *geom, gain_linear, exhaustive)

    cases = [
        # (name, checker call, should reject)
        ("winner as found", winner(best, gain), False),
        ("winner gain off by 0.01 dB", winner(best, gain * 10 ** (OFF_DB / 10)), True),
        ("non-optimal winner", winner(other, ref.gain(*PARAMS, *other)), True),
        ("optimize output as printed", lambda: ref.check_optimize_text(optimize_text(best), N, *PARAMS, best), False),
        ("optimize gain off by 0.01 dB",
         lambda: ref.check_optimize_text(optimize_text(best, OFF_DB), N, *PARAMS, best), True),
        ("optimize non-optimal winner", lambda: ref.check_optimize_text(optimize_text(other), N, *PARAMS, best), True),
        ("sweep as printed", lambda: ref.check_sweep(sweep_lines({best}), *PARAMS, ref.SweepAll(N)), False),
        ("sweep with two is_optimum rows",
         lambda: ref.check_sweep(sweep_lines({best, (N, 1)}), *PARAMS, ref.SweepAll(N)), True),
        ("sweep row off by 0.01 dB",
         lambda: ref.check_sweep(sweep_lines({best}, offset_row=3), *PARAMS, ref.SweepAll(N)), True),
        ("estimate as printed", check_estimate(f"{math.degrees(PARAMS[3]):.6f}", PARAMS[3]), False),
        ("estimate spread off by 0.01 deg", check_estimate(f"{math.degrees(PARAMS[3]) + 0.01:.6f}", PARAMS[3]), True),
        # sqrt of a 1e-16 round-off in the squared estimate, for a zero spread
        ("estimate zero spread as 0.000001 deg", check_estimate("0.000001", 0.0), False),
        ("estimate zero spread as 0.001 deg", check_estimate("0.001000", 0.0), True),
        ("monte-carlo 1 SE away", lambda: ref.check_monte_carlo(gain + se, se, gain), False),
        ("monte-carlo 6 SE away", lambda: ref.check_monte_carlo(gain + 6 * se, se, gain), True),
        ("coverage 99 of 100", lambda: ref.check_coverage([1.0] * 99 + [4.0]), False),
        ("coverage 98 of 100", lambda: ref.check_coverage([1.0] * 98 + [4.0] * 2), True),
        ("convolution off by 0.3 dB", lambda: ref.check_convolution(gain * 10 ** 0.03, gain), True),
    ]
    bad = 0
    for name, call, should_reject in cases:
        try:
            call()
            outcome = None
        except ref.CheckError as exc:
            outcome = exc
        ok = (outcome is not None) == should_reject
        bad += not ok
        verdict = f"rejected ({outcome})" if outcome else "accepted"
        print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}")
    print(f"{len(cases) - bad}/{len(cases)} checker cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
