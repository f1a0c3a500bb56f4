"""End-to-end CLI tests running the real entry point in a subprocess.

Checks the published invocations, byte stability of every emitted
format, the sweep CSV round trip, and the error-code contract, which
_refused states once: exit 1, no stdout, one "error[code]: ..." line.
"""

from __future__ import annotations

import errno
import hashlib
import io
import math
import os
import random
import stat
import subprocess
import sys
import threading
import tracemalloc
from itertools import zip_longest
from pathlib import Path

import pytest

from arraygain import (
    AngularSpread,
    ArrayGeometry,
    ElementPattern,
    Scenario,
    cli,
    effective_gain,
    effective_gain_value,
    element_pattern_from_gain,
    optimal_geometry_integer,
)
from arraygain.units import linear_to_db

_CMD = [sys.executable, "-m", "arraygain"]
_DATA = Path(__file__).resolve().parent / "data"


def _assert_same_text(got, want, context):
    # full equality; a mismatch names its first differing line instead of
    # letting pytest's assertion rewriting diff megabytes of text
    if got == want:
        return
    lines = zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    for number, (line, expected) in enumerate(lines, 1):
        if line != expected:
            pytest.fail(f"{context}: line {number} is {line!r}, want {expected!r}", pytrace=False)


def _run(*args, binary=False):
    return subprocess.run(
        _CMD + list(args), capture_output=True, text=not binary, timeout=300
    )


def _lines(result):
    return result.stdout.splitlines()


def _main(capsys, argv):
    # cli.main in this process, its outcome shaped like _run's
    status = cli.main(argv)
    return subprocess.CompletedProcess(argv, status, *capsys.readouterr())


def _refused(result, code):
    # the failure contract, as tests/data/refused.sh checks it in CI: exit 1,
    # nothing on stdout, one stderr line "error[<code>]: ..."; returns that line
    assert (result.returncode, result.stdout) == (1, ""), result
    err = result.stderr
    assert err.startswith(f"error[{code}]: ") and err.count("\n") == 1 and err.endswith("\n"), err
    return err


_REFUSAL = "error[input]: refused\n"


@pytest.mark.parametrize(
    "status, out, err",
    [(1, "", _REFUSAL), (0, "", _REFUSAL), (2, "", _REFUSAL), (1, "x", _REFUSAL),
     (1, "", _REFUSAL + "more\n"), (1, "", "error[io]: refused\n")],
    ids=["refusal", "exit-0", "exit-2", "stdout-byte", "second-line", "other-code"],
)
def test_both_contract_checks_judge_alike(status, out, err):
    # one outcome, judged by _refused and by the CI script on a shell command
    script = 'printf %s "$1"; printf %s "$2" >&2; exit "$3"'
    argv = ["sh", str(_DATA / "refused.sh"), "input", "sh", "-c", script, "sh", out, err, str(status)]
    checked = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert checked.stdout == err
    outcome = subprocess.CompletedProcess(argv, status, out, err)
    if (status, out, err) == (1, "", _REFUSAL):
        assert _refused(outcome, "input") == err and (checked.returncode, checked.stderr) == (0, "")
    else:
        with pytest.raises(AssertionError):
            _refused(outcome, "input")
        assert checked.returncode == 1 and checked.stderr.startswith("refused.sh: ")


# --- optimize -----------------------------------------------------------

def test_optimize_strong_spread():
    result = _run(
        "optimize", "--elements", "256", "--element-gain-dbi", "5",
        "--asd-deg", "22", "--zsd-deg", "5",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert lines[0] == "budget: 256 elements"
    assert "integer optimum: 32 x 8 (256 elements)" in lines
    assert any(line.startswith("continuous optimum: 33.56") for line in lines)
    assert any(line.startswith("upper bound: ") for line in lines)


def test_optimize_zero_spread():
    result = _run(
        "optimize", "--elements", "25", "--element-gain-dbi", "5",
        "--asd-deg", "0", "--zsd-deg", "0",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert "continuous optimum: none (degenerate spread)" in lines
    assert "integer optimum: 25 x 1 (25 elements)" in lines
    assert "effective gain: 18.979400 dBi" in lines
    assert "nominal gain: 18.979400 dBi" in lines


def test_optimize_eirp_cap():
    result = _run(
        "optimize", "--eirp-dbm", "43", "--element-power-dbm", "10",
        "--element-gain-dbi", "5", "--asd-deg", "9", "--zsd-deg", "1",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert lines[0] == "budget: 25 elements"
    assert "eirp cap: 43.000000 dBm at 10.000000 dBm per element" in lines


# an element whose gain is 2 / bw**2 = 1 to within an ulp under 1e-3 deg
# spreads: every dB field of its reports rounds to zero from below
_UNIT_ELEMENT = ["--bw-elev-deg", "81.02847", "--bw-azim-deg", "81.02847"]


def test_optimize_prints_gains_that_round_to_zero_unsigned():
    result = _run(
        "optimize", *_UNIT_ELEMENT, "--elements", "1", "--asd-deg", "0.001", "--zsd-deg", "0.001",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert "effective gain: 0.000000 dBi" in lines
    assert "nominal gain: 0.000000 dBi" in lines
    assert "upper bound: 0.000000 dBi" in lines
    assert "-0.000000" not in result.stdout


def test_optimize_is_byte_stable():
    args = (
        "optimize", "--elements", "256", "--element-gain-dbi", "5",
        "--asd-deg", "22", "--zsd-deg", "5",
    )
    first = _run(*args, binary=True)
    second = _run(*args, binary=True)
    assert first.stdout == second.stdout
    assert b"\r" not in first.stdout


def test_optimize_csv_winner(tmp_path):
    out = tmp_path / "winner.csv"
    result = _run(
        "optimize", "--elements", "256", "--element-gain-dbi", "5",
        "--asd-deg", "22", "--zsd-deg", "5", "--csv", str(out),
    )
    assert result.returncode == 0
    header, row = out.read_text().splitlines()
    assert header == "rows,cols,effective_gain_dbi,is_optimum"
    assert row.startswith("32,8,") and row.endswith(",1")


def test_optimize_csv_failure_prints_no_report():
    result = _run(
        "optimize", "--elements", "256", "--element-gain-dbi", "5",
        "--asd-deg", "22", "--zsd-deg", "5", "--csv", "/no/such/dir/x.csv",
    )
    _refused(result, "io")


def test_optimize_output_matches_the_golden_file():
    # the script and file that the stdlib CI job diffs on each supported Python
    result = subprocess.run(
        ["sh", str(_DATA / "optimize_golden.sh"), sys.executable], capture_output=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (_DATA / "optimize_golden.txt").read_bytes()


# --- sweep --------------------------------------------------------------

def test_sweep_reference_rows():
    result = _run(
        "sweep", "--elements", "256", "--element-gain-dbi", "5",
        "--asd-deg", "14", "--zsd-deg", "0.6",
        "--geometries", "64x4,16x16,1x256",
    )
    assert result.returncode == 0
    assert _lines(result) == [
        "rows,cols,effective_gain_dbi,is_optimum",
        "64,4,25.918410,1",
        "16,16,21.983942,0",
        "1,256,10.124369,0",
    ]


def test_sweep_round_trip_bit_exact():
    result = _run(
        "sweep", "--elements", "256", "--element-gain-dbi", "5",
        "--asd-deg", "14", "--zsd-deg", "0.6",
    )
    assert result.returncode == 0
    rows = _lines(result)[1:]
    assert len(rows) == 256
    element = element_pattern_from_gain(5.0)
    spread = AngularSpread(zsd_rad=math.radians(0.6), asd_rad=math.radians(14.0))
    optima = 0
    for row in rows:
        r, c, gain_text, flag = row.split(",")
        gain = effective_gain_value(element, int(r), int(c), spread)
        assert f"{10.0 * math.log10(gain):.6f}" == gain_text
        optima += flag == "1"
    assert optima == 1


def test_sweep_zero_spread_full_budget_rows_tie():
    result = _run(
        "sweep", "--elements", "16", "--element-gain-dbi", "5",
        "--asd-deg", "0", "--zsd-deg", "0",
    )
    assert result.returncode == 0
    full_budget_gains = set()
    for row in _lines(result)[1:]:
        r, c, gain_text, _ = row.split(",")
        if int(r) * int(c) == 16:
            full_budget_gains.add(gain_text)
    assert len(full_budget_gains) == 1


def test_sweep_out_file_uses_lf(tmp_path):
    out = tmp_path / "sweep.csv"
    result = _run(
        "sweep", "--elements", "32", "--element-gain-dbi", "5",
        "--asd-deg", "10", "--zsd-deg", "2", "--out", str(out),
    )
    assert result.returncode == 0
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert len(data.splitlines()) == 33


# --- sweep rows against the per-row reference ----------------------------

def _reference_sweep_text(scenario, listed, restriction=None):
    """The sweep CSV and error line of a writer that composes each row on
    its own: effective_gain_value, then linear_to_db, then one f-string.

    listed holds the (rows, cols) rows in output order, restriction the
    geometries the winner comes from (None: the whole budget).  The text
    ends where a row fails, as a stream of rows does.
    """
    lines = []
    try:
        element, spread, budget = scenario.element(), scenario.spread(), scenario.budget()
        winner = optimal_geometry_integer(budget, element, spread, restriction).integer_best
        lines.append("rows,cols,effective_gain_dbi,is_optimum")
        for rows, cols in listed:
            gain_dbi = linear_to_db(effective_gain_value(element, rows, cols, spread))
            flag = 1 if (rows, cols) == (winner.rows, winner.cols) else 0
            lines.append(f"{rows},{cols},{gain_dbi:.6f},{flag}")
    except ValueError as exc:
        error = f"error[{getattr(exc, 'code', 'input')}]: {exc}\n"
    else:
        error = ""
    return "".join(line + "\n" for line in lines), error


_FLAG_NAMES = {
    "element_gain_dbi": "--element-gain-dbi",
    "bw_elev_deg": "--bw-elev-deg",
    "bw_azim_deg": "--bw-azim-deg",
    "asd_deg": "--asd-deg",
    "zsd_deg": "--zsd-deg",
}


def _scenario_flags(values):
    flags = []
    for name, value in values.items():
        flags += [_FLAG_NAMES[name], repr(value)]
    return flags


def _geometry_text(geometries):
    return ",".join(f"{rows}x{cols}" for rows, cols in geometries)


def _random_geometries(rng, n, count, off_rows):
    # (rows, cols) within budget n; off_rows keeps rows below n // cols, so
    # that none is a row of the full sweep (needs n >= 2)
    geometries = []
    for _ in range(count):
        if off_rows:
            cols = rng.randint(1, n // 2)
            geometries.append((rng.randint(1, n // cols - 1), cols))
        else:
            cols = rng.randint(1, n)
            geometries.append((rng.randint(1, n // cols), cols))
    return geometries


def _sweep_cases(count, seed):
    # (argv, scenario, listed rows, restriction, whether output goes to a file)
    rng = random.Random(seed)
    fixed = (1, 2, 720, 5040, 5000, 720, 5040)
    for case in range(count):
        n = fixed[case] if case < len(fixed) else round(math.exp(rng.uniform(0.0, math.log(5000))))
        if rng.random() < 0.5:
            values = {"element_gain_dbi": rng.uniform(-5.0, 20.0)}
        else:
            values = {"bw_elev_deg": rng.uniform(3.0, 90.0), "bw_azim_deg": rng.uniform(3.0, 90.0)}
        values["zsd_deg"] = 0.0 if rng.randrange(7) == 0 else rng.uniform(0.01, 15.0)
        values["asd_deg"] = 0.0 if rng.randrange(7) == 0 else rng.uniform(0.01, 40.0)
        argv = ["--elements", str(n), *_scenario_flags(values)]
        scenario = Scenario(n_elements=n, **values)
        full = [(n // cols, cols) for cols in range(1, n + 1)]
        mode = rng.choice(("all", "all", "explicit", "allowed", "csv"))
        if mode == "allowed" and n < 2:
            mode = "all"
        if mode == "all":
            argv = ["sweep", *argv] + (["--geometries", "all"] if rng.random() < 0.5 else [])
            yield argv, scenario, full, None, rng.random() < 0.5
        elif mode == "explicit":
            listed = _random_geometries(rng, n, rng.randint(1, 8), off_rows=False)
            listed += rng.sample(listed, rng.randint(0, len(listed)))
            rng.shuffle(listed)
            restriction = [ArrayGeometry(rows, cols) for rows, cols in listed]
            winner = optimal_geometry_integer(
                n, scenario.element(), scenario.spread(), restriction
            ).integer_best
            listed.insert(rng.randint(0, len(listed)), (winner.rows, winner.cols))
            restriction = [ArrayGeometry(rows, cols) for rows, cols in listed]
            argv = ["sweep", *argv, "--geometries", _geometry_text(listed)]
            yield argv, scenario, listed, restriction, rng.random() < 0.5
        elif mode == "allowed":
            allowed = _random_geometries(rng, n, rng.randint(1, 6), off_rows=True)
            restriction = [ArrayGeometry(rows, cols) for rows, cols in allowed]
            argv = ["sweep", *argv, "--allowed-geometries", _geometry_text(allowed)]
            yield argv, scenario, full, restriction, rng.random() < 0.5
        else:
            best = optimal_geometry_integer(n, scenario.element(), scenario.spread()).integer_best
            yield ["optimize", *argv], scenario, [(best.rows, best.cols)], None, True


def test_sweep_rows_match_the_per_row_reference(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    seen = set()
    for argv, scenario, listed, restriction, to_file in _sweep_cases(300, seed=20261018):
        want, error = _reference_sweep_text(scenario, listed, restriction)
        assert error == "", argv
        if to_file:
            argv = argv + ["--csv" if argv[0] == "optimize" else "--out", str(out)]
        status = cli.main(argv)
        printed = capsys.readouterr()
        assert status == 0, (argv, printed.err)
        if to_file:
            got = out.read_text(encoding="utf-8")
        else:
            got = printed.out
        _assert_same_text(got, want, argv)
        seen.add((argv[0], "--allowed-geometries" in argv, "--geometries" in argv))
        if restriction is not None and "--allowed-geometries" in argv:
            # the winner is no (N // cols, cols) row, so none is flagged
            assert not any(line.endswith(",1") for line in want.splitlines())
    assert len(seen) >= 4


def test_sweep_list_takes_its_optimum_from_the_allowed_list(tmp_path, capsys):
    # LIST names the rows written; an allowed list, from a flag or a scenario
    # file, names the geometries the optimum comes from, as in optimize
    flags = ["--elements", "8", "--element-gain-dbi", "5", "--asd-deg", "14", "--zsd-deg", "1"]
    scenario = Scenario(element_gain_dbi=5.0, n_elements=8, asd_deg=14.0, zsd_deg=1.0)
    listed = [(8, 1), (2, 4)]
    want, _ = _reference_sweep_text(scenario, listed, [ArrayGeometry(2, 4)])
    assert want.splitlines()[1:] == ["8,1,13.769091,0", "2,4,12.027979,1"]
    case = tmp_path / "case.txt"
    case.write_text("allowed_geometries = 2x4\n")
    for extra in (["--allowed-geometries", "2x4"], ["--scenario", str(case)]):
        assert cli.main(["sweep", *flags, "--geometries", "8x1,2x4", *extra]) == 0
        assert capsys.readouterr().out == want
    assert cli.main(["optimize", *flags, "--allowed-geometries", "2x4"]) == 0
    assert "integer optimum: 2 x 4 (8 elements)" in capsys.readouterr().out.splitlines()
    # without an allowed list the optimum is LIST's best
    assert cli.main(["sweep", *flags, "--geometries", "8x1,2x4"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["8,1,13.769091,1", "2,4,12.027979,0"]
    # every listed geometry must still fit the budget
    result = _main(capsys, ["sweep", *flags, "--geometries", "8x1,3x4", "--allowed-geometries", "2x4"])
    assert _refused(result, "input") == "error[input]: geometry 3x4 exceeds the element budget 8\n"


def test_extreme_spread_ratio_picks_from_the_list(capsys):
    # the closed form is beyond float range here, and neither a list nor the
    # full scan needs it
    flags = ["--elements", "256", "--element-gain-dbi", "5", "--asd-deg", "1e-320", "--zsd-deg", "1e300"]
    assert cli.main(["optimize", *flags, "--allowed-geometries", "16x16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["continuous optimum: none (degenerate spread)", "integer optimum: 16 x 16 (256 elements)"]
    assert cli.main(["sweep", *flags, "--geometries", "16x16,8x32", "--allowed-geometries", "8x32"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["16,16,-2966.372424,0", "8,32,-2963.362124,1"]
    assert cli.main(["sweep", *flags, "--geometries", "16x16"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["16,16,-2966.372424,1"]
    assert cli.main(["optimize", *flags]) == 0
    assert "integer optimum: 1 x 256 (256 elements)" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "values, n, geometries, to_file, code",
    [
        # the element's widths multiply to inf: its gain is 0
        ({"bw_elev_deg": 1e156, "bw_azim_deg": 1e156, "asd_deg": 1.0, "zsd_deg": 1.0},
         16, None, False, "element"),
        # rows <= 1 widen elevation until the width product overflows: this
        # wrote 2,500 rows and then failed at the run of rows = 1
        ({"bw_elev_deg": 1e150, "bw_azim_deg": 1.0, "asd_deg": 1e162, "zsd_deg": 0.0},
         5000, None, False, "input"),
        ({"bw_elev_deg": 1e150, "bw_azim_deg": 1.0, "asd_deg": 1e162, "zsd_deg": 0.0},
         5000, None, True, "input"),
        # an explicit list whose third geometry has a zero gain
        ({"bw_elev_deg": 1.0, "bw_azim_deg": 1e12, "asd_deg": 0.0, "zsd_deg": 1e301},
         100, [(1, 100), (2, 50), (1, 1), (1, 100)], False, "input"),
    ],
    ids=["bound-zero", "run-stdout", "run-out-file", "explicit-list"],
)
def test_sweep_zero_gain_fails_like_the_reference(values, n, geometries, to_file, code, tmp_path):
    # the budget check refuses a zero gain anywhere in the budget before the
    # header, so nothing is written
    scenario = Scenario(n_elements=n, **values)
    argv = ["sweep", "--elements", str(n), *_scenario_flags(values)]
    if geometries is None:
        listed, restriction = [(n // cols, cols) for cols in range(1, n + 1)], None
    else:
        listed = geometries
        restriction = [ArrayGeometry(rows, cols) for rows, cols in geometries]
        argv += ["--geometries", _geometry_text(geometries)]
    out = tmp_path / "rows.csv"
    if to_file:
        argv += ["--out", str(out)]
    want, error = _reference_sweep_text(scenario, listed, restriction)
    assert want == ""
    assert _refused(_run(*argv), code) == error
    assert not out.exists()


_STRONG = {"element_gain_dbi": 5.0, "asd_deg": 22.0, "zsd_deg": 5.0}
_SWEEP = ["sweep", "--elements", "5000", *_scenario_flags(_STRONG)]
# the error of a sweep whose writing fails after its first block
_FAILED_WRITE = "error[io]: [Errno 5] the disk went away\n"


@pytest.fixture
def failing_write(monkeypatch):
    # no input fails once the file is open, so the failure is injected: the
    # first block, the batch of cols 1..999, is written, then the write fails
    real = cli._write_batch

    def write_batch(out, *args):
        real(out, *args)
        raise OSError(errno.EIO, "the disk went away")

    monkeypatch.setattr(cli, "_write_batch", write_batch)


def test_sweep_failure_keeps_a_fifo(tmp_path, capsys, failing_write):
    # only a regular file is removed; a FIFO, like a device, stays
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    result = _main(capsys, [*_SWEEP, "--out", str(fifo)])
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert _refused(result, "io") == _FAILED_WRITE
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    # the reader got the rows up to the failure, whole lines of the full sweep
    scenario = Scenario(n_elements=5000, **_STRONG)
    want, _ = _reference_sweep_text(scenario, [(5000 // cols, cols) for cols in range(1, 5001)])
    assert received[0].count("\n") > 1 and want.startswith(received[0])
    assert received[0].endswith("\n")


def test_sweep_failure_keeps_a_symlink(tmp_path, capsys, failing_write):
    target = tmp_path / "rows.csv"
    target.write_text("")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert _refused(_main(capsys, [*_SWEEP, "--out", str(link)]), "io") == _FAILED_WRITE
    assert link.is_symlink() and target.is_file()


def test_sweep_failure_removes_no_device(monkeypatch, capsys, failing_write):
    # os.remove is recorded, not run, so a fault here cannot delete the device
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    assert _refused(_main(capsys, [*_SWEEP, "--out", os.devnull]), "io") == _FAILED_WRITE
    assert removed == []


def test_failed_cleanup_keeps_the_original_error(tmp_path, monkeypatch, capsys, failing_write):
    # a non-root caller may not remove the file: the sweep's own error still shows
    def refuse(path):
        raise PermissionError(errno.EACCES, "Permission denied", path)

    monkeypatch.setattr(os, "remove", refuse)
    assert _refused(_main(capsys, [*_SWEEP, "--out", str(tmp_path / "rows.csv")]), "io") == _FAILED_WRITE


def test_interrupted_write_removes_the_file(tmp_path):
    out = tmp_path / "rows.csv"
    with pytest.raises(KeyboardInterrupt):
        with cli._output(str(out)) as fh:
            fh.write("rows,cols,effective_gain_dbi,is_optimum\n")
            raise KeyboardInterrupt
    assert not out.exists()


def test_failed_last_flush_removes_the_file(tmp_path, monkeypatch, capsys):
    class FullDisk(io.TextIOWrapper):
        # a file whose closing flush fails, as on a full disk
        def close(self):
            if not self.closed:
                super().close()
                raise OSError(errno.ENOSPC, "No space left on device")

    def full_disk(path, mode, **kwargs):
        return FullDisk(open(path, mode + "b"), **kwargs)

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    out = tmp_path / "rows.csv"
    result = _main(capsys, [
        "sweep", "--elements", "16", "--element-gain-dbi", "5",
        "--asd-deg", "22", "--zsd-deg", "5", "--out", str(out),
    ])
    assert _refused(result, "io") == "error[io]: [Errno 28] No space left on device\n"
    assert not out.exists()


def test_closed_pipe_is_not_an_io_error():
    # `sweep | head -n 1`: a reader that closes the pipe gets no error line
    sweep = subprocess.Popen(
        _CMD + ["sweep", "--elements", "200000", *_scenario_flags(_STRONG)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert sweep.stdout.readline() == "rows,cols,effective_gain_dbi,is_optimum\n"
    sweep.stdout.close()
    _, err = sweep.communicate(timeout=300)
    assert (sweep.returncode, err) == (1, "")


def test_sweep_long_run_is_written_in_blocks(tmp_path):
    # rows = 1 for cols 100001..200000: one run of 10**5 rows, 2 MiB of text
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        status = cli.main([
            "sweep", "--elements", "200000", "--element-gain-dbi", "5",
            "--asd-deg", "22", "--zsd-deg", "5", "--out", str(out),
        ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < 5 * 2**20
    data = out.read_bytes()
    assert data.count(b"\n") == 200_001
    # the digest that the stdlib CI job also checks
    digest = (_DATA / "sweep_200000.sha256").read_text().split()[0]
    assert hashlib.sha256(data).hexdigest() == digest


def test_zero_spread_sweep_matches_its_digest(tmp_path, monkeypatch):
    # with no spread the gain climbs at every column, so no block joins and
    # every row is written row by row
    real = cli._flat_text
    joined = []

    def flat_text(dbi, block):
        text = real(dbi, block)
        joined.append(text is not None and len(block) > 1)
        return text

    monkeypatch.setattr(cli, "_flat_text", flat_text)
    out = tmp_path / "sweep.csv"
    status = cli.main([
        "sweep", "--elements", "20000", "--element-gain-dbi", "5",
        "--asd-deg", "0", "--zsd-deg", "0", "--out", str(out),
    ])
    assert status == 0 and not any(joined)
    data = out.read_bytes()
    assert data.count(b"\n") == 20_001
    # the digest that the stdlib CI job also checks
    digest = (_DATA / "sweep_20000_zero.sha256").read_text().split()[0]
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "n, values, geometries, joined_share",
    [
        # nearly every block from cols = 1,000 on prints one gain throughout
        (200_000, _STRONG, None, 0.9),
        # a tiny azimuth spread: the gain still climbs across each block, so
        # blocks fall back to the per-row template; the winner is 2 x 100000,
        # whose run (cols 66667..100000) is all past 1,000
        (200_000, {**_STRONG, "asd_deg": 1e-4}, None, None),
        # no azimuth spread: the gain climbs about 4.3 / cols dB a column, so
        # no block of more than one row joins
        (200_000, {**_STRONG, "asd_deg": 0.0}, None, 0.0),
        # the rows = 2 run (cols 701..1050) crosses 1,000: blocks start and
        # end mid-thousand
        (2_100, _STRONG, None, None),
        # the winner's rows recur at other cols, each a run of one column
        (40_000, _STRONG, [(1, 1000), (2, 9999), (2, 10000), (1, 39999), (2, 10000)], None),
    ],
    ids=["joins", "tiny-asd", "zero-asd", "mid-thousand", "explicit"],
)
def test_large_sweeps_match_the_per_row_reference(
    n, values, geometries, joined_share, tmp_path, monkeypatch, capsys
):
    scenario = Scenario(n_elements=n, **values)
    argv = ["sweep", "--elements", str(n), *_scenario_flags(values)]
    if geometries is None:
        listed, restriction = [(n // cols, cols) for cols in range(1, n + 1)], None
    else:
        listed = geometries
        restriction = [ArrayGeometry(rows, cols) for rows, cols in geometries]
        argv += ["--geometries", _geometry_text(geometries)]
    want, error = _reference_sweep_text(scenario, listed, restriction)
    assert error == ""
    real = cli._flat_text
    joined = []  # the length of each block written as one join
    decided = []  # the length of each block the two-point decision saw

    def flat_text(dbi, block):
        text = real(dbi, block)
        decided.append(len(block))
        if text is not None:
            joined.append(len(block))
        return text

    monkeypatch.setattr(cli, "_flat_text", flat_text)
    out = tmp_path / "rows.csv"
    assert cli.main(argv) == 0
    _assert_same_text(capsys.readouterr().out, want, "stdout")
    assert cli.main([*argv, "--out", str(out)]) == 0
    _assert_same_text(out.read_text(encoding="utf-8"), want, "--out")
    if joined_share == 0.0:
        assert max(joined, default=1) == 1
    elif joined_share is not None:
        assert sum(joined) > 2 * joined_share * n  # two sweeps of n rows
        # gains computed: two per decision and one per row not joined; the
        # joined rows cost two per block, under n / 100 of them in all
        assert 2 * len(joined) < 2 * n / 100
        assert 2 * len(decided) + 2 * n - sum(joined) < 2 * n / 50
    if geometries is not None:
        # a listed geometry is a run of one column: one line, no decision
        assert decided == []


def _run_dbi(element, rows, spread):
    # the run's cols -> dBi function, as the sweep writer hands it to _flat_text
    return lambda cols: linear_to_db(effective_gain_value(element, rows, cols, spread))


def _flat_inputs(dbi):
    # a run whose gain is 10**(dbi / 10) to within an ulp at every cols from
    # 1,000 on: asd = 1 swamps bw_azim / cols
    element = ElementPattern(2.0 / 10.0 ** (dbi / 10.0), 1e-300)
    return _run_dbi(element, 1, AngularSpread(zsd_rad=0.0, asd_rad=1.0))


def test_flat_text_needs_both_ends_clear_of_a_change_of_text():
    # the join rests on "%.6f" being correctly rounded, so that it never
    # falls as its input rises
    assert sys.float_repr_style == "short"
    one, block = range(1000, 1001), range(1000, 2000)
    assert cli._flat_text(_flat_inputs(12.5), block) == "12.500000"
    assert cli._flat_text(_flat_inputs(-0.25), one) == "-0.250000"
    # ends that print alike but lie within the margin of a rounding boundary
    boundary = 12.3456785
    for offset in (-5e-10, 5e-10):
        dbi = _flat_inputs(boundary + offset)
        assert "%.6f" % dbi(1000) in ("12.345678", "12.345679")
        assert cli._flat_text(dbi, block) is None
    assert cli._flat_text(_flat_inputs(boundary + 5e-9), block) == "12.345679"
    assert cli._flat_text(_flat_inputs(boundary - 5e-9), block) == "12.345678"
    # ends about 0 dBi, where the text may carry a minus sign or not
    for dbi in (-5e-10, 0.0, 5e-10):
        assert cli._flat_text(_flat_inputs(dbi), one) is None
    assert cli._flat_text(_flat_inputs(-1e-7), one) == "-0.000000"
    assert cli._flat_text(_flat_inputs(1e-7), one) == "0.000000"
    # ends that print differently: no azimuth spread, and the gain doubles
    no_spread = AngularSpread(zsd_rad=0.0, asd_rad=0.0)
    assert cli._flat_text(_run_dbi(ElementPattern(2.0, 1.0), 1, no_spread), block) is None


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def test_flat_blocks_print_one_text_row_by_row():
    # extreme elements and spreads and blocks up to cols = 10**9: every block
    # that the two-point decision accepts prints its text at every cols
    rng = random.Random(20261019)
    accepted = refused = 0
    for _ in range(3000):
        element = ElementPattern(
            math.radians(_log_uniform(rng, 0.01, 200.0)),
            math.radians(_log_uniform(rng, 0.01, 200.0)),
        )
        spread = AngularSpread(
            zsd_rad=math.radians(_log_uniform(rng, 1e-6, 80.0)),
            asd_rad=math.radians(_log_uniform(rng, 1e-6, 80.0)),
        )
        rows = round(_log_uniform(rng, 1, 1e6))
        base = 1000 * round(_log_uniform(rng, 1, 1e6))
        start = base + rng.randrange(1000)
        block = range(start, rng.randint(start + 1, base + 1000))
        text = cli._flat_text(_run_dbi(element, rows, spread), block)
        if text is None:
            refused += 1
            continue
        accepted += 1
        printed = {
            "%.6f" % linear_to_db(effective_gain_value(element, rows, cols, spread))
            for cols in block
        }
        assert printed == {text}, (element, spread, rows, block)
    assert accepted > 600 and refused > 600


def test_sweep_output_matches_the_golden_file():
    # the script and file that the stdlib CI job diffs on each supported Python
    result = subprocess.run(
        ["sh", str(_DATA / "sweep_golden.sh"), sys.executable], capture_output=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (_DATA / "sweep_golden.csv").read_bytes()


# --- estimate -----------------------------------------------------------

def _forward_csv(path, zsd_sq, asd_sq, shapes=((4, 4), (4, 8), (4, 16), (8, 4), (16, 4))):
    element = element_pattern_from_gain(5.0)
    spread = AngularSpread(
        zsd_rad=math.sqrt(zsd_sq) * element.bw_elev_rad,
        asd_rad=math.sqrt(asd_sq) * element.bw_azim_rad,
    )
    gains = [
        effective_gain(element, ArrayGeometry(r, c), spread).effective_gain_linear
        for r, c in shapes
    ]
    lines = ["rows,cols,tx_power_dbm,rx_power_dbm"]
    for (r, c), gain in zip(shapes, gains):
        rx = -70.0 + 10.0 * math.log10(gain / gains[0])
        lines.append(f"{r},{c},10.0,{rx!r}")
    path.write_text("\n".join(lines) + "\n")


def test_estimate_round_trip(tmp_path):
    csv = tmp_path / "m.csv"
    _forward_csv(csv, zsd_sq=0.0009, asd_sq=0.04)
    result = _run(
        "estimate", str(csv), "--element-gain-dbi", "5", "--predict", "16", "16",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert lines[0] == "measurements: 5 (baseline index 0)"
    assert "asd pairs: 3 used, 0 skipped" in lines
    assert "zsd pairs: 3 used, 0 skipped" in lines
    assert "normalized asd squared: 0.040000" in lines
    assert "normalized zsd squared: 0.000900" in lines
    assert "absolute asd: 9.113131 deg" in lines
    assert "absolute zsd: 1.366970 deg" in lines
    assert "predicted gain 16x16 vs baseline: 7.442402 dB" in lines


def test_estimate_aperture_scaled_gains(tmp_path):
    csv = tmp_path / "flat.csv"
    lines = ["rows,cols,tx_power_dbm,rx_power_dbm"]
    for r, c in ((4, 4), (4, 8), (8, 4), (8, 8)):
        rx = -70.0 + 10.0 * math.log10(r * c / 16.0)
        lines.append(f"{r},{c},10.0,{rx!r}")
    csv.write_text("\n".join(lines) + "\n")
    result = _run("estimate", str(csv))
    assert result.returncode == 0
    assert "normalized asd squared: 0.000000" in _lines(result)
    assert "normalized zsd squared: 0.000000" in _lines(result)


def test_estimate_in_process_calls_do_not_share_flags(tmp_path, capsys):
    # main builds its parser once per process; a flag given to one call
    # must not become the next call's default
    csv = tmp_path / "m.csv"
    _forward_csv(csv, zsd_sq=0.0009, asd_sq=0.04)
    calls = [["estimate", str(csv), "--baseline-index", "1"], ["estimate", str(csv)]]
    for argv in calls:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == _run(*argv).stdout


def test_estimate_prints_a_prediction_that_rounds_to_zero_unsigned(tmp_path):
    csv = tmp_path / "m.csv"
    csv.write_text(
        "rows,cols,tx_power_dbm,rx_power_dbm\n8,8,0.0,-70.000000000000\n"
        "8,4,0.0,-70.000001017877\n4,8,0.0,-70.000001017877\n"
    )
    result = _run("estimate", str(csv), "--predict", "8", "7")
    assert result.returncode == 0
    assert _lines(result)[-1] == "predicted gain 8x7 vs baseline: 0.000000 dB"


def test_estimate_unidentifiable_axis(tmp_path):
    csv = tmp_path / "two.csv"
    csv.write_text("rows,cols,tx_power_dbm,rx_power_dbm\n4,4,10.0,-70.0\n4,8,10.0,-67.0\n")
    err = _refused(_run("estimate", str(csv)), "estimate")
    assert err.startswith("error[estimate]: ZSD unidentifiable")


@pytest.mark.parametrize(
    "middle",
    [("4,8,10.0,4000",), ("4,8,10.0,1530",), ("4,8,10.0,1430", "4,16,10.0,-1570")],
    ids=["gain-overflows", "squared-ratio-overflows", "sums-overflow"],
)
def test_estimate_gains_beyond_float_range_fail_with_one_line(tmp_path, middle):
    # 10 ** 407 and (1e160 / 1) ** 2 overflowed to error[internal], and sums
    # of inf and -inf printed "normalized asd squared: nan" with exit 0
    csv = tmp_path / "m.csv"
    rows = ["rows,cols,tx_power_dbm,rx_power_dbm", "4,4,10.0,-70.0", *middle, "8,4,10.0,-67.1"]
    csv.write_text("\n".join(rows) + "\n")
    _refused(_run("estimate", str(csv), "--predict", "8", "8"), "input")


# gains in the aperture law 4x4 : 4x8 : 8x4 = 1 : 2 : 2, a zero-spread estimate
_ZERO_SPREAD = ["4,4,0.0,-70.0", "4,8,0.0,-66.98970004336019", "8,4,0.0,-66.98970004336019"]


@pytest.mark.parametrize(
    "middle, predict",
    [
        ([f"4,{10**200},0.0,-60.0"], []),
        ([], ["--predict", str(10**400), "1"]),
        ([], ["--predict", str(10**200), str(10**200)]),
        ([f"{10**400},1,0.0,-70.0"], ["--baseline-index", "3", "--predict", "2", "2"]),
        ([f"{10**200},{10**200},0.0,-70.0"], ["--baseline-index", "3", "--predict", "2", "2"]),
        # a nonzero azimuth spread: the target's subnormal width, its count
        # and its gain named the optimizer's n_elements or a unit element
        (["4,16,0.0,-64.5"], ["--predict", "5", str(10**307)]),
        (["4,16,0.0,-64.5"], ["--predict", str(10**400), "1"]),
        (["4,16,0.0,-64.5"], ["--predict", "9", str(10**307)]),
    ],
    ids=[
        "csv-cols-squared", "predict-count", "predict-zero-spread-widths",
        "baseline-count", "baseline-zero-spread-widths",
        "predict-subnormal-width", "predict-count-with-spread", "predict-gain-overflows",
    ],
)
def test_estimate_counts_beyond_float_range_fail_with_one_line(tmp_path, middle, predict):
    # the first five printed error[internal] and exited 2: a squared count and
    # a count that do not convert to float, and two widths whose product is
    # 0, of the target or of the baseline
    csv = tmp_path / "m.csv"
    rows = ["rows,cols,tx_power_dbm,rx_power_dbm", *_ZERO_SPREAD, *middle]
    csv.write_text("\n".join(rows) + "\n")
    err = _refused(_run("estimate", str(csv), *predict), "input")
    assert "n_elements" not in err and "bw_elev_rad" not in err
    if predict:
        # the larger of the target and the baseline is named
        named = middle[0].split(",")[:2] if "--baseline-index" in predict else predict[-2:]
        assert err == f"error[input]: gain of the {'x'.join(named)} sub-array leaves the float range\n"


def test_estimate_refuses_more_measurements_than_it_fits(tmp_path):
    # the pairs grow as the square of the rows, so past 1,000 rows none is formed
    csv = tmp_path / "m.csv"
    rows = [f"4,{cols},0.0,-70.0" for cols in range(1, 1002)]
    csv.write_text("\n".join(["rows,cols,tx_power_dbm,rx_power_dbm", *rows]) + "\n")
    err = _refused(_run("estimate", str(csv)), "input")
    assert err == "error[input]: at most 1000 measurements can be fitted, got 1001\n"


def test_estimate_output_matches_the_golden_file():
    # the script and file that the stdlib CI job diffs on each supported Python
    result = subprocess.run(
        ["sh", str(_DATA / "estimate_golden.sh"), sys.executable], capture_output=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (_DATA / "estimate_golden.txt").read_bytes()


# --- validate -----------------------------------------------------------

def test_validate_reference_scenario_passes():
    args = (
        "validate", "--element-gain-dbi", "8", "--rows", "8", "--cols", "16",
        "--asd-deg", "16", "--zsd-deg", "1", "--realizations", "4000",
    )
    result = _run(*args)
    assert result.returncode == 0
    lines = _lines(result)
    assert lines[0] == "geometry: 8 x 16"
    assert lines[1].startswith("analytic gain: 19.91")
    assert lines[-1] == "PASS"

    again = _run(*args, binary=True)
    assert again.stdout == result.stdout.encode()


def test_validate_zero_spread_is_exact():
    result = _run(
        "validate", "--element-gain-dbi", "5", "--rows", "4", "--cols", "4",
        "--asd-deg", "0", "--zsd-deg", "0", "--realizations", "200",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert any("delta 0.000000" in line for line in lines)
    assert any("(z 0.000000, limit 3)" in line for line in lines)
    assert lines[-1] == "PASS"


def test_validate_output_matches_the_golden_file():
    # the last case's delta is about -7e-15 dB, which printed as -0.000000
    result = subprocess.run(
        ["sh", str(_DATA / "validate_golden.sh"), sys.executable], capture_output=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (_DATA / "validate_golden.txt").read_bytes()
    assert b"-0.000000" not in result.stdout


def test_validate_prints_gains_that_round_to_zero_unsigned():
    result = _run(
        "validate", *_UNIT_ELEMENT, "--rows", "1", "--cols", "1", "--asd-deg", "0.001",
        "--realizations", "200",
    )
    assert result.returncode == 0
    lines = _lines(result)
    assert lines[1] == "analytic gain: 0.000000 dBi"
    assert lines[2].startswith("convolution gain: 0.000000 dBi (delta 0.000000 dB")
    assert lines[3].startswith("monte-carlo gain: 0.000000 dBi +/- 0.000000 dB")
    assert "-0.000000" not in result.stdout


@pytest.mark.parametrize(
    "args, needed",
    [
        # 2.4 GiB an elevation array: this used to allocate, or fail as
        # error[internal] where memory ran out
        (("--element-gain-dbi", "5", "--rows", "10000000", "--cols", "1"), "316027492"),
    ],
    ids=["elevation-samples"],
)
def test_validate_grid_past_the_cap_is_a_typed_error(args, needed):
    assert _refused(_run("validate", *args), "oracle") == (
        f"error[oracle]: grid too large: elevation needs {needed} samples, "
        "more than the 2000000 allowed per axis\n"
    )


def test_validate_paths_past_one_chunk_is_a_typed_error():
    # a chunk holds whole realizations: this asked numpy for 2.24 GiB at once
    result = _run(
        "validate", "--element-gain-dbi", "5", "--rows", "4", "--cols", "4",
        "--paths", "100000000", "--realizations", "1",
    )
    assert _refused(result, "input") == (
        "error[input]: n_paths must be at most 262144 (one Monte-Carlo chunk), got 100000000\n"
    )


def test_validate_one_realization_is_a_typed_error():
    # one realization has no standard error, so no verdict can be printed
    result = _run(
        "validate", "--element-gain-dbi", "5", "--rows", "1", "--cols", "1",
        "--asd-deg", "1", "--realizations", "1",
    )
    assert _refused(result, "input") == "error[input]: n_realizations must be at least 2, got 1\n"


def test_validate_refuses_runs_of_days():
    # 2 * 10**10 draws ran until killed; now refused before any is drawn
    result = _run(
        "validate", "--element-gain-dbi", "5", "--rows", "4", "--cols", "4",
        "--asd-deg", "1", "--realizations", "1000000000",
    )
    assert _refused(result, "input") == (
        "error[input]: n_paths * n_realizations must be at most 33554432, got 20 * 1000000000\n"
    )


def test_validate_requires_geometry():
    err = _refused(_run("validate", "--element-gain-dbi", "5"), "scenario")
    assert err.startswith("error[scenario]: validate needs a geometry")


# --- scenario files and error paths ------------------------------------

def test_scenario_file_with_flag_overrides(tmp_path):
    scenario = tmp_path / "case.txt"
    scenario.write_text(
        "element_gain_dbi = 5.0\n"
        "n_elements = 256\n"
        "asd_deg = 22.0\n"
        "zsd_deg = 5.0\n"
    )
    plain = _run("optimize", "--scenario", str(scenario))
    assert plain.returncode == 0
    assert "integer optimum: 32 x 8 (256 elements)" in _lines(plain)

    overridden = _run(
        "optimize", "--scenario", str(scenario), "--asd-deg", "14", "--zsd-deg", "0.6",
    )
    assert overridden.returncode == 0
    assert "integer optimum: 85 x 3 (255 elements)" in _lines(overridden)


def test_usage_errors():
    for args in (("optimize", "--no-such-flag"), ("frobnicate",)):
        _refused(_run(*args), "usage")


def test_io_error():
    _refused(_run("estimate", "/no/such/file.csv"), "io")


def test_measurement_error_names_the_line(tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("rows,cols,tx_power_dbm,rx_power_dbm\n4,4,10.0\n")
    assert ":2:" in _refused(_run("estimate", str(csv)), "measurements")


def test_eirp_error():
    result = _run("optimize", "--eirp-dbm", "0", "--element-power-dbm", "10", "--element-gain-dbi", "5")
    assert _refused(result, "eirp").startswith("error[eirp]: EIRP below single-element emission")


def test_budget_beyond_the_scan_is_an_input_error():
    # both budgets fit a float but are far past what a walk over every
    # geometry can cover (10**249 through the EIRP cap); they scanned without end
    spread = ("--element-gain-dbi", "5", "--asd-deg", "22", "--zsd-deg", "5")
    for args in (
        ("optimize", "--eirp-dbm", "5000", "--element-power-dbm", "10", *spread),
        ("optimize", "--elements", "1000000000000000", *spread),
        ("sweep", "--elements", "1000000000001", *spread),
    ):
        result = subprocess.run(_CMD + list(args), capture_output=True, text=True, timeout=10)
        assert _refused(result, "input").startswith(
            "error[input]: n_elements must be at most 1000000000000 to scan every geometry, got "
        )
    # the largest budget scanned still answers
    largest = _run("optimize", "--elements", "1000000000000", *spread)
    assert largest.returncode == 0, largest.stderr
    assert _lines(largest)[0] == "budget: 1000000000000 elements"


def test_budget_beyond_float_range_is_an_input_error():
    for command in ("optimize", "sweep"):
        result = _run(
            command, "--elements", "1" + "0" * 400, "--element-gain-dbi", "5",
            "--asd-deg", "22", "--zsd-deg", "5",
        )
        assert _refused(result, "input").startswith("error[input]: n_elements must be at most ")


_TINY_WIDTHS = ("--bw-elev-deg", "1e-200", "--bw-azim-deg", "1e-200")
_HUGE = "1" + "0" * 24
# rows = 1 widens elevation so far that the 1 x 1 gain underflows to 0
_WIDE_BEAM = (
    "--elements", "5000", "--bw-elev-deg", "1e150", "--bw-azim-deg", "1",
    "--asd-deg", "1e162", "--zsd-deg", "0",
)


@pytest.mark.parametrize(
    "args, code",
    [
        # N * G_e = 1e9 * 1e300 overflows; this printed "inf dBi" and exited 0
        (("optimize", "--element-gain-dbi", "3000", "--elements", "1000000000"), "input"),
        # the element's own gain 2 / (bw_e * bw_a) overflows
        (("optimize", *_TINY_WIDTHS, "--elements", "4"), "element"),
        (("validate", *_TINY_WIDTHS, "--rows", "2", "--cols", "2"), "element"),
        # N * G_e overflows where a nominal width underflows to zero
        (
            ("optimize", "--bw-elev-deg", "1e-300", "--bw-azim-deg", "1", "--elements", _HUGE,
             "--asd-deg", "1", "--zsd-deg", "0"),
            "input",
        ),
        (
            ("validate", "--bw-elev-deg", "1e-300", "--bw-azim-deg", "1", "--rows", _HUGE,
             "--cols", "1", "--asd-deg", "1", "--zsd-deg", "1"),
            "input",
        ),
        # N * G_e is finite, but bw_elev / N underflows to 0 where zsd = 0,
        # which zeroed the scan's gain denominator (error[internal] before)
        (
            ("optimize", "--bw-elev-deg", "1e-300", "--bw-azim-deg", "1e300", "--elements",
             "1" + "0" * 30, "--asd-deg", "1", "--zsd-deg", "0"),
            "element",
        ),
        (
            ("sweep", "--bw-elev-deg", "1e-300", "--bw-azim-deg", "1e300", "--elements",
             "1" + "0" * 30, "--asd-deg", "1", "--zsd-deg", "0",
             "--geometries", "1" + "0" * 30 + "x1"),
            "element",
        ),
        # 10 ** (headroom / 20) overflows in max_elements_for_eirp
        (
            ("optimize", "--elements", "4", "--element-gain-dbi", "5", "--eirp-dbm", "1e9",
             "--element-power-dbm", "0"),
            "input",
        ),
        # bw_azim / cols is subnormal, and its rounding lifted the gain past
        # the bound: error[input] "effective gain exceeds the upper bound" before
        (
            ("validate", "--bw-elev-deg", "1e300", "--bw-azim-deg", "1e-300", "--rows", "1",
             "--cols", "1" + "0" * 20),
            "element",
        ),
        (
            ("optimize", "--bw-elev-deg", "1e300", "--bw-azim-deg", "1e-300", "--elements",
             "1" + "0" * 20, "--allowed-geometries", "1x1" + "0" * 20),
            "element",
        ),
        # a subnormal azimuth width at one element, whose grid count
        # overflowed to inf (error[internal], then error[oracle] before)
        (
            ("validate", "--bw-elev-deg", "1e300", "--bw-azim-deg", "1e-318", "--rows", "1",
             "--cols", "1"),
            "element",
        ),
        # widths that leave the 1 x 1 gain at zero: optimize printed
        # -3044.837547 dBi, and sweep and sweep --out failed after 2,500 rows
        *(
            ((command, *_WIDE_BEAM, *extra), "input")
            for command, extra in (("optimize", ()), ("sweep", ()), ("sweep", ("--out", "x.csv")))
        ),
    ],
    ids=[
        "huge-array-gain",
        "tiny-widths-optimize",
        "tiny-widths-validate",
        "huge-budget-zero-zsd",
        "huge-rows-validate",
        "underflowing-width-optimize",
        "underflowing-width-sweep",
        "eirp-headroom",
        "subnormal-width-validate",
        "subnormal-width-optimize",
        "azimuth-overflow",
        "zero-gain-optimize",
        "zero-gain-sweep",
        "zero-gain-sweep-out",
    ],
)
def test_gain_beyond_float_range_is_a_typed_error(args, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _refused(_run(*args), code)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["optimize", "sweep"])
@pytest.mark.parametrize(
    "element, asd, zsd, winner",
    [
        # closed-form rows underflows to 0 (error[internal] "float division by
        # zero", later error[spread]) or overflows to inf (error[spread])
        (("--element-gain-dbi", "5"), "1e-320", "1e300", "1,256"),
        (("--element-gain-dbi", "5"), "1e300", "1e-300", "256,1"),
        # bw_azim * zsd underflows to 0 (error[internal] "float division by zero")
        (("--bw-elev-deg", "10", "--bw-azim-deg", "10"), "20", "3e-322", "256,1"),
    ],
    ids=["rows-underflow", "rows-overflow", "denominator-underflow"],
)
def test_extreme_spread_ratio_is_answered(element, asd, zsd, winner, command):
    # the scan needs no closed form: it starts at the end of 1..N the ratio leans to
    result = _run(command, "--elements", "256", *element, "--asd-deg", asd, "--zsd-deg", zsd)
    assert (result.returncode, result.stderr) == (0, "")
    rows, cols = winner.split(",")
    if command == "optimize":
        assert "continuous optimum: none (degenerate spread)" in _lines(result)
        assert f"integer optimum: {rows} x {cols} (256 elements)" in _lines(result)
    else:
        flagged = [line for line in _lines(result) if line.endswith(",1")]
        assert len(flagged) == 1 and flagged[0].startswith(winner + ",")


def test_subnormal_nominal_width_is_named():
    result = _run(
        "optimize", "--bw-elev-deg", "1e300", "--bw-azim-deg", "1e-300", "--elements",
        "1" + "0" * 20, "--allowed-geometries", "1x1" + "0" * 20,
    )
    assert _refused(result, "element") == (
        "error[element]: degenerate element: nominal bw_azim_rad = 1.73e-322 is subnormal\n"
    )


def test_estimate_rejects_widths_beyond_float_range(tmp_path):
    csv = tmp_path / "m.csv"
    _forward_csv(csv, zsd_sq=0.0009, asd_sq=0.04)
    _refused(_run("estimate", str(csv), *_TINY_WIDTHS), "element")


def test_scenario_error():
    err = _refused(_run("optimize", "--elements", "16"), "scenario")
    assert err.startswith("error[scenario]: element description missing")


def test_estimate_needs_a_whole_element_description(tmp_path):
    csv = tmp_path / "m.csv"
    _forward_csv(csv, zsd_sq=0.0009, asd_sq=0.04)
    err = _refused(_run("estimate", str(csv), "--bw-elev-deg", "20"), "scenario")
    assert err.startswith("error[scenario]: element description missing")


def test_help_exits_zero():
    result = _run("--help")
    assert result.returncode == 0
    for name in ("optimize", "sweep", "estimate", "validate"):
        assert name in result.stdout


# --- imports ------------------------------------------------------------

# runs the CLI in a child where any import of numpy fails
_WITHOUT_NUMPY = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "from arraygain import cli\n"
    "raise SystemExit(cli.main(sys.argv[1:]))\n"
)


def _bare_child(code: str) -> subprocess.CompletedProcess:
    # -S: no site hooks, which can preload modules (typing, for one)
    return subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
    )


def test_cli_import_leaves_numpy_unloaded():
    result = _bare_child(
        "import sys, arraygain.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'typing', 'numpy'} & set(sys.modules)))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize(
    "args, unloaded",
    [
        (("optimize", "--elements", "256", "--element-gain-dbi", "5", "--asd-deg", "22",
          "--zsd-deg", "5"), "arraygain.estimate"),
        (("sweep", "--elements", "64", "--element-gain-dbi", "5", "--asd-deg", "14",
          "--zsd-deg", "0.6"), "arraygain.estimate"),
        (("estimate", "CSV", "--element-gain-dbi", "5", "--predict", "16", "16"),
         "arraygain.optimize"),
    ],
    ids=["optimize", "sweep", "estimate"],
)
def test_subcommands_load_only_what_they_run(tmp_path, args, unloaded):
    csv = tmp_path / "m.csv"
    _forward_csv(csv, zsd_sq=0.0009, asd_sq=0.04)
    args = [str(csv) if arg == "CSV" else arg for arg in args]
    result = _bare_child(
        "import io, sys, contextlib\n"
        "from arraygain import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main({list(args)!r})\n"
        f"print(status, {unloaded!r} in sys.modules, 'arraygain.oracle' in sys.modules)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0 False False\n"


def test_planning_subcommands_run_without_numpy(tmp_path):
    csv = tmp_path / "m.csv"
    _forward_csv(csv, zsd_sq=0.0009, asd_sq=0.04)
    for args in (
        ("optimize", "--elements", "256", "--element-gain-dbi", "5",
         "--asd-deg", "22", "--zsd-deg", "5"),
        ("sweep", "--elements", "64", "--element-gain-dbi", "5",
         "--asd-deg", "14", "--zsd-deg", "0.6", "--geometries", "all"),
        ("estimate", str(csv), "--element-gain-dbi", "5", "--predict", "16", "16"),
    ):
        normal = _run(*args, binary=True)
        bare = subprocess.run(
            [sys.executable, "-c", _WITHOUT_NUMPY, *args], capture_output=True, timeout=300
        )
        assert normal.returncode == 0
        assert bare.returncode == 0, bare.stderr
        assert bare.stdout == normal.stdout

    # the child really has no numpy: validate, which needs it, fails there
    # with one typed line naming the extra that provides it
    validate = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, "validate", "--element-gain-dbi", "5",
         "--rows", "4", "--cols", "4"],
        capture_output=True, text=True, timeout=300,
    )
    err = _refused(validate, "oracle")
    assert err.startswith("error[oracle]: validate needs numpy")
    assert "pip install 'arraygain[oracle]'" in err


def test_oracle_names_resolve_lazily():
    import arraygain
    from arraygain import oracle

    # every public name is its home module's object; the oracle's too
    for name in arraygain.__all__:
        value = getattr(arraygain, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("arraygain.")
        assert getattr(home, name) is value
    assert arraygain.grid_for is oracle.grid_for and arraygain.McConfig is oracle.McConfig
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(arraygain, "no_such_name")
    # and importing the package loads none of those modules
    result = _bare_child(
        "import sys, arraygain\n"
        "print(sorted(name for name in sys.modules if name.startswith('arraygain.')))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
