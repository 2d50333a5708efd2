"""Seeded CLI output stays byte-identical across refactors.

The expected files under ``tests/expected_output/`` hold the exact stdout of
the optimizer and large-n age commands, and the four preset CSVs at seed 7.
These paths compute with Python ``math`` only (no numpy ufuncs), so their
bytes do not depend on the platform's SIMD code.  They also hold the stdout
of seeded ``simulate`` commands over every scheme, mode, policy and
replication count, and one sweep CSV with a simulation overlay.  Those go
through numpy's random generators and its log/log1p ufuncs, so a numpy build
that rounds these differently moves their last digits.  A change that moves
any file on purpose regenerates the files and says why:

    PYTHONPATH=src python tests/test_output_bytes.py

The table of seeded library calls in ``fingerprints.py`` is checked here too.
"""
import contextlib
import io
import os
import sys

import pytest

from coded_aoi.cli import PRESETS, main
from fingerprints import FILE as FINGERPRINT_FILE, fingerprints

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_output")
CLI_FILE = "analytic_cli.txt"
SIM_FILE = "simulate_cli.txt"
OVERLAY_FILE = "sweep_mds_overlay.csv"
UNIT = ["--lambda", "1", "--c", "1", "--mu", "1"]
SEED = "7"
OVERLAY = ["sweep", "--scheme", "mds", "--n", "20", "--k-range", "1:19:3",
           "--cycles", "200", "--seed", "3"] + UNIT


def _commands() -> list[list[str]]:
    cmds = []
    for n in (100, 1000, 10_000):
        cmds.append(["optimize", "--family", "rep", "--n", str(n)] + UNIT)
        cmds.append(["optimize", "--family", "mds", "--n", str(n)] + UNIT)
        for load in range(2, 6):
            cmds.append(["optimize", "--family", "mm-mds", "--n", str(n), "--l", str(load)]
                        + UNIT)
    for family in ("mds", "rep"):
        cmds.append(["optimize", "--family", family, "--n", "100",
                     "--lambda", "1", "--c", "1", "--mu", "0.5"])
    cmds.append(["age", "--scheme", "uncoded", "--n", "1000000"] + UNIT)
    cmds.append(["age", "--scheme", "mds", "--n", "1000000", "--k", "682000"] + UNIT)
    return cmds


def _sim_commands() -> list[list[str]]:
    """Every scheme, both modes and both policies, at one and three replications.

    The lambda = 20 runs make the full-stream pool drop arrivals.  The last
    command samples mm-mds at load 2 from many more rows than the others.
    """
    schemes = [["--scheme", "uncoded"], ["--scheme", "repetition", "--k", "5"],
               ["--scheme", "mds", "--k", "14"], ["--scheme", "mm-mds", "--k", "14", "--l", "1"],
               ["--scheme", "mm-mds", "--k", "30", "--l", "2"]]
    runs = [("fast", "zero-wait", "1"), ("full-stream", "return-triggered", "3"),
            ("full-stream", "zero-wait", "1"), ("fast", "return-triggered", "3"),
            ("full-stream", "zero-wait", "3"), ("fast", "zero-wait", "3")]
    cmds = []
    for i, (mode, policy, reps) in enumerate(runs):
        for j in (i % 5, (i + 2) % 5):
            lam = "20" if mode == "full-stream" and j % 2 else "1"
            cmds.append(["simulate", *schemes[j], "--n", "20", "--lambda", lam, "--c", "1",
                         "--mu", "1", "--cycles", "300", "--seed", str(11 + len(cmds)),
                         "--reps", reps, "--mode", mode, "--policy", policy])
    # 3001 window-sampler rows in one call, some of which widen their windows
    cmds.append(["simulate", "--scheme", "mm-mds", "--k", "1287", "--l", "2", "--n", "1000",
                 "--lambda", "1", "--c", "1", "--mu", "1", "--cycles", "3000", "--seed", "23",
                 "--reps", "1", "--mode", "fast", "--policy", "zero-wait"])
    return cmds


def _transcript(commands: list[list[str]]) -> str:
    """Each command as a ``$ coded-aoi ...`` line followed by its stdout."""
    parts = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        parts.append(f"$ coded-aoi {' '.join(argv)}\n# exit {code}\n{buf.getvalue()}")
    return "".join(parts)


def _write_sweep(argv: list[str], path: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", path])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


def _write_preset(preset: str, path: str) -> None:
    _write_sweep(["sweep", "--preset", preset, "--seed", SEED], path)


def _read(name: str) -> bytes:
    with open(os.path.join(EXPECTED, name), "rb") as fh:
        return fh.read()


def test_analytic_cli_stdout_is_byte_identical():
    assert _transcript(_commands()).encode() == _read(CLI_FILE)


def test_seeded_simulate_stdout_is_byte_identical():
    assert _transcript(_sim_commands()).encode() == _read(SIM_FILE)


def test_sweep_overlay_csv_is_byte_identical(tmp_path):
    path = tmp_path / OVERLAY_FILE
    _write_sweep(OVERLAY, str(path))
    assert path.read_bytes() == _read(OVERLAY_FILE)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_csv_is_byte_identical(tmp_path, preset):
    path = tmp_path / f"{preset}.csv"
    _write_preset(preset, str(path))
    assert path.read_bytes() == _read(f"{preset}.csv")


def test_seeded_fingerprints_match_the_table():
    # names every entry whose values moved, or that only one side holds
    with open(FINGERPRINT_FILE) as fh:
        want = dict(line.rsplit(" ", 1) for line in fh.read().splitlines())
    got = dict(line.rsplit(" ", 1) for line in fingerprints())
    moved = [name for name in {**want, **got} if got.get(name) != want.get(name)]
    assert not moved, f"fingerprints moved: {moved}"


if __name__ == "__main__":
    os.makedirs(EXPECTED, exist_ok=True)
    for name, commands in ((CLI_FILE, _commands()), (SIM_FILE, _sim_commands())):
        with open(os.path.join(EXPECTED, name), "w", newline="") as fh:
            fh.write(_transcript(commands))
    _write_sweep(OVERLAY, os.path.join(EXPECTED, OVERLAY_FILE))
    for name in sorted(PRESETS):
        _write_preset(name, os.path.join(EXPECTED, f"{name}.csv"))
    print(f"wrote {len(PRESETS) + 3} files to {EXPECTED}", file=sys.stderr)
