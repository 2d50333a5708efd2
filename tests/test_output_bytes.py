"""Analytic CLI output stays byte-identical across refactors.

The expected files under ``tests/expected_output/`` hold the exact stdout of
the optimizer and large-n age commands, and the four preset CSVs at seed 7.
These paths compute with Python ``math`` only (no numpy ufuncs), so their
bytes do not depend on the platform's SIMD code.  A change that moves them
on purpose regenerates the files and says why:

    PYTHONPATH=src python tests/test_output_bytes.py
"""
import contextlib
import io
import os
import sys

import pytest

from coded_aoi.cli import PRESETS, main

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_output")
CLI_FILE = "analytic_cli.txt"
UNIT = ["--lambda", "1", "--c", "1", "--mu", "1"]
SEED = "7"


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


def _cli_transcript() -> str:
    """Each command as a ``$ coded-aoi ...`` line followed by its stdout."""
    parts = []
    for argv in _commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        parts.append(f"$ coded-aoi {' '.join(argv)}\n# exit {code}\n{buf.getvalue()}")
    return "".join(parts)


def _write_preset(preset: str, path: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["sweep", "--preset", preset, "--seed", SEED, "--out", path])
    if code != 0:
        raise RuntimeError(f"sweep --preset {preset} exited {code}")


def _read(name: str) -> bytes:
    with open(os.path.join(EXPECTED, name), "rb") as fh:
        return fh.read()


def test_analytic_cli_stdout_is_byte_identical():
    assert _cli_transcript().encode() == _read(CLI_FILE)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_csv_is_byte_identical(tmp_path, preset):
    path = tmp_path / f"{preset}.csv"
    _write_preset(preset, str(path))
    assert path.read_bytes() == _read(f"{preset}.csv")


if __name__ == "__main__":
    os.makedirs(EXPECTED, exist_ok=True)
    with open(os.path.join(EXPECTED, CLI_FILE), "w", newline="") as fh:
        fh.write(_cli_transcript())
    for name in sorted(PRESETS):
        _write_preset(name, os.path.join(EXPECTED, f"{name}.csv"))
    print(f"wrote {len(PRESETS) + 1} files to {EXPECTED}", file=sys.stderr)
