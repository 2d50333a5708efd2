"""CLI surface: commands, exit codes, CSV format, config file, determinism."""
import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import coded_aoi
from coded_aoi import MDS, Repetition, SystemParams, Uncoded, age_of, opt_mds, schemes
from coded_aoi import cli, levels, optimize, service_moments
from coded_aoi.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def value_of(text, key):
    for token in text.split():
        if token.startswith(key + "="):
            return token.split("=", 1)[1]
    raise KeyError(f"{key} not in output: {text!r}")


def read_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_age_mds_reference_point(capsys):
    code, out, _ = run_cli(capsys, "age", "--scheme", "mds", "--n", "100", "--k", "69",
                           "--lambda", "1", "--c", "1", "--mu", "1")
    assert code == 0
    expected = age_of(MDS(69), SystemParams(1, 1, 1, 100)).delta
    assert float(value_of(out, "age")) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_age_uncoded_single_worker(capsys):
    code, out, _ = run_cli(capsys, "age", "--scheme", "uncoded", "--n", "1",
                           "--lambda", "1", "--c", "1", "--mu", "1")
    assert code == 0
    assert float(value_of(out, "age")) == pytest.approx(29 / 6, rel=1e-12, abs=0.0)


def test_age_invalid_k_exits_2(capsys):
    code, _, err = run_cli(capsys, "age", "--scheme", "mds", "--n", "100", "--k", "100",
                           "--lambda", "1", "--c", "1", "--mu", "1")
    assert code == 2
    assert "k must be < n" in err


def test_age_missing_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "age", "--scheme", "mds", "--n", "100", "--k", "10")
    assert code == 2
    assert "--lambda" in err


def test_age_mm_mds_at_k_one_prints_the_mds_age(capsys):
    # alpha_1 * n rounds to 0 here, but the first result is a first-level
    # one: S is X_(1) under both schemes
    rates = ["--lambda", "1", "--c", "0.02", "--mu", "0.01"]
    code, out, err = run_cli(capsys, "age", "--scheme", "mm-mds", "--n", "20", "--k", "1",
                             "--l", "4", *rates)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "age=11.1894684385 es=5.02 es2=50.2004"
    assert run_cli(capsys, "age", "--scheme", "mds", "--n", "20", "--k", "1", *rates)[1] \
        .splitlines()[-1] == out.splitlines()[-1]


def test_age_mm_mds_where_k_over_n_load_rounds_to_one(capsys):
    # k / (n * load) is 1.0 in doubles; the first level is full, k1 = n
    code, out, err = run_cli(capsys, "age", "--scheme", "mm-mds", "--l", "2",
                             "--n", str(2**60), "--k", str(2**61 - 1),
                             "--lambda", "1", "--c", "1", "--mu", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "age=2 es=1.87202885565e-17 es2=3.50758581352e-34"


def test_optimize_mm_mds_skips_k_with_an_empty_first_level(capsys):
    code, out, err = run_cli(capsys, "optimize", "--family", "mm-mds", "--n", "20", "--l", "4",
                             "--lambda", "1", "--c", "0.02", "--mu", "0.01")
    assert (code, err) == (0, "")
    assert value_of(out, "k_star") == "3"
    assert value_of(out, "levels") == "1,1,1,0"


def test_optimize_mds(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--family", "mds", "--n", "100",
                           "--lambda", "1", "--c", "1", "--mu", "1")
    assert code == 0
    assert value_of(out, "k_star") == "69"


def test_optimize_repetition(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--family", "rep", "--n", "100",
                           "--lambda", "1", "--c", "1", "--mu", "0.5")
    assert code == 0
    assert value_of(out, "k_star") == "50"


def test_optimize_mm_mds_single_load_matches_mds(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--family", "mm-mds", "--l", "1",
                           "--n", "100", "--lambda", "1", "--c", "1", "--mu", "1")
    assert code == 0
    k_mm = int(value_of(out, "k_star"))
    k_mds = opt_mds(SystemParams(1, 1, 1, 100)).k_star
    assert abs(k_mm - k_mds) <= 1
    assert value_of(out, "levels") == str(k_mm)


def test_simulate_deterministic_and_close_to_analytic(capsys):
    argv = ["simulate", "--scheme", "mds", "--n", "100", "--k", "69",
            "--lambda", "1", "--c", "1", "--mu", "1",
            "--cycles", "50000", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    mean = float(value_of(out1, "mean_age"))
    expected = age_of(MDS(69), SystemParams(1, 1, 1, 100)).delta
    assert abs(mean - expected) / expected < 0.01


def test_simulate_requires_seed_and_cycles(capsys):
    base = ["simulate", "--scheme", "uncoded", "--n", "10",
            "--lambda", "1", "--c", "1", "--mu", "1"]
    code, _, err = run_cli(capsys, *base, "--cycles", "1000")
    assert code == 2 and "--seed" in err
    code, _, err = run_cli(capsys, *base, "--seed", "3")
    assert code == 2 and "--cycles" in err


def test_simulate_samples_nondivisor_repetition(capsys):
    # 40 groups of one replica and 20 of two: the simulated E[S] follows the
    # real split, 0.0778 at c = mu = 1, not the paper's model, 18.5% lower
    code, out, err = run_cli(capsys, "simulate", "--scheme", "repetition", "--n", "100",
                             "--k", "60", "--lambda", "1", "--c", "1", "--mu", "1",
                             "--cycles", "20000", "--seed", "1")
    assert code == 0, err
    es = float(value_of(out, "es"))
    se = math.sqrt((float(value_of(out, "es2")) - es * es) / 20_000)
    assert abs(es - 0.07784643800851959) < 4 * se
    assert service_moments(Repetition(60), SystemParams(1, 1, 1, 100)).es < es - 20 * se


def test_config_file_supplies_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scheme": "mds", "n": 100, "k": 69,
                               "lambda": 1.0, "c": 1.0, "mu": 1.0}))
    code, out, _ = run_cli(capsys, "age", "--config", str(cfg))
    assert code == 0
    p = SystemParams(1, 1, 1, 100)
    assert float(value_of(out, "age")) == pytest.approx(age_of(MDS(69), p).delta,
                                                        rel=1e-12, abs=0.0)
    # explicit flag wins over the config value
    code, out, _ = run_cli(capsys, "age", "--config", str(cfg), "--k", "58")
    assert float(value_of(out, "age")) == pytest.approx(age_of(MDS(58), p).delta,
                                                        rel=1e-12, abs=0.0)


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"scheme": "mds", "warp": 9}))
    code, _, err = run_cli(capsys, "age", "--config", str(cfg))
    assert code == 2
    assert "warp" in err


def test_config_string_number_is_parsed_like_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scheme": "mds", "n": "100", "k": 69,
                               "lambda": "1", "c": 1, "mu": 1.0}))
    code, out, _ = run_cli(capsys, "age", "--config", str(cfg))
    assert code == 0
    expected = run_cli(capsys, "age", "--scheme", "mds", "--n", "100", "--k", "69",
                       "--lambda", "1", "--c", "1", "--mu", "1")
    assert (code, out) == expected[:2]


@pytest.mark.parametrize("key, value", [("n", 1.5), ("lambda", "x"), ("n", True),
                                        ("k", None), ("scheme", "warp"), ("c", [1])])
def test_config_bad_value_exits_2(tmp_path, capsys, key, value):
    cfg = {"scheme": "mds", "n": 100, "k": 69, "lambda": 1.0, "c": 1.0, "mu": 1.0}
    cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "age", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text, message", [(None, "error: cannot read config"),
                                           ("{", "error: cannot read config"),
                                           ("[1]", "must hold a JSON object")])
def test_config_file_unreadable_or_not_an_object_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "run.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, "age", "--config", str(path))
    assert code == 2
    assert out == ""
    assert message in err


def test_sweep_requires_seed(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--preset", "fig4a",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "--seed" in err


def test_sweep_preset_fig4a(tmp_path, capsys):
    out_path = tmp_path / "fig4a.csv"
    code, _, _ = run_cli(capsys, "sweep", "--preset", "fig4a", "--seed", "1",
                         "--out", str(out_path))
    assert code == 0
    rows = read_rows(out_path)
    mds_rows = [r for r in rows if r["scheme"] == "mds"]
    rep_rows = [r for r in rows if r["scheme"] == "repetition"]
    unc_rows = [r for r in rows if r["scheme"] == "uncoded"]
    assert len(mds_rows) == 99 and len(rep_rows) == 100 and len(unc_rows) == 1
    best_mds = min(mds_rows, key=lambda r: float(r["age_analytic"]))
    assert best_mds["k"] == "69"
    best_rep = min(rep_rows, key=lambda r: float(r["age_analytic"]))
    assert best_rep["k"] == "100"
    assert float(unc_rows[0]["age_analytic"]) == pytest.approx(
        age_of(Uncoded(), SystemParams(1, 1, 1, 100)).delta, rel=1e-11, abs=0.0)
    # every repetition row can be simulated: the header holds no caveat
    header = [ln for ln in out_path.read_text().splitlines() if ln.startswith("#")]
    assert header == [f"# coded-aoi sweep v{coded_aoi.__version__}",
                      "# preset=fig4a seed=1 cycles=- reps=1"]


def test_sweep_preset_fig4b_optima(tmp_path, capsys):
    out_path = tmp_path / "fig4b.csv"
    assert run_cli(capsys, "sweep", "--preset", "fig4b", "--seed", "1",
                   "--out", str(out_path))[0] == 0
    rows = read_rows(out_path)
    best_mds = min((r for r in rows if r["scheme"] == "mds"),
                   key=lambda r: float(r["age_analytic"]))
    best_rep = min((r for r in rows if r["scheme"] == "repetition"),
                   key=lambda r: float(r["age_analytic"]))
    assert best_mds["k"] == "58"
    assert best_rep["k"] == "50"


def test_sweep_preset_fig5b_trend(tmp_path, capsys):
    out_path = tmp_path / "fig5b.csv"
    assert run_cli(capsys, "sweep", "--preset", "fig5b", "--seed", "1",
                   "--out", str(out_path))[0] == 0
    rows = read_rows(out_path)
    assert [r["l"] for r in rows] == ["1", "2", "3", "4", "5"]
    ages = [float(r["age_analytic"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(ages, ages[1:]))
    assert ages[1] < ages[0]
    assert all(r["k1"] != "" for r in rows)


def test_sweep_preset_fig5a_k_grows(tmp_path, capsys):
    out_path = tmp_path / "fig5a.csv"
    assert run_cli(capsys, "sweep", "--preset", "fig5a", "--seed", "1",
                   "--out", str(out_path))[0] == 0
    rows = read_rows(out_path)
    ks = [int(r["k"]) for r in rows]
    assert len(ks) == 10
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert all(int(r["k1"]) < int(r["k"]) for r in rows)


def test_sweep_preset_fig5a_solves_each_split_once(tmp_path, capsys, monkeypatch):
    # its ten optima and rows ask 66 times for 23 distinct level splits (an
    # optimum's own age is read from its search), and ten times for the
    # piece roots of one (load, mu_c)
    newton_runs, newton_root = [], levels.newton_root

    def counted(*args):
        newton_runs.append(args)
        return newton_root(*args)

    monkeypatch.setattr(levels, "newton_root", counted)
    levels._level_root.cache_clear()
    optimize._piece_roots.cache_clear()
    assert run_cli(capsys, "sweep", "--preset", "fig5a", "--seed", "7",
                   "--out", str(tmp_path / "fig5a.csv"))[0] == 0
    splits = levels._level_root.cache_info()
    assert len(newton_runs) == splits.misses == 23
    assert splits.hits + splits.misses == 66
    assert optimize._piece_roots.cache_info().misses == 1


@pytest.mark.parametrize("cycles, drawn", [([], []), (["--cycles", "40"], [19])])
def test_only_an_overlay_sweep_draws_row_seeds(tmp_path, capsys, monkeypatch, cycles, drawn):
    # no analytic row reads a seed; an overlay row simulates with its own
    class Recording:
        def __init__(self, seq):
            self.seq = seq

        def generate_state(self, n_words, dtype):
            calls.append(n_words)
            return self.seq.generate_state(n_words, dtype)

    calls = []
    root_seq = cli._root_seq
    monkeypatch.setattr(cli, "_root_seq", lambda seed: Recording(root_seq(seed)))
    assert run_cli(capsys, "sweep", "--scheme", "mds", "--n", "20", "--k-range", "1:19",
                   "--seed", "3", *cycles, "--out", str(tmp_path / "s.csv"), *UNIT)[0] == 0
    assert calls == drawn


def test_sweep_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "sweep", "--preset", "fig4b", "--seed", "5", "--out", str(a))
    run_cli(capsys, "sweep", "--preset", "fig4b", "--seed", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_overlay_reproducible_and_consistent(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--scheme", "mds", "--k-range", "60:80:10", "--n", "100",
            "--lambda", "1", "--c", "1", "--mu", "1", "--seed", "9",
            "--cycles", "20000"]
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    for row in read_rows(a):
        assert row["age_sim_mean"] != ""
        rel = abs(float(row["age_sim_mean"]) - float(row["age_analytic"]))
        assert rel / float(row["age_analytic"]) < 0.02


def test_sweep_custom_range_validation(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--scheme", "mds", "--k-range", "90:110",
                           "--n", "100", "--lambda", "1", "--c", "1", "--mu", "1",
                           "--seed", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "k must be < n" in err
    code, _, err = run_cli(capsys, "sweep", "--scheme", "mds", "--n", "100",
                           "--lambda", "1", "--c", "1", "--mu", "1", "--seed", "1")
    assert code == 2 and "range" in err
    for text, message in (("1:2:3:4", "must look like A:B"), ("a:b", "must hold integers")):
        code, _, err = run_cli(capsys, "sweep", "--scheme", "mds", "--k-range", text,
                               "--n", "100", "--lambda", "1", "--c", "1", "--mu", "1",
                               "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and message in err
    assert not (tmp_path / "x.csv").exists()


class LabelledMultiMDS(schemes.MultiMDS):
    """MultiMDS under a label of its own, as a subclass with another law would be."""

    label = "mm-labelled"


def test_scheme_subclass_runs_an_l_range_sweep_under_its_own_label(tmp_path, capsys,
                                                                   monkeypatch):
    # the CLI reads a scheme's label and fields off its class: --l-range
    # takes any class with a load field, and check errors name the label
    monkeypatch.setitem(cli._SCHEMES, LabelledMultiMDS.label, LabelledMultiMDS)
    cli._build_parser.cache_clear()  # --scheme takes its choices from _SCHEMES
    try:
        out = tmp_path / "l.csv"
        code, _, err = run_cli(capsys, "sweep", "--scheme", "mm-labelled", "--k", "15",
                               "--l-range", "1:3", "--n", "20", "--lambda", "1", "--c", "1",
                               "--mu", "1", "--seed", "1", "--out", str(out))
        assert code == 0, err
        rows = read_rows(out)
        assert [(r["scheme"], r["l"]) for r in rows] == [("mm-labelled", str(m)) for m in (1, 2, 3)]
        code, _, err = run_cli(capsys, "age", "--scheme", "mm-labelled", "--k", "40", "--l", "2",
                               "--n", "20", "--lambda", "1", "--c", "1", "--mu", "1")
        assert code == 2
        assert "mm-labelled: k must satisfy 1 <= k < n*load, got k=40" in err
    finally:
        cli._build_parser.cache_clear()


def test_l_range_needs_a_scheme_with_a_load(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--scheme", "mds", "--k", "5", "--l-range", "1:2",
                           "--n", "10", "--lambda", "1", "--c", "1", "--mu", "1", "--seed", "1",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "--l-range only applies to --scheme mm-mds" in err


def test_k_range_needs_a_scheme_with_a_k(tmp_path, capsys):
    # uncoded has no k to range over: refused before any row, not three
    # identical rows with an empty k column
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "sweep", "--scheme", "uncoded", "--k-range", "1:3",
                                "--n", "10", *UNIT, "--seed", "1", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: --k-range only applies to --scheme repetition/mds/mm-mds\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["lambd", "load"])
def test_config_takes_flag_names_not_internal_spellings(tmp_path, capsys, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scheme": "mm-mds", "n": 10, "k": 5, "lambda": 1, "l": 2,
                               "c": 1, "mu": 1, key: 2}))
    code, out, err = run_cli(capsys, "age", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: config key {key!r} is not a flag of this command\n"


@pytest.mark.parametrize("key, value", [("command", "optimize"), ("config", "other.json")])
def test_config_takes_only_the_commands_own_flags(tmp_path, capsys, key, value):
    # the namespace's own command and config attributes are not flags a
    # config file may set
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scheme": "mds", "n": 10, "k": 3, key: value}))
    code, out, err = run_cli(capsys, "age", "--config", str(cfg), *UNIT)
    assert (code, out) == (2, "")
    assert err == f"error: config key {key!r} is not a flag of this command\n"


@pytest.mark.parametrize("flag, value", [
    ("scheme", "mds"), ("k", "3"), ("l", "2"), ("k-range", "1:3"), ("n-range", "5:7"),
    ("l-range", "1:2"), ("lambda", "5"), ("c", "1"), ("mu", "1"), ("n", "10")])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_preset_refuses_custom_sweep_flags(tmp_path, capsys, flag, value, via_config):
    # a preset builds its own rows: a custom-sweep flag would be dropped
    # without a word, so it is refused before any file is written
    out = tmp_path / "p.csv"
    argv = ["sweep", "--preset", "fig4a", "--seed", "1", "--out", str(out)]
    if via_config:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({flag: value}))
        argv += ["--config", str(cfg)]
    else:
        argv += [f"--{flag}", value]
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err == f"error: --preset builds its own rows and takes no --{flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("axis, scheme, dropped", [
    (["--k-range", "1:3"], ["--scheme", "mm-mds", "--l", "2"], "--n"),
    (["--k-range", "1:3"], ["--scheme", "mm-mds", "--n", "10"], "--l"),
    (["--n-range", "5:7"], ["--scheme", "mds", "--k", "3"], "--lambda"),
    (["--n-range", "5:7"], ["--scheme", "mm-mds", "--k", "3"], "--l"),
    (["--l-range", "1:3"], ["--scheme", "mm-mds", "--n", "10"], "--k"),
    (["--l-range", "1:3"], ["--scheme", "mm-mds", "--k", "3"], "--n"),
], ids=["k-n", "k-l", "n-lambda", "n-l", "l-k", "l-n"])
def test_custom_sweep_names_its_missing_flag(tmp_path, capsys, axis, scheme, dropped):
    # each axis takes its own value from the range and every other field
    # from its flag, so a missing flag is named as it is spelled
    rates = [t for flag, value in zip(UNIT[::2], UNIT[1::2]) if flag != dropped
             for t in (flag, value)]
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "sweep", *axis, *scheme, *rates, "--seed", "1",
                                "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error: missing required flag {dropped}\n"
    assert not out.exists()


def test_csv_number_format_is_twelve_significant_digits(tmp_path, capsys):
    out_path = tmp_path / "f.csv"
    run_cli(capsys, "sweep", "--scheme", "mds", "--k-range", "69:69", "--n", "100",
            "--lambda", "1", "--c", "1", "--mu", "1", "--seed", "1",
            "--out", str(out_path))
    row = read_rows(out_path)[0]
    assert row["age_analytic"] == f"{age_of(MDS(69), SystemParams(1, 1, 1, 100)).delta:.12g}"
    assert "," not in row["age_analytic"]


@pytest.mark.parametrize("flag, value", [("--lambda", "nan"), ("--c", "inf")])
def test_age_non_finite_parameter_exits_2(capsys, flag, value):
    argv = {"--lambda": "1", "--c": "1", "--mu": "1"}
    argv[flag] = value
    code, out, err = run_cli(capsys, "age", "--scheme", "uncoded", "--n", "10",
                             *[t for kv in argv.items() for t in kv])
    assert code == 2
    assert out == ""
    assert "must be finite" in err


SIM_ARGS = ["simulate", "--scheme", "mds", "--k", "7", "--n", "10", "--lambda", "1",
            "--c", "1", "--mu", "1", "--cycles", "100", "--seed", "1"]
SWEEP_ARGS = ["sweep", "--scheme", "mds", "--k-range", "5:6", "--n", "10", "--lambda", "1",
              "--c", "1", "--mu", "1", "--cycles", "100", "--seed", "1"]


@pytest.mark.parametrize("argv", [SIM_ARGS, SWEEP_ARGS], ids=["simulate", "sweep"])
@pytest.mark.parametrize("reps", [0, -2])
def test_reps_below_one_flag_exits_2(tmp_path, monkeypatch, capsys, argv, reps):
    monkeypatch.chdir(tmp_path)  # a sweep would write sweep.csv here
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--reps", str(reps)])
    assert exc.value.code == 2
    assert f"argument --reps: must be >= 1, got {reps}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv", [SIM_ARGS, SWEEP_ARGS], ids=["simulate", "sweep"])
def test_reps_not_an_integer_flag_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--reps", "x"])
    assert exc.value.code == 2
    assert "argument --reps: invalid int value: 'x'" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, *SWEEP_ARGS, "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")


@pytest.mark.parametrize("argv", [SIM_ARGS, SWEEP_ARGS], ids=["simulate", "sweep"])
@pytest.mark.parametrize("reps", [0, -2])
def test_reps_below_one_in_config_exits_2(tmp_path, monkeypatch, capsys, argv, reps):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"reps": reps}))
    code, out, err = run_cli(capsys, *argv, "--config", "run.json")
    assert code == 2
    assert out == ""
    assert f"must be >= 1, got {reps}" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_absent_reps_runs_one_replication(capsys):
    code, out, _ = run_cli(capsys, *SIM_ARGS)
    assert code == 0
    assert value_of(out, "reps") == "1"


@pytest.mark.parametrize("argv, code", [
    # every row is valid, but the overlay needs at least 30 cycles
    (["--scheme", "mds", "--k-range", "1:9", "--n", "10", "--lambda", "1", "--c", "1",
      "--mu", "1", "--seed", "1", "--cycles", "10"], 2),
    # c * mu overflows to inf, so only the first level can fill, and the
    # rows need load * alpha >= 1: the level split has no solution
    (["--scheme", "mm-mds", "--l", "5", "--k-range", "30:49", "--n", "10", "--lambda", "1",
      "--c", "1e200", "--mu", "1e200", "--seed", "1"], 3),
], ids=["usage-error", "infeasible"])
def test_failed_sweep_leaves_out_file_untouched(tmp_path, capsys, argv, code):
    out_path = tmp_path / "keep.csv"
    out_path.write_text("old,content\n1,2\n")
    assert run_cli(capsys, "sweep", *argv, "--out", str(out_path))[0] == code
    assert out_path.read_text() == "old,content\n1,2\n"


def test_age_mm_mds_at_large_shift_times_straggling(capsys):
    # c * mu = 1830: the level chain constant exp(c * mu) is beyond float range
    code, out, _ = run_cli(capsys, "age", "--scheme", "mm-mds", "--k", "110", "--l", "3",
                           "--n", "154", "--lambda", "1", "--c", "30", "--mu", "61")
    assert code == 0
    assert math.isfinite(float(value_of(out, "age")))


@pytest.mark.parametrize("argv", [
    # exp(-c * mu - 1) underflows to -0.0
    ["--family", "mds", "--n", "100", "--c", "30", "--mu", "30"],
    # c * mu = 1830: splits past the first level need 1 - alpha_1 < exp(-1830)
    ["--family", "mm-mds", "--l", "3", "--n", "154", "--c", "30", "--mu", "61"],
    # c * mu = 2: the optimum sits at k = n*load - 1 with every level nearly full
    ["--family", "mm-mds", "--l", "4", "--n", "100", "--c", "1", "--mu", "2"],
], ids=["mds-c30-mu30", "mm-mds-l3-mu61", "mm-mds-l4-mu2"])
def test_optimize_at_large_shift_times_straggling_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, "optimize", *argv, "--lambda", "1")
    assert code == 0, err
    assert err == ""
    assert float(value_of(out, "delta_star")) >= 2.0


def test_optimize_mds_where_alpha_rounds_to_one_exits_0(capsys):
    # c * mu = 1e16: the continuous fraction alpha rounds to 1.0, so
    # -log1p(-alpha) has no argument; log1p(u) gives the same log-gap
    code, out, err = run_cli(capsys, "optimize", "--family", "mds", "--n", "100",
                             "--lambda", "1", "--c", "1e7", "--mu", "1e9")
    assert code == 0, err
    assert math.isfinite(float(value_of(out, "es_continuous")))


def test_optimize_mm_mds_needs_two_subtasks(capsys):
    # n*load = 1 leaves no k in 1..n*load-1; the error names that invariant
    code, out, err = run_cli(capsys, "optimize", "--family", "mm-mds", "--n", "1", "--l", "1",
                             "--lambda", "1", "--c", "1", "--mu", "1")
    assert code == 2
    assert out == ""
    assert "n*load >= 2" in err
    code, out, _ = run_cli(capsys, "optimize", "--family", "mm-mds", "--n", "2", "--l", "1",
                           "--lambda", "1", "--c", "1", "--mu", "1")
    assert code == 0
    assert value_of(out, "k_star") == "1"


@pytest.mark.parametrize("c, mu", [("1e200", "1e200"), ("1e-200", "1e-200")],
                         ids=["overflow", "underflow"])
def test_optimize_at_extreme_straggling_exits_3_in_one_line(capsys, c, mu):
    # c * mu overflows to inf, or underflows to 0 and the age to inf: no
    # double holds the answer, which is a numerical failure, not a usage error
    code, out, err = run_cli(capsys, "optimize", "--family", "mds", "--n", "100",
                             "--lambda", "1", "--c", c, "--mu", mu)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["optimize", "--family", "rep"],
    ["optimize", "--family", "mm-mds", "--l", "3"],
    ["age", "--scheme", "mm-mds", "--l", "2", "--k", "100"],
], ids=["rep", "mm-mds", "age-mm-mds"])
def test_shift_times_straggling_underflow_exits_0(capsys, argv):
    # c * mu = 1e-400 rounds to 0, although the ages are finite
    code, out, err = run_cli(capsys, *argv, "--n", "100", "--lambda", "1",
                             "--c", "1e-300", "--mu", "1e-100")
    assert code == 0, err
    numbers = [float(t.split("=", 1)[1]) for t in out.split()
               if t.split("=", 1)[0] in ("age", "delta_star")]
    assert numbers and all(math.isfinite(x) for x in numbers)


def test_age_at_vanishing_arrival_rate_exits_3(capsys):
    # 2/lambda^2 overflows: one line on stderr, no ZeroDivisionError traceback
    code, _, err = run_cli(capsys, "age", "--scheme", "uncoded", "--n", "10",
                           "--lambda", "1e-200", "--c", "1", "--mu", "1")
    assert code == 3
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def window_doubles(n, k, load):
    """The doubles a row of the mm-mds window sampler holds at c = mu = 1."""
    return 2 * sum(b - a + 1 for a, b in schemes._windows(n, k, load, 1.0, schemes.WINDOW_Z))


def test_simulate_above_the_sampling_limit_exits_2(monkeypatch, capsys):
    # only the window sampler of mm-mds at load >= 2 has the limit, on the
    # doubles a row of its windows holds at n = 600, k = 900
    held = window_doubles(600, 900, 2)
    monkeypatch.setattr(schemes, "MAX_SAMPLE_DRAWS", held - 1)
    code, out, err = run_cli(capsys, "simulate", "--scheme", "mm-mds", "--k", "900", "--l", "2",
                             "--n", "600", "--lambda", "1", "--c", "1", "--mu", "1",
                             "--cycles", "100", "--seed", "1")
    assert code == 2 and out == ""
    assert f"holds {held} doubles" in err and err.count("\n") == 1
    for scheme in (["mds", "--k", "900"], ["mm-mds", "--k", "900", "--l", "1"]):
        code, out, err = run_cli(capsys, "simulate", "--scheme", *scheme, "--n", "2000",
                                 "--lambda", "1", "--c", "1", "--mu", "1",
                                 "--cycles", "100", "--seed", "1")
        assert code == 0, err
        assert math.isfinite(float(value_of(out, "mean_age")))


@pytest.mark.parametrize("n, k, load", [
    (2**62, 2**62, 2), (2**64, 2**66 - 1, 4), (2**63 - 2, 1, 2)])
def test_simulate_past_the_window_bound_exits_2_at_once(capsys, n, k, load):
    # the windows' rank count comes from Python integers before any array is
    # built; ranks past int64 are refused the same way
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "simulate", "--scheme", "mm-mds", "--k", str(k),
                                 "--l", str(load), "--n", str(n), *UNIT,
                                 "--cycles", "100", "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error: mm-mds sampler: ") and err.count("\n") == 1
    assert peak < 1 << 20


def test_simulate_samples_where_the_level_split_does_not_converge(capsys):
    # (load - 1) mu c = 2e7: the analytic age has no split and exits 3, while
    # the sampler's windows fall back to the levels filling in turn
    point = ["--scheme", "mm-mds", "--l", "3", "--n", "100", "--k", "250",
             "--lambda", "1", "--c", "1", "--mu", "1e7"]
    code, out, err = run_cli(capsys, "simulate", *point, "--cycles", "300", "--seed", "1")
    assert code == 0, err
    assert math.isfinite(float(value_of(out, "mean_age")))
    code, out, err = run_cli(capsys, "age", *point)
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def test_sweep_above_the_sampling_limit_exits_2_before_writing(tmp_path, monkeypatch, capsys):
    # every row is simulated, and the header holds no note; a row past the
    # limit, the n = 1200 one, fails the sweep before it writes
    out_path = tmp_path / "n.csv"
    argv = ["sweep", "--scheme", "mm-mds", "--l", "2", "--k", "900", "--n-range",
            "600:1200:600", *UNIT, "--seed", "1", "--cycles", "60", "--out", str(out_path)]
    assert run_cli(capsys, *argv)[0] == 0
    rows = read_rows(out_path)
    assert [r["n"] for r in rows] == ["600", "1200"]
    assert all(r["age_sim_mean"] != "" and r["age_analytic"] != "" for r in rows)
    written = out_path.read_text()
    assert [ln for ln in written.splitlines() if ln.startswith("#")] == [
        f"# coded-aoi sweep v{coded_aoi.__version__}",
        "# scheme=mm-mds seed=1 cycles=60 reps=1"]
    held = window_doubles(1200, 900, 2)
    assert window_doubles(600, 900, 2) < held
    monkeypatch.setattr(schemes, "MAX_SAMPLE_DRAWS", held - 1)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"holds {held} doubles" in err
    assert out_path.read_text() == written


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys, command):
    argv = {"simulate": ["--scheme", "mds", "--k", "5", "--n", "10", "--cycles", "100"],
            "sweep": ["--scheme", "mds", "--n", "10", "--k-range", "1:9",
                      "--out", str(tmp_path / "s.csv")]}[command]
    code, out, err = run_cli(capsys, command, *argv, "--lambda", "1", "--c", "1", "--mu", "1",
                             "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: seed must be a SeedSequence or an integer >= 0, got -1\n"
    assert not (tmp_path / "s.csv").exists()


def test_simulate_overflowing_age_exits_3_in_one_line(capsys):
    # cycle lengths near 1e200 square to areas past the largest double
    code, out, err = run_cli(capsys, "simulate", "--scheme", "uncoded", "--n", "3",
                             "--lambda", "1e-200", "--c", "1", "--mu", "1",
                             "--cycles", "100", "--seed", "1")
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: simulated age of Uncoded() overflows")
    assert err.count("\n") == 1


def test_simulate_past_the_address_space_exits_3_in_one_line(capsys):
    # 10**15 cycles need petabytes: the allocation fails at once, with no
    # page committed, and the CLI reports it instead of a traceback
    code, out, err = run_cli(capsys, "simulate", "--scheme", "mds", "--k", "5", "--n", "10",
                             "--cycles", "1000000000000000", "--seed", "1", *UNIT)
    assert code == 3 and out == ""
    assert err.startswith("out of memory: ")
    assert err.count("\n") == 1


UNIT = ["--lambda", "1", "--c", "1", "--mu", "1"]


def test_repeated_in_process_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # one parser serves every call, so an error in one call must leave nothing
    # behind for the next
    (tmp_path / "bad.json").write_text(json.dumps({"n": "abc", "scheme": "mds", "k": 3}))
    calls = [
        ["age", "--scheme", "mds", "--n", "x"] + UNIT,   # argparse usage error
        ["age", "--config", "bad.json"] + UNIT,          # the config parser rejects --n
        ["age", "--scheme", "mm-mds", "--n", "100", "--k", "129", "--l", "2"] + UNIT,
        ["optimize", "--family", "mm-mds", "--n", "100", "--l", "3"] + UNIT,
        # the same again, now from warm level and piece-root caches
        ["age", "--scheme", "mm-mds", "--n", "100", "--k", "129", "--l", "2"] + UNIT,
        ["optimize", "--family", "mm-mds", "--n", "100", "--l", "3"] + UNIT,
        ["sweep", "--preset", "fig5a", "--seed", "7", "--out", "s.csv"],
        ["sweep", "--scheme", "mds", "--n", "20", "--k-range", "1:19:3", "--seed", "3",
         "--cycles", "40", "--out", "s.csv"] + UNIT,
        ["age", "--scheme", "mds", "--n", "100", "--k", "69"] + UNIT,
    ]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(coded_aoi.__file__)))

    def csv_bytes():
        path = tmp_path / "s.csv"
        data = path.read_bytes() if path.exists() else None
        if data is not None:
            path.unlink()
        return data

    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        here = (code, captured.out, captured.err, csv_bytes())
        fresh = subprocess.run([sys.executable, "-m", "coded_aoi.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert here == (fresh.returncode, fresh.stdout, fresh.stderr, csv_bytes()), argv


def test_main_builds_no_parser_after_the_first_calls(monkeypatch, capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"scheme": "mds", "n": 100, "k": 69}))
    argvs = [["age", "--config", str(config)] + UNIT,
             ["optimize", "--family", "mds", "--n", "100"] + UNIT]
    for argv in argvs:  # both parsers built, if not already
        assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for i in range(10):
        assert main(argvs[i % 2]) == 0
    capsys.readouterr()
    assert built == []
