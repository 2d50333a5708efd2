"""One boundary rule for every public callable, as a table and two properties.

TABLE lists each callable of ``coded_aoi.__all__`` with the kind of each
argument and a valid value for it.  A kind draws the values that break it
and names the error they raise:

    count        an integer, numpy integers too, at least its bound: bool,
                 floats (NaN and +-inf among them) and non-numbers break
                 it, and so do ints below the bound, past -2**63 too
    rate, time,  a real number, numpy reals too, in a range: bool and
    probability  non-numbers break it, and so do NaN and the reals outside
                 the range, ints past 2**63 and past the double range among
                 them.  A rate is finite and > 0; ShiftedExp's rate and
                 solve_levels' mu_c may also be infinite, and a time is
                 finite and >= 0
    fractions    a nonempty tuple of level fractions in [0, 1]
    seed         an integer >= 0 or a SeedSequence
    choice       one of a few strings
    age_fn       a callable of k; one whose age is NaN at a k the walk visits
                 breaks it
    scheme       a Scheme instance; any other object raises TypeError

Every kind but scheme raises ValueError.  A record argument (SystemParams,
ShiftedExp, ServiceMoments or a Generator) is drawn by no kind: the first
two check their own fields, so their constructors are rows of the table;
ServiceMoments is a result record, which checks nothing.  A scheme's fields
are checked where it is used, so its row is service_moments of the scheme.
"""
import dataclasses
import math
from dataclasses import dataclass

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402
import numpy as np  # noqa: E402
from numpy.random import Generator, PCG64  # noqa: E402

import coded_aoi  # noqa: E402
from coded_aoi import (  # noqa: E402
    MDS,
    MultiMDS,
    Repetition,
    ServiceMoments,
    ShiftedExp,
    SystemParams,
    Uncoded,
    age_from_moments,
    age_of,
    gen_harmonic2,
    harmonic,
    lambert_w_m1,
    level_counts,
    opt_mds,
    opt_mm_mds,
    opt_repetition,
    os_mean,
    os_var,
    refine_discrete,
    run,
    run_parallel,
    sample_service_batch,
    service_moments,
    solve_levels,
)
from coded_aoi.optimize import _BRANCH_POINT  # noqa: E402
from coded_aoi.simulate import BATCHES  # noqa: E402


@dataclass(frozen=True)
class Kind:
    bad: st.SearchStrategy
    error: type = ValueError


NOT_NUMBERS = st.sampled_from([None, "1", b"1", 1j, (1,), [1.0], object()])
RECORD = None  # a record argument: drawn by no kind


def count(low=None):
    bad = st.one_of(st.booleans(), st.floats(), st.floats().map(np.float64), NOT_NUMBERS)
    if low is None:
        return Kind(bad)
    return Kind(bad | st.integers(max_value=low - 1) | st.integers(max_value=-2**63 - 1)
                | st.integers(-2**63, low - 1).map(np.int64))


def double(x) -> float:
    """The double a real check makes of x: an int past the double range is infinite."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def real_values(ok):
    """Reals whose double ``ok`` refuses, NaN always."""
    values = st.one_of(
        st.floats(), st.floats().map(np.float64), st.integers(),
        st.integers(min_value=2**63), st.integers(max_value=-2**63),
        st.integers(min_value=2**1024), st.integers(max_value=-2**1024))
    return values.filter(lambda x: not ok(double(x)))


def real(ok):
    return Kind(st.one_of(st.booleans(), NOT_NUMBERS, real_values(ok)))


def choice(*options):
    return Kind(st.one_of(st.text(max_size=3), st.integers(), NOT_NUMBERS).filter(
        lambda x: x not in options))


RATE = real(lambda x: 0.0 < x < math.inf)
RATE_OR_INF = real(lambda x: x > 0.0)
TIME = real(lambda x: 0.0 <= x < math.inf)
PROBABILITY = real(lambda x: 0.0 < x < 1.0)
BRANCH = real(lambda x: _BRANCH_POINT <= x < 0.0)  # lambert_w_m1's domain
FRACTION = st.one_of(st.booleans(), NOT_NUMBERS, real_values(lambda x: 0.0 <= x <= 1.0))
FRACTIONS = Kind(st.one_of(st.just(()), FRACTION.map(lambda x: (x,)),
                           FRACTION.map(lambda x: (0.5, x))))
SEED = Kind(st.one_of(st.booleans(), st.floats(), NOT_NUMBERS, st.integers(max_value=-1)))
OBJECTIVE = choice("age", "service")
MODE = choice("fast", "full_stream")
POLICY = choice("zero-wait", "return-triggered")
AGE_FN = Kind(st.sampled_from([lambda k: math.nan, lambda k: math.nan if k == 1 else float(k),
                               lambda k: math.nan if k == 3 else 1.0 / k]))
SCHEME = Kind(st.one_of(NOT_NUMBERS, st.integers(), st.floats(),
                        st.sampled_from([MDS, "mds", SystemParams(1.0, 1.0, 1.0, 10)])),
              TypeError)

P = SystemParams(1.0, 1.0, 1.0, 10)


def rng():
    return Generator(PCG64(1))


# name -> (call, {argument: (kind, valid value)})
TABLE = {
    "SystemParams": (SystemParams, {
        "arrival_rate": (RATE, 1.0), "shift": (RATE, 1.0), "straggling": (RATE, 0.5),
        "nworkers": (count(1), 10)}),
    "ShiftedExp": (ShiftedExp, {"shift": (TIME, 1.0), "rate": (RATE_OR_INF, 2.0)}),
    "Uncoded": (lambda: service_moments(Uncoded(), P), {}),
    "Repetition": (lambda k: service_moments(Repetition(k), P), {"k": (count(1), 4)}),
    "MDS": (lambda k: service_moments(MDS(k), P), {"k": (count(1), 7)}),
    "MultiMDS": (lambda k, load: service_moments(MultiMDS(k, load), P),
                 {"k": (count(1), 12), "load": (count(1), 2)}),
    # the MultiMDS point whose n * load is past 2**63
    "service_moments": (service_moments, {"scheme": (SCHEME, MultiMDS(5, 4)),
                                          "params": (RECORD, SystemParams(1.0, 1.0, 1.0, 2**62))}),
    "sample_service_batch": (
        lambda scheme, params, size: sample_service_batch(scheme, params, rng(), size),
        {"scheme": (SCHEME, MultiMDS(12, 2)), "params": (RECORD, P), "size": (count(0), 5)}),
    "age_of": (age_of, {"scheme": (SCHEME, MDS(7)), "params": (RECORD, P)}),
    "age_from_moments": (age_from_moments, {
        "arrival_rate": (RATE, 1.0), "m": (RECORD, ServiceMoments(0.5, 0.5))}),
    "solve_levels": (solve_levels, {
        "ell": (count(1), 3), "alpha": (PROBABILITY, 0.3), "mu_c": (RATE_OR_INF, 1.0)}),
    "level_counts": (level_counts, {
        "alphas": (FRACTIONS, (0.5, 0.3)), "n": (count(1), 10), "k": (count(1), 8)}),
    "harmonic": (harmonic, {"n": (count(0), 10), "m": (count(0), 3)}),
    "gen_harmonic2": (gen_harmonic2, {"n": (count(0), 10), "m": (count(0), 3)}),
    "os_mean": (os_mean, {"d": (RECORD, ShiftedExp(1.0, 2.0)), "n": (count(1), 10),
                          "k": (count(1), 3)}),
    "os_var": (os_var, {"d": (RECORD, ShiftedExp(1.0, 2.0)), "n": (count(1), 10),
                        "k": (count(1), 3)}),
    "lambert_w_m1": (lambert_w_m1, {"x": (BRANCH, -0.2)}),
    "refine_discrete": (refine_discrete, {
        "age_fn": (AGE_FN, lambda k: (k - 3.5) ** 2), "k_seed": (count(), 2),
        "k_min": (count(), 1), "k_max": (count(), 5)}),
    "opt_repetition": (opt_repetition, {"params": (RECORD, P), "objective": (OBJECTIVE, "age")}),
    "opt_mds": (opt_mds, {"params": (RECORD, P), "objective": (OBJECTIVE, "service")}),
    "opt_mm_mds": (opt_mm_mds, {"params": (RECORD, P), "load": (count(1), 2),
                                "objective": (OBJECTIVE, "age")}),
    "run": (run, {"scheme": (SCHEME, MDS(7)), "params": (RECORD, P),
                  "cycles": (count(BATCHES), 40), "seed": (SEED, 2**64 + 1),
                  "mode": (MODE, "full_stream"), "policy": (POLICY, "zero-wait")}),
    "run_parallel": (run_parallel, {
        "scheme": (SCHEME, Repetition(3)), "params": (RECORD, P),
        "cycles_per_rep": (count(BATCHES // 2), 20), "reps": (count(1), 2), "seed": (SEED, 7),
        "mode": (MODE, "fast"), "policy": (POLICY, "return-triggered")}),
}
# names that are not called with checked arguments: result records,
# exceptions, and the Scheme union
UNCALLED = {"AgeResult", "OptResult", "ServiceMoments", "SimReport", "Scheme",
            "Infeasible", "InconsistentK", "NoConvergence", "InsufficientCycles"}
ARGUMENTS = [(name, arg) for name, (_, args) in TABLE.items()
             for arg, (kind, _) in args.items() if kind is not RECORD]


def valid(name):
    return {arg: value for arg, (_, value) in TABLE[name][1].items()}


def test_the_table_lists_every_public_name_once():
    assert set(TABLE) | UNCALLED == set(coded_aoi.__all__)
    assert not set(TABLE) & UNCALLED


# 20 draws an argument, 49 arguments: about 1.4 s in all
@settings(max_examples=20, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(data=st.data())
@pytest.mark.parametrize("name, arg", ARGUMENTS)
def test_a_bad_argument_raises_its_kinds_error_and_no_other(name, arg, data):
    call, args = TABLE[name]
    kind = args[arg][0]
    kwargs = valid(name)
    kwargs[arg] = data.draw(kind.bad, label=arg)
    with pytest.raises(kind.error):
        call(**kwargs)


def numpy_scalars(x):
    """x with each Python number in it, in a tuple, a scheme or a checked
    record, as a numpy scalar; ints past int64 stay Python ints."""
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return np.int64(x) if -2**63 <= x < 2**63 else x
    if isinstance(x, float):
        return np.float64(x)
    if isinstance(x, tuple):
        return tuple(map(numpy_scalars, x))
    if isinstance(x, (SystemParams, ShiftedExp, Uncoded, Repetition, MDS, MultiMDS)):
        return type(x)(**{f.name: numpy_scalars(getattr(x, f.name))
                          for f in dataclasses.fields(x)})
    return x


def python_typed(x) -> bool:
    """Whether x, a record's fields and a sequence's items, holds no numpy scalar."""
    if isinstance(x, np.generic):
        return False
    if dataclasses.is_dataclass(x):
        return all(python_typed(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return all(map(python_typed, x))
    return True


@pytest.mark.parametrize("name", TABLE)
def test_numpy_scalars_give_the_python_result_in_python_types(name):
    # the valid arguments pass, and with numpy scalars in place of Python
    # numbers give the same values, with no numpy scalar in a result or a
    # checked record
    call, expected = TABLE[name][0], TABLE[name][0](**valid(name))
    got = call(**{arg: numpy_scalars(value) for arg, value in valid(name).items()})
    if isinstance(expected, np.ndarray):
        assert got.tobytes() == expected.tobytes()
    else:
        assert got == expected
        assert python_typed(got)
