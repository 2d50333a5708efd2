"""Invariants of the analytic and sampling paths over generated valid inputs."""
import argparse
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from numpy.random import Generator, PCG64  # noqa: E402

from coded_aoi import (  # noqa: E402
    MDS,
    DegenerateLevels,
    LevelSplit,
    MultiMDS,
    Repetition,
    SystemParams,
    Uncoded,
    age_of,
    sample_service_batch,
    service_moments,
    solve_levels,
)
from coded_aoi import cli  # noqa: E402
from levels_reference import chain_residuals  # noqa: E402

# Few examples keep the module to about a second.  derandomize fixes the
# examples, so a run is repeatable; a wider search is one edit of max_examples.
FEW = settings(max_examples=40, deadline=None, database=None, derandomize=True)

rates = st.floats(min_value=1e-2, max_value=1e2)


@st.composite
def systems(draw):
    return SystemParams(draw(rates), draw(rates), draw(rates), draw(st.integers(2, 200)))


@st.composite
def valid_points(draw):
    """(scheme, params) with parameters that pass the scheme's own check."""
    p = draw(systems())
    n = p.nworkers
    load = draw(st.integers(1, 4))
    scheme = draw(st.one_of(
        st.just(Uncoded()),
        st.builds(Repetition, st.integers(1, n)),
        st.builds(MDS, st.integers(1, n - 1)),
        st.builds(MultiMDS, st.integers(1, n * load - 1), st.just(load)),
    ))
    return scheme, p


@FEW
@given(valid_points())
def test_age_is_finite_and_above_two_over_rate(point):
    scheme, p = point
    try:
        delta = age_of(scheme, p).delta
    except DegenerateLevels:
        # a multi-message split whose first level rounds to no subtask has
        # no age; the CLI reports it as a numerical failure (exit 3)
        assert isinstance(scheme, MultiMDS)
        return
    assert math.isfinite(delta)
    assert delta >= 2 / p.arrival_rate


@FEW
@given(st.integers(1, 7),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(1e-3, 1e4))
def test_level_split_solves_the_chain(ell, alpha, mu_c):
    a = solve_levels(ell, alpha, mu_c).alphas
    assert len(a) == ell
    assert abs(sum(a) - ell * alpha) <= 1e-10
    assert all(x >= y for x, y in zip(a, a[1:]))
    assert all(0.0 <= x <= 1.0 for x in a)
    # zeros trail: once a level is empty every deeper one is
    assert all(y == 0.0 for x, y in zip(a, a[1:]) if x == 0.0)
    assert a[0] > 0.0
    for r, bound in chain_residuals(LevelSplit(a), mu_c):
        assert abs(r) <= bound


@FEW
@given(systems())
def test_full_repetition_has_uncoded_moments(p):
    assert service_moments(Repetition(p.nworkers), p) == service_moments(Uncoded(), p)


@FEW
@given(systems(), st.data())
def test_single_load_multi_message_is_mds(p, data):
    k = data.draw(st.integers(1, p.nworkers - 1))
    assert service_moments(MultiMDS(k, 1), p) == service_moments(MDS(k), p)
    seed, size = data.draw(st.integers(0, 2**32)), data.draw(st.integers(1, 16))
    a = sample_service_batch(MultiMDS(k, 1), p, Generator(PCG64(seed)), size)
    b = sample_service_batch(MDS(k), p, Generator(PCG64(seed)), size)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("label", list(cli._SCHEMES))
def test_cli_labels_round_trip(label):
    args = cli._build_parser().parse_args(["age", "--scheme", label, "--k", "3", "--l", "2"])
    scheme = cli._build_scheme(args)
    assert type(scheme) is cli._SCHEMES[label]
    assert scheme.label == label
    assert cli._build_scheme(argparse.Namespace(scheme=scheme.label, k=3, load=2)) == scheme
