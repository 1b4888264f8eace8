import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncollide.core import (
    Chamber,
    RngStream,
    TimeGrid,
    gaussian,
    validate_chamber,
)
from noncollide.errors import ChamberViolation, DomainError, NonFinite, TimeOrdering


def test_chamber_a_valid():
    cfg = validate_chamber([0.0, 1.0, 2.5], "A")
    assert cfg.chamber is Chamber.A
    assert cfg.values == (0.0, 1.0, 2.5)
    assert cfg.n == 3


def test_chamber_tie_rejected():
    with pytest.raises(ChamberViolation) as exc:
        validate_chamber([1.0, 1.0], "A")
    assert exc.value.index == 1


def test_chamber_d_allows_negative_first():
    cfg = validate_chamber([-0.3, 0.5], "D")
    assert cfg.values == (-0.3, 0.5)
    with pytest.raises(ChamberViolation):
        validate_chamber([-0.7, 0.5], "D")


def test_chamber_c_requires_positive():
    validate_chamber([0.1, 0.5], "C")
    with pytest.raises(ChamberViolation) as exc:
        validate_chamber([0.0, 0.5], "C")
    assert exc.value.index == 0


def test_chamber_nonfinite():
    with pytest.raises(NonFinite):
        validate_chamber([0.0, float("nan")], "A")
    with pytest.raises(NonFinite):
        validate_chamber([0.0, float("inf")], "A")


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8, unique=True))
@settings(max_examples=200, deadline=None)
def test_chamber_a_accepts_any_sorted_distinct(vals):
    cfg = validate_chamber(sorted(vals), "A")
    # validation is order-checking only: values unmodified
    assert list(cfg.values) == sorted(vals)


def test_chamber_input_forms_give_python_floats():
    forms = ([0.0, 1, 2.5], np.array([0.0, 1.0, 2.5]), (v for v in (0.0, 1.0, 2.5)),
             [np.float64(0.0), np.int64(1), 2.5])
    for x in forms:
        cfg = validate_chamber(x, "A")
        assert cfg.values == (0.0, 1.0, 2.5)
        assert isinstance(cfg.values, tuple)
        assert all(type(v) is float for v in cfg.values)


def test_chamber_errors_in_order():
    for x in ([], np.array([]), iter(())):
        with pytest.raises(DomainError, match="nonempty"):
            validate_chamber(x, "A")
    # non-finite is reported before any ordering or boundary violation
    for chamber in ("A", "C", "D"):
        with pytest.raises(NonFinite):
            validate_chamber([-1.0, -1.0, float("nan")], chamber)
        with pytest.raises(NonFinite):
            validate_chamber(np.array([2.0, float("-inf")]), chamber)
    for x, chamber, index in (([0.5, 0.5], "A", 1), ([0.1, 0.3, 0.3], "C", 2),
                              ([-0.1, 0.5], "C", 0), ([0.6, -0.5], "D", 1),
                              ([0.5, 0.5], "D", 1), ([0.1, 0.5, 0.5], "D", 2)):
        with pytest.raises(ChamberViolation) as exc:
            validate_chamber(x, chamber)
        assert exc.value.index == index
    assert validate_chamber([-0.3], "D").values == (-0.3,)


def test_rng_determinism():
    a = RngStream(7, 0)
    b = RngStream(7, 0)
    assert gaussian(a) == gaussian(b)
    assert np.array_equal(a.normal(10), b.normal(10))


def test_rng_streams_differ():
    a = RngStream(7, 0).normal(8)
    b = RngStream(7, 1).normal(8)
    assert not np.array_equal(a, b)


def test_rng_worker_merge_bit_identical():
    # one worker drawing from streams 0..3 in order == four workers merged
    single = np.concatenate([RngStream(42, k).normal(5) for k in range(4)])
    workers = [RngStream(42, k) for k in range(4)]
    merged = np.concatenate([w.normal(5) for w in workers])
    assert np.array_equal(single, merged)


def test_gaussian_moments():
    draws = RngStream(123, 0).normal(1_000_000)
    assert abs(draws.mean()) <= 4e-3  # 3 sigma CLT bound 3/sqrt(n)
    assert abs(draws.var() - 1.0) <= 5e-3


def test_timegrid_validation():
    TimeGrid.of([0.5, 1.0], horizon=1.0)
    with pytest.raises(TimeOrdering):
        TimeGrid.of([1.0, 0.5])
    with pytest.raises(TimeOrdering):
        TimeGrid.of([0.5, 1.5], horizon=1.0)
    with pytest.raises(TimeOrdering):
        TimeGrid.of([-0.5, 1.0])


def test_configuration_immutable():
    cfg = validate_chamber([0.0, 1.0], "A")
    with pytest.raises(Exception):
        cfg.values = (1.0, 2.0)
