import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadamard as hd
from conftest import ept, hpt_polar
import oracles

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_quasilinearization_matches_dot_product_oracle(E3):
    rng = np.random.default_rng(23)
    for _ in range(300):
        a, b, c, d = rng.normal(scale=4.0, size=(4, 3))
        got = hd.quasilinearization(E3, ept(E3, *a), ept(E3, *b), ept(E3, *c), ept(E3, *d))
        want = oracles.euclid_quasilin(a, b, c, d)
        scale = 1.0 + max(abs(got), abs(want))
        assert abs(got - want) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(st.lists(coord, min_size=8, max_size=8))
def test_pairing_identities_euclidean(vals):
    E2 = hd.make_space(hd.Euclidean(2))
    a, b, c, d = (ept(E2, vals[2 * i], vals[2 * i + 1]) for i in range(4))
    q = hd.quasilinearization(E2, a, b, c, d)
    scale = 1.0 + sum(E2.distance(p, q_) ** 2 for p in (a, b) for q_ in (c, d))
    assert abs(q - hd.quasilinearization(E2, c, d, a, b)) <= 1e-12 * scale
    assert abs(q + hd.quasilinearization(E2, b, a, c, d)) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(st.lists(coord, min_size=10, max_size=10))
def test_pairing_additivity_euclidean(vals):
    E2 = hd.make_space(hd.Euclidean(2))
    a, b, c, d, e = (ept(E2, vals[2 * i], vals[2 * i + 1]) for i in range(5))
    total = hd.quasilinearization(E2, a, b, c, d)
    split = hd.quasilinearization(E2, a, e, c, d) + hd.quasilinearization(E2, e, b, c, d)
    scale = 1.0 + sum(
        E2.distance(p, q) ** 2 for p in (a, b, e) for q in (c, d)
    )
    assert abs(total - split) <= 1e-11 * scale


def test_cauchy_schwarz_gap_nonnegative_hyperbolic(H2):
    rng = np.random.default_rng(5)
    for _ in range(300):
        pts = [hpt_polar(H2, rng.uniform(0, 4), rng.uniform(-3.14, 3.14)) for _ in range(4)]
        a, b, c, d = pts
        gap = H2.distance(a, b) * H2.distance(c, d) - hd.quasilinearization(H2, a, b, c, d)
        ds = [H2.distance(p, q) for p in pts for q in pts]
        scale = 1.0 + sum(d * d for d in ds)
        assert gap >= -1e-10 * scale


def test_cauchy_schwarz_tight_on_aligned_segments(E2):
    # <ab, cd> = d(a,b) d(c,d) exactly when the displacements are parallel
    a, b = ept(E2, 0.0, 0.0), ept(E2, 2.0, 0.0)
    c, d = ept(E2, 5.0, 3.0), ept(E2, 8.0, 3.0)
    gap = E2.distance(a, b) * E2.distance(c, d) - hd.quasilinearization(E2, a, b, c, d)
    assert gap == pytest.approx(0.0, abs=1e-12)
