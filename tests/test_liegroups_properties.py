"""Property tests of the classifier's polynomial maps.

Every defining expression is the odd cubic ``E(V) = V M + K(V, V, V)``, with
``M`` and ``K`` built once per model and problem from the einsum frame
calculus.  Over random ``su2`` scales, half-spaces of dimension 2 to 5,
``sol3``, each problem and random unit batches, the map must reproduce that
einsum oracle, its exact Jacobian must match the oracle's central
difference, and it must be odd.  Bounds scale with the size of the tensors.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from torusfield.liegroups import (
    _PROBLEMS,
    _cubic_map,
    _defining_expression,
    _tangent_part,
    hyperbolic,
    sol3,
    su2,
)


scales = st.floats(0.2, 3.0)
models = st.one_of(
    st.lists(scales, min_size=3, max_size=3).map(lambda s: su2(*sorted(s, reverse=True))),
    st.builds(hyperbolic, st.integers(2, 5), scales),
    st.builds(sol3),
)


@st.composite
def cases(draw):
    model = draw(models)
    problem = draw(st.sampled_from(_PROBLEMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = rng.standard_normal((draw(st.integers(1, 16)), model.dim))
    V /= np.linalg.norm(V, axis=-1, keepdims=True)
    cubic = _cubic_map(model, problem)
    # bounds |E(V)| on the unit sphere, and the oracle's intermediates
    scale = 1.0 + np.linalg.norm(cubic.linear) + np.linalg.norm(cubic.cubic)
    return model, problem, cubic, V, scale


@given(cases())
def test_polynomial_map_is_the_einsum_oracle(case):
    model, problem, cubic, V, scale = case
    gap = np.max(np.abs(cubic.expression(V) - _defining_expression(model, V, problem)))
    assert gap <= 1e-13 * scale
    # the exact Jacobian 3 K(V, V, .) needs K symmetric in its first three indices
    for axes in permutations(range(3)):
        assert np.max(np.abs(cubic.cubic - cubic.cubic.transpose(*axes, 3))) <= 1e-15 * scale


@given(cases())
def test_exact_jacobian_is_the_oracle_central_difference(case):
    model, problem, cubic, V, scale = case

    def oracle(points):
        points = points / np.linalg.norm(points, axis=-1, keepdims=True)
        return _tangent_part(_defining_expression(model, points, problem), points)

    residual, jacobian = cubic.linearize(V)
    assert np.max(np.abs(residual - oracle(V))) <= 1e-13 * scale
    eps = 1e-5
    for k, bump in enumerate(eps * np.eye(model.dim)):
        central = (oracle(V + bump) - oracle(V - bump)) / (2.0 * eps)
        assert np.max(np.abs(jacobian[:, :, k] - central)) <= 1e-8 * scale


@given(cases())
def test_polynomial_map_is_odd(case):
    _, _, cubic, V, _ = case
    assert np.array_equal(cubic.expression(-V), -cubic.expression(V))
