"""Property tests of the classifier's polynomial maps and of its
least-squares kernel.

Every defining expression is the odd cubic ``E(V) = V M + K(V, V, V)``, with
``M`` and ``K`` built once per model and problem from the einsum frame
calculus.  Over random ``su2`` scales, half-spaces of dimension 2 to 5,
``sol3``, each problem and random unit batches, the map must reproduce that
einsum oracle, its exact Jacobian must match the oracle's central
difference, and it must be odd.  Bounds scale with the size of the tensors.

Every Gauss-Newton step is a least-squares problem damped by ``_DAMPING``
times its Frobenius norm, solved by a batched Householder kernel.  Over
dimensions 2 to 5 with graded column scales, the kernel's solution of a
full-rank system must be ``pinv``'s to within a fixed multiple of
``cond * eps``; on a system with exactly dependent columns the damped step
must be ``pinv``'s to within the damping's own bias, ``(mu / sigma_r)^2``
relative, plus the same roundoff bound for the damped system.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from torusfield.liegroups import (
    _DAMPING,
    _PROBLEMS,
    _cubic_map,
    _defining_expression,
    _least_squares,
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

    # batch last: points are columns, J[i, k, n] goes to the system's first rows
    system = np.empty((model.dim, model.dim, len(V)))
    residual = cubic.linearize(V.T.copy(), system).T
    assert np.max(np.abs(residual - oracle(V))) <= 1e-13 * scale
    eps = 1e-5
    for k, bump in enumerate(eps * np.eye(model.dim)):
        central = (oracle(V + bump) - oracle(V - bump)) / (2.0 * eps)
        assert np.max(np.abs(system[:, k].T - central)) <= 1e-8 * scale


@given(cases())
def test_polynomial_map_is_odd(case):
    _, _, cubic, V, _ = case
    assert np.array_equal(cubic.expression(-V), -cubic.expression(V))


def solve(A, b):
    """The kernel on the stacked systems A (count, m, dim), b (count, m),
    passed batch last as it runs in the sweep: (m, dim, count), (m, count)."""
    return _least_squares(np.moveaxis(A, 0, -1).copy(), b.T.copy()).T


@st.composite
def graded_systems(draw):
    """Stacked (count, dim + 1, dim) systems whose column scales span up to
    nine decades, so that condition numbers reach about 1e9."""
    dim = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 16))
    scales = 10.0 ** rng.uniform(-draw(st.integers(0, 9)), 0.0, (count, 1, dim))
    return rng.standard_normal((count, dim + 1, dim)) * scales, rng


def consistent(A, rng):
    """Right-hand sides in the range of A, so that a step's roundoff is first
    order in cond: |dx| <= C cond eps |x| (Golub & Van Loan, 5.3)."""
    count, _, dim = A.shape
    return np.einsum("nij,nj->ni", A, rng.standard_normal((count, dim)))


@given(graded_systems())
def test_least_squares_kernel_keeps_only_steps_that_match_pinv(system):
    A, rng = system
    b = consistent(A, rng)
    step = solve(A, b)
    reference = np.einsum("nij,nj->ni", np.linalg.pinv(A), b)
    gap = np.linalg.norm(step - reference, axis=1)
    bound = 64.0 * np.linalg.cond(A) * np.finfo(float).eps * np.linalg.norm(reference, axis=1)
    assert np.all(gap <= bound)


@given(graded_systems(), st.integers(-3, 3), st.booleans())
def test_damped_step_on_dependent_columns_is_the_min_norm_step(system, power, zero):
    A, rng = system
    count, _, dim = A.shape
    source, copy = rng.choice(dim, size=2, replace=False)
    # a power-of-two multiple (or zero) is exactly dependent in floating point
    A[:, :, copy] = 0.0 if zero else 2.0**power * A[:, :, source]
    b = consistent(A, rng)
    mu = _DAMPING * np.linalg.norm(A, axis=(1, 2))
    damped = np.concatenate([A, mu[:, None, None] * np.eye(dim)], axis=1)
    step = solve(damped, np.concatenate([b, np.zeros((count, dim))], axis=1))
    reference = np.einsum("nij,nj->ni", np.linalg.pinv(A), b)
    # rank dim - 1: sigma_r is the smallest nonzero singular value.  The bias
    # is below (mu / sigma_r)^2 relative; the roundoff is the damped system's,
    # whose smallest singular value is mu, so its condition is about 1 / _DAMPING
    sigma_r = np.linalg.svd(A, compute_uv=False)[:, -2]
    gap = np.linalg.norm(step - reference, axis=1)
    bound = 2.0 * (mu / sigma_r) ** 2 + 64.0 * np.linalg.cond(damped) * np.finfo(float).eps
    assert np.all(gap <= bound * np.linalg.norm(reference, axis=1))
