"""Left-invariant critical unit fields on three model geometries.

Everything here is finite-dimensional: a left-invariant unit field is a
point on the unit sphere of the frame coefficients, the connection is a
constant ``dim^3`` array, and the harmonic/biharmonic conditions become
polynomial systems on that sphere.  The frame calculus builds those systems
directly from the connection array (curvature and its covariant derivative
are einsum contractions, never hand-entered).  ``_cubic_map`` alone looks a
problem up in ``_PROBLEMS``, the one table of defining expressions; each is
an odd cubic ``E(V) = V M + K(V, V, V)``, so the einsum route is evaluated
only once per model and problem, to build ``M`` and the symmetric ``K`` by
polarization; it stays in the module as the oracle the tests check the
tensors against.  Classification (refined dense sampling with the exact
Jacobian ``M^T + 3 K(V, V, .)``) and the checks against the known
closed-form sets run on the tensors.  A Gauss-Newton sweep solves every
step as one damped least-squares problem in one batched Householder QR,
batch axis last: points (dim, n), Jacobians (dim, dim, n), and scales a
step by m where steps shrink as at a root of multiplicity m.  The cell-hash
clusters are measured in one batch and merged in one pass, each fragment
joining the component of its signature; a latitude family is sampled once.

Supported models: ``su2`` (compact, three bracket scales), ``sol3``
(solvable), ``hyperbolic`` (half-space of curvature ``-c^2`` in any
dimension ``n >= 2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

#: sphere samples of classify() and compare_known() unless asked otherwise
_RESOLUTION = 20000
#: refinement iterations and acceptance threshold for classify()
_NEWTON_ITERATIONS = 40
_CONVERGED_REL = 1e-11
#: Levenberg-Marquardt damping of a Gauss-Newton step, relative to |[J; V^T]|_F
_DAMPING = 1e-8
#: spatial granularity for clustering solutions on the sphere
_CLUSTER_RADIUS = 0.05
#: two families whose constant coordinate differs by less than this are one
_SIGNATURE_TOL = 1e-4
#: the kind of a solution set whose components are all of one kind
_AGGREGATES = {"point": "isolated_points", "circle": "circle_family",
               "hypersphere": "hypersphere_family"}


@dataclass(frozen=True, eq=False)
class LeftInvariantModel:
    """A Lie group with left-invariant metric, reduced to frame data.

    ``connection[i, j, k]`` is the coefficient of ``e_k`` in the covariant
    derivative of ``e_j`` along ``e_i``, in a fixed orthonormal frame.
    """

    name: str
    dim: int
    params: tuple[float, ...]
    connection: NDArray

    def __post_init__(self) -> None:
        expected = (self.dim, self.dim, self.dim)
        if self.connection.shape != expected:
            raise ValueError(f"connection must have shape {expected}")
        self.connection.setflags(write=False)

    @cached_property
    def brackets(self) -> NDArray:
        """Structure constants [e_i, e_j] recovered from torsion-freeness."""
        return self.connection - self.connection.transpose(1, 0, 2)

    @cached_property
    def curvature(self) -> NDArray:
        """R[i, j, k, l]: coefficient of e_l in R(e_i, e_j)e_k."""
        g = self.connection
        return (
            np.einsum("jkm,iml->ijkl", g, g)
            - np.einsum("ikm,jml->ijkl", g, g)
            - np.einsum("ijm,mkl->ijkl", self.brackets, g)
        )

    @cached_property
    def curvature_gradient(self) -> NDArray:
        """nablaR[i, j, k, l, p]: coefficient of e_p in (nabla_i R)(e_j, e_k)e_l."""
        R = self.curvature
        g = self.connection
        return (
            np.einsum("jklm,imp->ijklp", R, g)
            - np.einsum("ijm,mklp->ijklp", g, R)
            - np.einsum("ikm,jmlp->ijklp", g, R)
            - np.einsum("ilm,jkmp->ijklp", g, R)
        )

    @cached_property
    def _cubic_maps(self) -> dict[str, _CubicMap]:
        """The polynomial form of each problem, built by _cubic_map on first use."""
        return {}


def su2(lam1: float, lam2: float, lam3: float) -> LeftInvariantModel:
    """Compact model: finite bracket scales lam1 >= lam2 >= lam3 > 0."""
    if not (np.inf > lam1 >= lam2 >= lam3 > 0):
        raise ValueError("bracket scales must be finite with lam1 >= lam2 >= lam3 > 0")
    half_sum = 0.5 * (lam1 + lam2 + lam3)
    mu = np.array([half_sum - lam1, half_sum - lam2, half_sum - lam3])
    gamma = np.zeros((3, 3, 3))
    gamma[1, 0, 2] = -mu[1]
    gamma[2, 0, 1] = mu[2]
    gamma[0, 1, 2] = mu[0]
    gamma[2, 1, 0] = -mu[2]
    gamma[0, 2, 1] = -mu[0]
    gamma[1, 2, 0] = mu[1]
    return LeftInvariantModel("su2", 3, (float(lam1), float(lam2), float(lam3)), gamma)


def sol3() -> LeftInvariantModel:
    """Solvable model with anisotropic expansion/contraction directions."""
    gamma = np.zeros((3, 3, 3))
    gamma[0, 0, 2] = -1.0
    gamma[0, 2, 0] = 1.0
    gamma[1, 1, 2] = 1.0
    gamma[1, 2, 1] = -1.0
    return LeftInvariantModel("sol3", 3, (), gamma)


def hyperbolic(n: int, c: float) -> LeftInvariantModel:
    """Half-space model of constant curvature -c^2 in dimension n >= 2."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not np.inf > c > 0:
        raise ValueError("curvature scale must be positive and finite")
    gamma = np.zeros((n, n, n))
    for i in range(1, n):
        gamma[i, i, 0] = c
        gamma[i, 0, i] = -c
    return LeftInvariantModel("hyperbolic", n, (float(c),), gamma)


### Frame calculus on coefficient vectors (batched over leading axes)


def _frame_derivative(model: LeftInvariantModel, V: NDArray) -> NDArray:
    """DV[..., i, l]: coefficient of e_l in nabla_{e_i} V."""
    return np.einsum("...m,iml->...il", V, model.connection)


def _rough_laplacian(model: LeftInvariantModel, V: NDArray) -> NDArray:
    DV = _frame_derivative(model, V)
    return np.einsum("iim,...ml->...l", model.connection, DV) - np.einsum(
        "...im,iml->...l", DV, model.connection
    )


def _shape_term(model: LeftInvariantModel, V: NDArray) -> NDArray:
    """S(V)[..., l] = sum_i R(nabla_i V, V) e_i in frame coefficients."""
    DV = _frame_derivative(model, V)
    return np.einsum("abil,...ia,...b->...l", model.curvature, DV, V)


def _section_expression(model: LeftInvariantModel, V: NDArray) -> NDArray:
    """lapl(lapl V) - 2 <lapl V, V> lapl V, the quantity that must be
    collinear to V for a critical unit section (left-invariant fields make
    the inner product a constant)."""
    DeltaV = _rough_laplacian(model, V)
    A = np.einsum("...l,...l->...", DeltaV, V)
    return _rough_laplacian(model, DeltaV) - 2.0 * A[..., None] * DeltaV


def _vector_field_expression(model: LeftInvariantModel, V: NDArray) -> NDArray:
    """Adds the curvature corrections that distinguish the full bienergy
    problem from its vertical part."""
    DV = _frame_derivative(model, V)
    S = _shape_term(model, V)
    DS = _frame_derivative(model, S)
    R = model.curvature
    nR = model.curvature_gradient
    term1 = np.einsum("ibkl,...ib,...k->...l", R, DS, V)
    term2 = np.einsum("iiakl,...a,...k->...l", nR, S, V)
    term3 = 2.0 * np.einsum("iaml,...a,...im->...l", R, S, DV)
    return _section_expression(model, V) + term1 + term2 + term3


#: each problem the classifier takes, in ``lie --problem`` order, and its defining expression
_PROBLEMS = {
    "harmonic_section": _rough_laplacian,
    "biharmonic_section": _section_expression,
    "biharmonic_vector_field": _vector_field_expression,
}


def _tangent_part(E: NDArray, V: NDArray) -> NDArray:
    """Component of the expression E orthogonal to V: zero exactly on the
    critical set, with the collinearity constant eliminated."""
    coefficient = np.einsum("...l,...l->...", E, V)
    return E - coefficient[..., None] * V


@dataclass(frozen=True, eq=False)
class _CubicMap:
    """A defining expression as the odd cubic ``E(V) = V @ linear + K(V, V, V)``,
    with ``K = cubic`` symmetric in its first three indices (to roundoff).
    The sweep's points are columns (dim, n), each per-point array batch last;
    ``expression`` and the residuals take rows (..., dim) and transpose."""

    linear: NDArray
    cubic: NDArray

    def _expression_and_quadratic(self, V: NDArray) -> tuple[NDArray, NDArray]:
        """``E (dim, n)`` and ``Q[k, l, n] = K(V, V, e_k)_l`` at the points V
        (dim, n), through the (dim^2, n) pairs only, never the (dim^3, n) triples."""
        dim, n = V.shape
        pairs = (V[:, None, :] * V[None, :, :]).reshape(dim * dim, n)
        Q = (self.cubic.reshape(dim * dim, dim * dim).T @ pairs).reshape(dim, dim, n)
        return self.linear.T @ V + np.einsum("kn,kln->ln", V, Q), Q

    def expression(self, V: NDArray) -> NDArray:
        rows = V.reshape(-1, self.linear.shape[0])
        E, _ = self._expression_and_quadratic(np.ascontiguousarray(rows.T))
        return E.T.reshape(V.shape)

    def residual(self, V: NDArray) -> NDArray:
        return _tangent_part(self.expression(V), V)

    def scaled_residual(self, V: NDArray) -> tuple[NDArray, float]:
        """Tangent-residual norms at the points V (n, dim) and their scale ``1 + max |E(V)|``."""
        E = self.expression(V)
        scale = 1.0 + float(np.max(np.linalg.norm(E, axis=-1)))
        return np.linalg.norm(_tangent_part(E, V), axis=-1), scale

    def linearize(self, V: NDArray, out: NDArray) -> NDArray:
        """Projected residual F (dim, n) at the unit points V (dim, n); the
        exact Jacobian along the sphere, ``J = DF(V) (I - V V^T)``, the
        derivative of ``F(V / |V|)``, goes to ``out[:dim]`` as (dim, dim, n).
        From ``dE = M^T + 3 K(V, V, .)``: ``DF = dE - V (V^T dE + E^T) - c I``,
        ``c = E . V``, and ``J = DF - (DF V) V^T``, as broadcasts."""
        dim = V.shape[0]
        E, Q = self._expression_and_quadratic(V)
        c = np.einsum("ln,ln->n", E, V)
        DF = np.multiply(Q.transpose(1, 0, 2), 3.0, out=out[:dim])
        DF += self.linear.T[:, :, None]
        DF -= V[:, None, :] * (np.einsum("ln,lkn->kn", V, DF) + E)
        DF[range(dim), range(dim)] -= c
        DF -= np.einsum("ikn,kn->in", DF, V)[:, None, :] * V
        return E - c * V


def _cubic_map(model: LeftInvariantModel, problem: str) -> _CubicMap:
    """``M`` and ``K`` of one problem, cached on the model.

    K comes from the einsum oracle by polarization: for an odd cubic,
    ``24 K(x, y, z) = sum over s, t = +-1 of s t E(x + s y + t z)``, which
    cancels the linear part exactly; then ``M[j] = E(e_j) - K(e_j, e_j, e_j)``.
    Raises ValueError when either tensor overflows a float.
    """
    maps = model._cubic_maps
    if problem not in maps:
        if problem not in _PROBLEMS:
            raise ValueError(f"unknown problem: {problem!r}")
        expression, eye = _PROBLEMS[problem], np.eye(model.dim)
        signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        points = (
            eye[None, :, None, None, :]
            + signs[:, 0, None, None, None, None] * eye[None, None, :, None, :]
            + signs[:, 1, None, None, None, None] * eye[None, None, None, :, :]
        )
        values = expression(model, points.reshape(-1, model.dim))
        K = np.einsum("s,sabcl->abcl", signs.prod(axis=1), values.reshape(points.shape)) / 24.0
        M = expression(model, eye) - np.einsum("jjjl->jl", K)
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(K))):
            raise ValueError(f"the {problem} tensors of {model.name} with parameters {model.params} "
                             "overflow a float; rescale the model")
        maps[problem] = _CubicMap(linear=M, cubic=K)
    return maps[problem]


def _require_unit(V: NDArray, dim: int) -> NDArray:
    V = np.asarray(V, dtype=float)
    if V.shape != (dim,):
        raise ValueError(f"expected a coefficient vector of length {dim}")
    if abs(float(np.linalg.norm(V)) - 1.0) > 1e-9:
        raise ValueError("coefficient vector must have unit norm")
    return V


def critical_system_residual(model: LeftInvariantModel, V: NDArray, problem: str) -> NDArray:
    """Residual of the critical-point system for the given problem at V, with
    the collinearity constant eliminated by projecting orthogonally to V."""
    return _cubic_map(model, problem).residual(_require_unit(V, model.dim))


### Classification of the solution set on the unit sphere


@dataclass(frozen=True, eq=False)
class CriticalComponent:
    """One connected piece of the solution set.

    ``kind`` is ``"point"``, ``"circle"``, ``"hypersphere"`` or
    ``"full_sphere"``.  Families of the latitude type record the coordinate
    ``axis`` held at ``value`` and the radius of the sphere traced by the
    remaining coordinates; ``dim`` is the nullity of the system's
    linearization, which upper-bounds the local solution-manifold dimension
    (degenerate isolated points can report more than zero).
    """

    kind: str
    witnesses: NDArray
    axis: int | None
    value: float | None
    radius: float | None
    dim: int

    def describe(self) -> str:
        if self.kind == "full_sphere":
            return "full sphere"
        if self.kind == "point":
            coords = ", ".join(map(_signed, self.witnesses[0]))
            return f"point ({coords})"
        if self.kind == "cluster":
            coords = ", ".join(map(_signed, self.witnesses[0]))
            return f"unresolved cluster of dimension {self.dim} near ({coords})"
        return (
            f"{self.kind} at coordinate {self.axis} = {_signed(self.value)} "
            f"(radius {self.radius:.4f})"
        )


def _signed(x: float) -> str:
    """Four signed decimals, with a rounded zero printed as +0.0000."""
    return f"{round(float(x), 4) + 0.0:+.4f}"


@dataclass(frozen=True)
class CriticalSet:
    """The classified solution set, with the in-memory counts of how it was
    found: sphere samples, refined points that converged, clusters of those,
    Gauss-Newton sweeps run and damped steps solved in them."""

    kind: str
    components: tuple[CriticalComponent, ...]
    ambiguous: bool
    samples: int = 0
    converged: int = 0
    clusters: int = 0
    sweeps: int = 0
    steps: int = 0

    @property
    def witnesses(self) -> NDArray:
        if not self.components:
            return np.zeros((0, 0))
        return np.concatenate([c.witnesses for c in self.components], axis=0)


def _sphere_samples(dim: int, resolution: int, rng: np.random.Generator) -> NDArray:
    """Deterministic near-uniform samples of the unit sphere, plus a few
    seeded random ones to break any alignment with the grid."""
    if dim == 3:
        k = np.arange(resolution, dtype=float)
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        z = 1.0 - (2.0 * k + 1.0) / resolution
        azimuth = 2.0 * np.pi * k / golden
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        grid = np.stack([r * np.cos(azimuth), r * np.sin(azimuth), z], axis=-1)
    else:
        angles = dim - 1
        # the largest count whose grid fits the resolution, at least 2; the
        # float root may fall short of an exact power (8000 ** (1/3) is 19.999...)
        per_axis = max(2, int(resolution ** (1.0 / angles)))
        while (per_axis + 1) ** angles <= resolution:
            per_axis += 1
        polar = [np.linspace(0.0, np.pi, per_axis) for _ in range(angles - 1)]
        polar.append(np.linspace(0.0, 2.0 * np.pi, per_axis, endpoint=False))
        mesh = np.meshgrid(*polar, indexing="ij")
        flat = [m.reshape(-1) for m in mesh]
        count = flat[0].size
        grid = np.ones((count, dim))
        for axis in range(angles):
            grid[:, axis] *= np.cos(flat[axis])
            for later in range(axis + 1, dim):
                grid[:, later] *= np.sin(flat[axis])
    extra = rng.standard_normal((64, dim))
    extra /= np.linalg.norm(extra, axis=-1, keepdims=True)
    samples = np.concatenate([grid, extra], axis=0)
    return samples / np.linalg.norm(samples, axis=-1, keepdims=True)


def _least_squares(A: NDArray, b: NDArray) -> NDArray:
    """Least-squares solutions (k, n) of the stacked systems ``A x = b``, A of
    shape (m, k, n), m >= k, and of full column rank, b of shape (m, n):
    Householder QR (Golub & Van Loan, *Matrix Computations*, 5.3) in place
    (R over A, Q^T b over b), the loop over the k columns and the arithmetic
    over the n systems on the contiguous last axis; then back substitution."""
    _, k, n = A.shape
    for j in range(k):
        v = A[j:, j].copy()
        v[0] += np.copysign(np.linalg.norm(v, axis=0), v[0])
        vv = np.einsum("in,in->n", v, v)
        beta = np.divide(2.0, vv, out=np.zeros(n), where=vv > 0.0)
        projections = np.einsum("in,ijn->jn", v, A[j:, j:])
        bv = beta * v
        for column in range(j, k):  # column by column: no (m, k, n) temporary
            A[j:, column] -= bv * projections[column - j]
        b[j:] -= beta * np.einsum("in,in->n", v, b[j:]) * v
    x = np.zeros((k, n))
    for i in range(k - 1, -1, -1):
        x[i] = (b[i] - np.einsum("jn,jn->n", A[i, i + 1:], x[i + 1:])) / A[i, i]
    return x


def _refine(cubic: _CubicMap, points: NDArray, threshold: float) -> tuple[NDArray, int, int]:
    """Batched Gauss-Newton on the projected residual, constrained to the
    sphere; points that reach the threshold are frozen.  Returns the refined
    points (n, dim) (callers filter by residual), the number of sweeps run
    and the number of damped steps solved over all of them.

    Each step solves ``[J; V^T; mu I] s = [-F; 0; 0]``, ``mu = _DAMPING
    |[J; V^T]|_F`` (Levenberg-Marquardt): full column rank everywhere, and
    no component in J's null space (a family's tangent), as ``J^T F`` is
    orthogonal to it.  The ``V^T`` row holds the step off V, where ``J V``
    vanishes only to roundoff.  The system (2 dim + 1, dim, n) and its right
    side (2 dim + 1, n) are filled in place, batch last, once per sweep.

    At a root of multiplicity m steps shrink by (m - 1) / m per sweep; where
    the last two did (within 0.02) and J has collapsed, ``|J|_F <= |s|`` (the
    ``V^T`` row adds 1 to the norm formed for mu), Schroeder's step m s is
    taken, capped at length 0.3 like every step.
    """
    V = points.T.copy()
    dim, active = V.shape[0], np.arange(len(points))
    previous = np.full(len(points), np.inf)
    sweeps = steps = 0
    while sweeps < _NEWTON_ITERATIONS:
        Va, system = V.take(active, axis=1), np.zeros((2 * dim + 1, dim, len(active)))
        F = cubic.linearize(Va, system)
        moving = np.linalg.norm(F, axis=0) > 0.5 * threshold
        if not np.any(moving):
            break
        if not np.all(moving):
            # a frozen point never moves again, so it leaves the batch for good;
            # compress keeps the batch axis last and contiguous, a mask index would not
            active, Va, F, system = (x.compress(moving, axis=-1) for x in (active, Va, F, system))
        system[dim] = Va
        # |[J; V^T]|_F^2
        frobenius_sq = np.einsum("ikn,ikn->n", system[:dim + 1], system[:dim + 1])
        system[range(dim + 1, 2 * dim + 1), range(dim)] = _DAMPING * np.sqrt(frobenius_sq)
        rhs = np.zeros((2 * dim + 1, len(active)))
        np.negative(F, out=rhs[:dim])
        step = _least_squares(system, rhs)
        # released before the step update, which keeps the sweep's peak allocation down
        del system, rhs, F
        length = np.linalg.norm(step, axis=0)
        ratio, previous[active] = length / np.maximum(previous[active], 1e-300), length
        m = np.rint(1.0 / np.maximum(1.0 - ratio, 0.1))
        scale = np.where((m >= 2) & (np.abs(ratio - (m - 1) / m) <= 0.02)
                         & (frobenius_sq - 1.0 <= length * length), m, 1.0)
        step *= np.minimum(scale, 0.3 / np.maximum(length, 1e-300))
        moved = Va + step
        V[:, active] = moved / np.linalg.norm(moved, axis=0)
        sweeps += 1
        steps += len(active)
    return V.T, sweeps, steps


def _cluster_indices(points: NDArray) -> list[NDArray]:
    """Group points into connected clusters via a cell hash: points in the
    same or adjacent cells of side _CLUSTER_RADIUS are connected.  Clusters
    come in the order of their smallest point index, members in index order."""
    dim = points.shape[1]
    keys = np.round(points / _CLUSTER_RADIUS).astype(np.int64)
    keys -= keys.min(axis=0) - 1
    # every neighbouring cell has coordinates in [0, base), so codes are unique
    weights = (int(keys.max()) + 2) ** np.arange(dim, dtype=np.int64)
    cells, cell_of = np.unique(keys @ weights, return_inverse=True)
    offsets = np.stack(
        np.meshgrid(*([np.array([-1, 0, 1])] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    wanted = cells[:, None] + offsets @ weights
    slot = np.minimum(np.searchsorted(cells, wanted), len(cells) - 1)
    own = np.arange(len(cells))
    neighbours = np.where(cells[slot] == wanted, slot, own[:, None])
    # each cell takes the smallest label among its neighbours, then jumps to
    # its label's label; the fixed point labels every component by its
    # smallest cell
    label = own
    while True:
        lowest = label[neighbours].min(axis=1)
        lowest = lowest[lowest]
        if np.array_equal(lowest, label):
            break
        label = lowest
    _, first, component = np.unique(label[cell_of], return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))[component.reshape(-1)]
    members = np.argsort(rank, kind="stable")
    return np.split(members, np.cumsum(np.bincount(rank))[:-1])


def _local_structure(cubic: _CubicMap, V: NDArray) -> tuple[NDArray, NDArray]:
    """At the unit points V (n, dim), in one linearization, QR and SVD: the
    nullities of the system's linearization restricted to the sphere's
    tangent space, and ambient bases (n, dim, dim - 1) of those null spaces
    (the solution manifold's tangent directions), zero in the other columns."""
    n, dim = V.shape
    jacobian = np.empty((dim, dim, n))
    cubic.linearize(V.T, jacobian)
    # orthonormal tangent bases at V
    frames = np.concatenate([V[:, :, None], np.broadcast_to(np.eye(dim), (n, dim, dim))], axis=2)
    bases = np.linalg.qr(frames)[0][:, :, 1:dim]
    _, singular, rows = np.linalg.svd(jacobian.transpose(2, 0, 1) @ bases)
    # where the linearization vanishes, every tangent direction is null
    vanishing = singular[:, 0] <= 1e-9
    rows[vanishing] = np.eye(dim - 1)
    null = (singular < 1e-7 * singular[:, :1]) | vanishing[:, None]
    return null.sum(axis=1), (bases @ rows.transpose(0, 2, 1)) * null[:, None, :]


def _latitude_candidates(members: NDArray, starts: NDArray, means: NDArray, null_bases: NDArray) -> list:
    """Per cluster of ``members`` (sorted by cluster from ``starts``), its ``(axis, row norm,
    mean)`` ranked by the row norms of its null basis plus its members' spread."""
    row_norms = np.linalg.norm(null_bases, axis=2)
    spreads = np.maximum.reduceat(members, starts) - np.minimum.reduceat(members, starts)
    order = np.argsort(row_norms + spreads, axis=1)
    ranked = (order, np.take_along_axis(row_norms, order, 1), np.take_along_axis(means, order, 1))
    return [list(zip(*cluster)) for cluster in zip(*(x.tolist() for x in ranked))]


def _latitude_family(
    cubic: _CubicMap, members: NDArray, candidates: Sequence[tuple[int, float, float]],
    threshold: float, rng: np.random.Generator, found: Sequence[CriticalComponent] = (),
) -> tuple[int, float, float, bool]:
    """``(axis, value, radius, holds)`` of the latitude {V_axis = value} an
    extended cluster lies on; when no latitude holds, the top-ranked
    candidate with ``holds`` False.

    The coordinate absent from the solution manifold's tangent directions is
    the family's constant one.  At special points several axes can be
    tangent-orthogonal at once, so ``candidates`` come ranked (by
    :func:`_latitude_candidates`) and the first whose whole latitude (not just
    the cluster that suggested it) solves the system wins; an axis along which
    the family collapses to a pole is skipped for the next one.  A candidate with
    the signature of a family ``found`` so far holds unsampled: it was sampled then.
    """
    top = None
    for axis, row_norm, value in candidates:
        if top and row_norm > 1e-3:
            break  # this and the remaining axes are not tangent-orthogonal at all
        radius = math.sqrt(max(0.0, 1.0 - value * value))
        top = top or (axis, value, radius, False)
        if radius > 1e-3:
            if any(c.axis == axis and abs(c.value - value) <= _SIGNATURE_TOL for c in found):
                return axis, value, radius, True
            latitude = _latitude_predicate(axis, value, members.shape[1])
            points = latitude.sample(rng, 16, members.shape[1])
            points /= np.linalg.norm(points, axis=-1, keepdims=True)
            if np.all(np.linalg.norm(cubic.residual(points), axis=-1) <= 10.0 * threshold):
                return axis, value, radius, True
    return top


def _subsample(members: NDArray) -> NDArray:
    if len(members) <= 12:
        return members.copy()
    return members[np.linspace(0, len(members) - 1, 12).astype(int)]


def classify(
    model: LeftInvariantModel, problem: str, resolution: int = _RESOLUTION, seed: int = 0
) -> CriticalSet:
    """Determine the solution set of the critical system on the unit sphere.

    Dense deterministic sampling, batched Gauss-Newton refinement,
    clustering of converged solutions into points and latitude-type
    families, and a local-dimension measurement per component, in one batch.
    In one pass over the clusters, each joins the component with its
    signature as it is found (see :func:`_merge_fragment`); near-collisions
    are flagged as ambiguous rather than silently merged.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be a positive sample count, got {resolution}")
    rng = np.random.default_rng(seed)
    # sampled first: past NumPy's 64 axes it refuses before _cubic_map allocates dim^4 floats
    samples = _sphere_samples(model.dim, resolution, rng)
    cubic = _cubic_map(model, problem)
    initial, scale = cubic.scaled_residual(samples)
    threshold = _CONVERGED_REL * scale
    if np.mean(initial <= 1e-9 * scale) > 0.999:
        sphere = CriticalComponent("full_sphere", _subsample(samples), None, None, None, model.dim - 1)
        return CriticalSet(kind="full_sphere", components=(sphere,), ambiguous=False, clusters=1,
                           samples=len(samples), converged=int(np.sum(initial <= 1e-9 * scale)))

    refined, sweeps, steps = _refine(cubic, samples, threshold)
    residual = np.linalg.norm(cubic.residual(refined), axis=-1)
    solutions = refined[residual <= threshold]
    counts = dict(samples=len(samples), converged=len(solutions), sweeps=sweeps, steps=steps)
    if len(solutions) == 0:
        return CriticalSet(kind="empty", components=(), ambiguous=False, **counts)

    clusters = _cluster_indices(solutions)
    sizes = np.array([len(indices) for indices in clusters])
    starts = np.cumsum(sizes) - sizes
    # members sorted by cluster; the nearest member is the first of equals, as argmin takes it
    members = solutions[np.concatenate(clusters)]
    means = np.add.reduceat(members, starts) / sizes[:, None]
    centroids = means / np.maximum(np.linalg.norm(means, axis=1, keepdims=True), 1e-300)
    distances = np.linalg.norm(members - np.repeat(centroids, sizes, axis=0), axis=1)
    nearest = np.lexsort((distances, np.repeat(np.arange(len(sizes)), sizes)))[starts]
    nullities, null_bases = _local_structure(cubic, members[nearest])
    candidates = _latitude_candidates(members, starts, means, null_bases)
    components: list[CriticalComponent] = []
    ambiguous = False
    for start, end, local_dim, representative, ranked in zip(
        starts.tolist(), (starts + sizes).tolist(), nullities.tolist(), nearest.tolist(), candidates
    ):
        cluster = members[start:end]
        # the solution manifold is extended where local_dim > 0; a latitude of radius
        # ~ 0 is a degenerate pole, an isolated point whose linearization vanishes
        axis, value, radius, holds = (
            _latitude_family(cubic, cluster, ranked, threshold, rng, components)
            if local_dim > 0 else (None, None, 0.0, False)
        )
        if holds:
            kind = "circle" if local_dim == 1 else "hypersphere"
            fragment = CriticalComponent(kind, _subsample(cluster), axis, value, radius, local_dim)
        elif radius > 1e-3:
            # extended but not of the latitude type: report the raw cluster
            # and flag the classification as unresolved
            ambiguous = True
            fragment = CriticalComponent("cluster", _subsample(cluster), None, None, None, local_dim)
        else:
            witness = members[representative].copy()
            # degenerate roots converge slowly, leaving the witness a little
            # off; when a signed coordinate axis sits nearby and itself solves
            # the system exactly, adopt it (verified, not assumed)
            nearest_axis = int(np.argmax(np.abs(witness)))
            candidate = np.zeros(model.dim)
            candidate[nearest_axis] = np.sign(witness[nearest_axis])
            near = np.linalg.norm(witness - candidate) <= 1e-3
            if near and np.linalg.norm(cubic.residual(candidate)) <= threshold:
                witness = candidate
            fragment = CriticalComponent("point", witness[None, :], None, None, None, local_dim)
        ambiguous |= _merge_fragment(components, fragment)

    kinds = {c.kind for c in components}
    aggregate = _AGGREGATES.get(kinds.pop(), "mixed") if len(kinds) == 1 else "mixed"
    return CriticalSet(
        kind=aggregate, components=tuple(components), ambiguous=ambiguous,
        clusters=len(clusters), **counts,
    )


def _merge_fragment(components: list[CriticalComponent], fragment: CriticalComponent) -> bool:
    """Join the fragment to the component of its signature, which moves to the
    end of ``components``, or append it; True when it also falls in another's
    near-collision band.  Signatures: points within ``_SIGNATURE_TOL`` (band
    ``2 * _CLUSTER_RADIUS``), families on one axis with values within
    ``_SIGNATURE_TOL`` (band ``10 * _SIGNATURE_TOL``); clusters never join."""
    target, ambiguous = None, False
    alike = [c for c in components if c.kind == fragment.kind and c.axis == fragment.axis]
    for existing in alike if fragment.kind != "cluster" else ():
        if fragment.kind == "point":
            gap = float(np.linalg.norm(existing.witnesses[0] - fragment.witnesses[0]))
            band = 2.0 * _CLUSTER_RADIUS
        else:
            gap, band = abs(existing.value - fragment.value), 10.0 * _SIGNATURE_TOL
        if gap <= _SIGNATURE_TOL and target is None:
            target = existing
        elif gap <= band:
            ambiguous = True
    if target is not None:
        components.remove(target)
        witnesses = np.concatenate([target.witnesses, fragment.witnesses])
        fragment = replace(target, witnesses=witnesses, dim=max(target.dim, fragment.dim))
    components.append(fragment)
    return ambiguous


### Regression against the known closed-form solution sets


@dataclass(frozen=True)
class _Predicate:
    """A predicted component, as a parameterized subset of the sphere."""

    description: str
    kind: str  # "point" | "latitude" | "full_sphere"
    point: NDArray | None = None
    axis: int | None = None
    value: float | None = None

    def matches(self, component: CriticalComponent, tolerance: float) -> bool:
        """Every witness of the component lies on this predicted set."""
        if self.kind == "full_sphere":
            return component.kind == "full_sphere"
        W = component.witnesses
        if self.kind == "point":
            return component.kind == "point" and float(np.linalg.norm(W[0] - self.point)) <= tolerance
        if component.kind not in ("circle", "hypersphere"):
            return False
        rest = np.sqrt(max(0.0, 1.0 - self.value * self.value))
        others = np.linalg.norm(np.delete(W, self.axis, axis=1), axis=1)
        return bool(np.all(np.hypot(W[:, self.axis] - self.value, others - rest) <= tolerance))

    def sample(self, rng: np.random.Generator, count: int, dim: int) -> NDArray:
        if self.kind == "point":
            return np.repeat(self.point[None, :], 2, axis=0)
        if self.kind == "full_sphere":
            raw = rng.standard_normal((count, dim))
            return raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        rest = np.sqrt(max(0.0, 1.0 - self.value * self.value))
        raw = rng.standard_normal((count, dim - 1))
        raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
        return np.insert(rest * raw, self.axis, self.value, axis=1)


def _point_predicate(vector) -> _Predicate:
    point = np.asarray(vector, dtype=float)
    point = point / np.linalg.norm(point)
    return _Predicate(description=f"point ({', '.join(map(_signed, point))})", kind="point", point=point)


def _latitude_predicate(axis: int, value: float, dim: int) -> _Predicate:
    shape = "equator" if value == 0.0 else ("circle" if dim == 3 else "sphere")
    return _Predicate(
        description=f"{shape} at coordinate {axis} = {value:+.4f}",
        kind="latitude",
        axis=axis,
        value=float(value),
    )


def _axial_predicates(dim: int, axis: int, problem: str) -> list[_Predicate]:
    """The poles of an axis and its equator, then for the section problem
    the latitudes at +-1/sqrt(2)."""
    pole = np.eye(dim)[axis]
    predicates = [_point_predicate(pole), _point_predicate(-pole), _latitude_predicate(axis, 0.0, dim)]
    if problem == "biharmonic_section":
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        predicates += [_latitude_predicate(axis, inv_sqrt2, dim), _latitude_predicate(axis, -inv_sqrt2, dim)]
    return predicates


def _expected_predicates(model: LeftInvariantModel, problem: str) -> list[_Predicate]:
    dim = model.dim
    if model.name == "su2":
        lam1, lam2, lam3 = model.params
        if problem == "biharmonic_vector_field":
            # the two problems have identical solution sets on this model
            problem = "biharmonic_section"
        if lam1 == lam2 == lam3:
            return [_Predicate(description="full sphere", kind="full_sphere")]
        if lam1 == lam2:
            axis = 2
        elif lam2 == lam3:
            axis = 0
        else:
            axis = None
        if axis is not None:
            north, south, equator, *latitudes = _axial_predicates(dim, axis, problem)
            return [equator, north, south, *latitudes]
        signs = (1.0, -1.0)
        eye = np.eye(3)
        predicates = [_point_predicate(sign * e) for e in eye for sign in signs]
        if problem == "biharmonic_section":
            predicates += [
                _point_predicate(si * eye[i] + sj * eye[j])
                for i, j in combinations(range(3), 2) for si in signs for sj in signs
            ]
        return predicates

    if model.name == "sol3":
        if problem == "biharmonic_vector_field":
            raise ValueError(
                "no reference classification exists for the full bienergy "
                "problem on this model; classify() remains available for "
                "exploration"
            )
        return _axial_predicates(dim, 2, problem)

    if model.name == "hyperbolic":
        (c,) = model.params
        if dim == 2:
            return [_Predicate(description="full sphere", kind="full_sphere")]
        predicates = _axial_predicates(dim, 0, problem)
        if problem == "biharmonic_vector_field" and c * c < dim - 2:
            latitude = np.sqrt((c * c + dim - 2) / (2.0 * (dim - 2)))
            predicates += [_latitude_predicate(0, latitude, dim), _latitude_predicate(0, -latitude, dim)]
        return predicates

    raise ValueError(f"no reference classification for model {model.name!r}")


class ComparisonReport(NamedTuple):
    matched: list[str]
    missing: list[str]
    extra: list[str]
    passed: bool


def compare_known(
    model: LeftInvariantModel, problem: str, resolution: int = _RESOLUTION, seed: int = 0
) -> ComparisonReport:
    """Check the computed solution set against the known closed-form one.

    Each predicted component must be found (every witness of the matching
    component within coordinate tolerance), no computed component may be
    left over, and the predicted sets themselves are spot-verified by
    direct residual evaluation at sampled points.
    """
    predicates = _expected_predicates(model, problem)
    found = classify(model, problem, resolution=resolution, seed=seed)

    # direct verification of the prediction itself, independent of classify
    rng = np.random.default_rng(seed + 1)
    samples = np.concatenate([p.sample(rng, 50, model.dim) for p in predicates], axis=0)
    samples /= np.linalg.norm(samples, axis=-1, keepdims=True)
    direct, scale = _cubic_map(model, problem).scaled_residual(samples)
    predictions_hold = bool(np.all(direct <= 1e-9 * scale))

    coordinate_tol = 1e-6
    matched: list[str] = []
    missing: list[str] = []
    used: set[int] = set()
    for predicate in predicates:
        hit = next(
            (
                idx for idx, component in enumerate(found.components)
                if idx not in used and predicate.matches(component, coordinate_tol)
            ),
            None,
        )
        if hit is None:
            missing.append(predicate.description)
        else:
            used.add(hit)
            matched.append(predicate.description)
    extra = [c.describe() for idx, c in enumerate(found.components) if idx not in used]
    passed = not missing and not extra and predictions_hold and not found.ambiguous
    return ComparisonReport(matched=matched, missing=missing, extra=extra, passed=passed)
