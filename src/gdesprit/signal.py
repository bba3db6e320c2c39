"""Exponential-sum models and sampled sequences on lattice domains.

On a product-set domain (a box, gaps allowed) the node-power matrix
V[x, k] = exp(<x, zeta_k>) is the Khatri-Rao product of one table per axis.
One rule, :func:`_axis_tables`, decides when those tables stand in for V: a
product set whose summed per-axis exponent bound is within
``AXIS_EXPONENT_LIMIT``.  Model evaluation and the estimator's coefficient
fit both follow it, and form V only where it refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import IndexSet, _number, _readonly
from .errors import DomainError, GenerationError, NonFiniteError

# Node vectors closer than this (max over dimensions, in node space) count as
# colliding during random generation.
NODE_COLLISION_TOL = 1e-6

# Redraws of colliding node vectors before random generation gives up.
COLLISION_RETRIES = 100

_LAYOUTS = ("uniform_imag", "spiral", "random_complex")

# Largest sum_p max |x_p Re zeta_kp| at which a product set uses its per-axis
# tables.  The tables' Gram matrix multiplies two entries per axis, so its
# partial products stay within exp(+-700), inside the float64 range.
AXIS_EXPONENT_LIMIT = 350.0


@dataclass(frozen=True)
class ExponentialModel:
    """Finite sum of d-variate exponentials.

    Parameters
    ----------
    dim:
        Number of lattice dimensions d.
    zetas:
        Complex array of shape (K, d); row k holds the frequency vector of
        term k.  The node vector of term k is exp(zetas[k]) elementwise.
    coeffs:
        Complex array of shape (K,) with nonzero entries.
    """

    dim: int
    zetas: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _number(self.dim, "dimension", integral=True, minimum=1))
        z = np.asarray(self.zetas, dtype=np.complex128)
        if z.ndim == 1:
            z = z.reshape(-1, 1)
        if z.ndim != 2 or z.shape[1] != self.dim or z.shape[0] < 1:
            raise DomainError(f"zetas must have shape (K, {self.dim}), got {z.shape}")
        c = np.asarray(self.coeffs, dtype=np.complex128).ravel()
        if c.shape[0] != z.shape[0]:
            raise DomainError(f"{z.shape[0]} frequency rows but {c.shape[0]} coefficients")
        if np.any(c == 0):
            raise DomainError("coefficients must be nonzero")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(c))):
            raise NonFiniteError("model parameters must be finite")
        lam = np.exp(z)
        same = np.all(lam[:, None, :] == lam[None, :, :], axis=2)
        same &= ~np.eye(z.shape[0], dtype=bool)
        if same.any():
            i, j = np.argwhere(same)[0]
            raise DomainError(f"terms {i} and {j} share the same node vector")
        object.__setattr__(self, "zetas", _readonly(z))
        object.__setattr__(self, "coeffs", _readonly(c))

    @property
    def order(self) -> int:
        return self.zetas.shape[0]

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node vectors exp(zeta), shape (K, d)."""
        return _readonly(np.exp(self.zetas))


@dataclass(frozen=True)
class MdSequence:
    """Complex samples aligned with the canonical order of a domain."""

    domain: IndexSet
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128).ravel()
        if v.shape[0] != len(self.domain):
            raise DomainError(
                f"{v.shape[0]} values for a domain of {len(self.domain)} points"
            )
        bad = v.size - int(np.count_nonzero(np.isfinite(v)))
        if bad:
            raise NonFiniteError(f"{bad} of {v.size} sample values are not finite")
        object.__setattr__(self, "values", _readonly(v))

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


def _axis_powers(values: np.ndarray, z: np.ndarray) -> np.ndarray:
    """exp(v z_k) for every axis value v and frequency z_k, shape (len(values), K),
    from one cos, one sin and one real exp table."""
    v = values.astype(np.float64)
    angle = np.multiply.outer(v, z.imag)
    table = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=table.real)
    np.sin(angle, out=table.imag)
    modulus = np.exp(np.multiply.outer(v, z.real))
    table.real *= modulus
    table.imag *= modulus
    return table


def _axis_tables(domain: IndexSet, zetas: np.ndarray) -> list[np.ndarray] | None:
    """The per-axis tables T_p = exp(v zeta_kp) over axis p's distinct values
    v, or None where the node-power matrix must be formed instead.

    On a product set (``len(domain) == prod(len(values_p))``) row x of
    ``vandermonde(domain, zetas)`` is the elementwise product of the rows
    T_p[x_p], so V is the Khatri-Rao product of the tables in canonical
    order (first coordinate fastest).  None on any other domain, and where
    sum_p max |x_p Re zeta_kp| exceeds ``AXIS_EXPONENT_LIMIT``: there one
    table can overflow or underflow while V itself is representable.
    """
    axes = domain.axes
    if len(domain) != math.prod(len(values) for values, _ in axes):
        return None
    bound = sum(
        float(np.abs(values[[0, -1]]).max()) * float(np.abs(zetas[:, p].real).max())
        for p, (values, _) in enumerate(axes)
    )
    if not bound <= AXIS_EXPONENT_LIMIT:
        return None
    return [_axis_powers(values, zetas[:, p]) for p, (values, _) in enumerate(axes)]


def vandermonde(domain: IndexSet, zetas: np.ndarray) -> np.ndarray:
    """Matrix of node powers exp(<j, zeta_k>) over the domain's canonical order.

    Shape (len(domain), K).  Column k evaluates term k at every lattice point,
    which for integer points equals the multi-index power of the node vector.
    The package forms it only where :func:`_axis_tables` refuses (a domain
    that is not a product set, or past the exponent guard) and for the
    estimator's SVD-based coefficient fallback.

    The phase is a product of one unit-modulus factor per dimension,
    exp(i x_p Im zeta_p), gathered by coordinate rank from a cos/sin table
    over that dimension's distinct values (``IndexSet.axes``), so cos and sin
    run on sum_p n_p K entries instead of n K.  The modulus exp(<x, Re zeta>)
    is one real matmul and one real ``exp`` over all entries, so it overflows
    and underflows only where the whole product does.  No complex ``exp`` is
    taken: numpy's ran about ten times slower right after a complex BLAS call
    (37 vs 3 ms on 1681x40 on an AVX-512 Xeon with OpenBLAS), and the
    estimator calls this right after complex BLAS work.
    """
    z = np.asarray(zetas, dtype=np.complex128)
    z = z[:, None] if z.ndim == 1 else z  # 1-d zetas are one column
    if z.shape[1] != domain.dim:
        raise DomainError(f"dimension mismatch: domain {domain.dim}, zetas {z.shape[1]}")
    for p, (values, rank) in enumerate(domain.axes):
        table = _axis_powers(values, 1j * z.imag[:, p])  # unit-modulus phase factor
        if p == 0:
            out = table[rank]
        else:
            out *= table[rank]
    modulus = np.exp(domain.as_array.astype(np.float64) @ z.real.T)
    out.real *= modulus
    out.imag *= modulus
    return out


def eval_model(model: ExponentialModel, omega: IndexSet) -> MdSequence:
    """Evaluate the model on every point of ``omega``.

    Where :func:`_axis_tables` gives the per-axis tables, the values are one
    Khatri-Rao contraction of them with the coefficients, last axis first,
    at O(nK) time and O(nK / n_1) memory; V is never formed.  Elsewhere they
    are ``vandermonde(omega, zetas) @ coeffs``.  Values that overflow raise
    :class:`NonFiniteError` from :class:`MdSequence`.
    """
    if omega.dim != model.dim:
        raise DomainError(f"dimension mismatch: domain {omega.dim}, model {model.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _axis_tables(omega, model.zetas)
        if tables is None:
            values = vandermonde(omega, model.zetas) @ model.coeffs
        else:
            # rows of acc run over the axes already contracted, the newest fastest
            acc = model.coeffs[None, :]
            for T in tables[:0:-1]:
                acc = (acc[:, None, :] * T).reshape(-1, model.order)
            values = (acc @ tables[0].T).ravel()
    return MdSequence(omega, values)


def add_noise(f: MdSequence, ratio: float, rng: np.random.Generator) -> MdSequence:
    """Additive complex Gaussian noise scaled to an exact energy ratio.

    The returned sequence is f + e with ||e||_2 / ||f||_2 equal to ``ratio``
    up to a few ulp.  ``ratio=0`` returns an identical copy.
    """
    if _number(ratio, "the noise ratio", minimum=0) == 0:
        return MdSequence(f.domain, f.values)
    signal_norm = np.linalg.norm(f.values)
    if signal_norm == 0:
        raise DomainError("cannot scale noise relative to an all-zero signal")
    n = len(f.domain)
    e = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    e *= ratio * signal_norm / np.linalg.norm(e)
    return MdSequence(f.domain, f.values + e)


def _colliding(nodes: np.ndarray) -> np.ndarray:
    diff = np.abs(nodes[:, None, :] - nodes[None, :, :]).max(axis=2)
    np.fill_diagonal(diff, np.inf)
    return np.unique(np.argwhere(diff < NODE_COLLISION_TOL)[:, 0])


def _recipe(K, d, layout, damping_bound) -> tuple[int, int, float]:
    """The checked order, dimension and damping bound of a random-model
    recipe; any recipe :func:`random_model` cannot draw raises DomainError."""
    K = _number(K, "the model order", integral=True, minimum=1)
    d = _number(d, "the dimension", integral=True, minimum=1)
    if layout not in _LAYOUTS:
        raise DomainError(f"unknown layout {layout!r}; expected one of {_LAYOUTS}")
    damping_bound = _number(damping_bound, "damping_bound", minimum=0)
    if damping_bound and layout != "random_complex":
        raise DomainError(
            f"the {layout} layout is undamped and takes no damping_bound, got {damping_bound}; "
            "use the random_complex layout"
        )
    if layout == "spiral" and d != 2:
        raise DomainError("the spiral layout is only defined for d=2")
    return K, d, damping_bound


def random_model(
    K: int,
    d: int,
    rng: np.random.Generator,
    layout: str = "uniform_imag",
    damping_bound: float = 0.0,
) -> ExponentialModel:
    """Draw a random model with pairwise well-separated node vectors.

    Layouts:

    * ``uniform_imag``: purely oscillatory, each frequency coordinate i*theta
      with theta uniform on (-pi, pi).
    * ``spiral`` (d=2 only): deterministic frequencies i*(r_k cos(phi_k),
      r_k sin(phi_k)) with phi_k = 4*pi*k/K and r_k = pi*k/K, k = 1..K.
    * ``random_complex``: real part uniform in [-damping_bound, damping_bound],
      imaginary part uniform on (-pi, pi).

    K or d below 1, an unknown layout, a negative damping bound, a nonzero one
    on an undamped layout or a spiral with d != 2 is a :class:`DomainError`,
    by the rule ``harness.ModelRecipe`` also applies.

    Coefficients have modulus uniform in [0.5, 1.5] and uniform phase.
    Colliding node vectors (closer than ``NODE_COLLISION_TOL``) are redrawn
    up to ``COLLISION_RETRIES`` times, then :class:`GenerationError`.
    """
    K, d, damping_bound = _recipe(K, d, layout, damping_bound)
    if layout == "spiral":
        k = np.arange(1, K + 1)
        r = np.pi * k / K
        phi = 4 * np.pi * k / K
        zetas = 1j * np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
        if _colliding(np.exp(zetas)).size:
            raise GenerationError(f"spiral layout with K={K} produces colliding nodes")
    else:
        def draw(count: int) -> np.ndarray:
            imag = 1j * rng.uniform(-np.pi, np.pi, size=(count, d))
            if layout == "uniform_imag":
                return imag
            return rng.uniform(-damping_bound, damping_bound, size=(count, d)) + imag

        zetas = draw(K)
        for _ in range(COLLISION_RETRIES):
            bad = _colliding(np.exp(zetas))
            if bad.size == 0:
                break
            zetas[bad] = draw(bad.size)
        else:
            raise GenerationError(
                f"could not draw {K} separated node vectors in {COLLISION_RETRIES} retries"
            )
    coeffs = rng.uniform(0.5, 1.5, size=K) * np.exp(2j * np.pi * rng.uniform(size=K))
    return ExponentialModel(dim=d, zetas=zetas, coeffs=coeffs)
