"""Independent reference implementations used to verify expected values.

Everything here is deliberately written in plain Python (sets, dicts,
cmath, explicit loops) or via a mathematically different route (polynomial
root finding), so that agreement with the package is meaningful.
"""

from __future__ import annotations

import cmath
import functools

import numpy as np


def canonical_sort_ref(points):
    """Reference ordering: unique points sorted by reversed coordinate tuple."""
    return sorted({tuple(int(c) for c in p) for p in points}, key=lambda p: p[::-1])


def minkowski_ref(a_points, b_points):
    """Set-comprehension Minkowski sum, canonically ordered."""
    sums = {
        tuple(x + y for x, y in zip(pa, pb))
        for pa in a_points
        for pb in b_points
    }
    return canonical_sort_ref(sums)


def erode_ref(omega_points, xi_points):
    """All t with t + x inside omega for every x; canonically ordered."""
    omega = {tuple(p) for p in omega_points}
    xi = [tuple(p) for p in xi_points]
    d = len(xi[0])
    lo = [min(p[i] for p in omega) - max(x[i] for x in xi) for i in range(d)]
    hi = [max(p[i] for p in omega) - min(x[i] for x in xi) for i in range(d)]
    out = []
    def rec(prefix):
        i = len(prefix)
        if i == d:
            t = tuple(prefix)
            if all(tuple(a + b for a, b in zip(t, x)) in omega for x in xi):
                out.append(t)
            return
        for v in range(lo[i], hi[i] + 1):
            rec(prefix + [v])
    rec([])
    return canonical_sort_ref(out)


def fibers_ref(points, p):
    """Group points by all coordinates except the (1-based) p-th."""
    groups = {}
    for pt in canonical_sort_ref(points):
        frozen = pt[: p - 1] + pt[p:]
        groups.setdefault(frozen, []).append(pt)
    return groups


def convex_fibers_ref(points, p):
    """True when every dimension-p fiber is a gap-free run of length >= 2."""
    for members in fibers_ref(points, p).values():
        coords = sorted(m[p - 1] for m in members)
        if len(coords) < 2:
            return False
        if coords[-1] - coords[0] != len(coords) - 1:
            return False
    return True


def capacity_ref(points):
    """min over dimensions of (#points - #fibers in that dimension)."""
    pts = canonical_sort_ref(points)
    d = len(pts[0])
    return min(len(pts) - len(fibers_ref(pts, p)) for p in range(1, d + 1))


def hankel_ref(value_map, xi_points, ups_points):
    """Dict-lookup sum-indexed matrix; raises KeyError on a missing sum."""
    xi = canonical_sort_ref(xi_points)
    ups = canonical_sort_ref(ups_points)
    return np.array(
        [
            [value_map[tuple(a + b for a, b in zip(x, y))] for y in ups]
            for x in xi
        ],
        dtype=np.complex128,
    )


def block_hankel_ref(tensor, N):
    """Cube block matrix via explicit vectorized-index loops.

    Entry (n, m) holds tensor at the coordinate sum of the n-th and m-th
    points of the N-cube under the ordering where coordinate 1 varies
    fastest.
    """
    arr = np.asarray(tensor)
    d = arr.ndim
    def unrank(r):
        out = []
        for _ in range(d):
            out.append(r % N)
            r //= N
        return tuple(out)
    size = N ** d
    H = np.empty((size, size), dtype=np.complex128)
    for n in range(size):
        xn = unrank(n)
        for m in range(size):
            ym = unrank(m)
            H[n, m] = arr[tuple(a + b for a, b in zip(xn, ym))]
    return H


def cube_esprit_ref(tensor, N, K, seed=0):
    """Kronecker-structured ESPRIT on a d-cube of samples; (K, d) nodes.

    ``tensor`` has side 2N-1 in every dimension, coordinate 1 on the first
    axis.  The signal subspace is the top K left singular vectors of
    ``block_hankel_ref(tensor, N)``.  The unit shift along dimension p uses
    the selection matrices I x ... x [I_{N-1} 0] x ... x I and
    I x ... x [0 I_{N-1}] x ... x I (Kronecker factors from dimension d down
    to 1, since coordinate 1 varies fastest), one ``lstsq`` per dimension.
    The shift matrices are diagonalized together by the eigenvectors of a
    random real combination of them.
    """
    arr = np.asarray(tensor)
    d = arr.ndim
    U = np.linalg.svd(block_hankel_ref(arr, N))[0][:, :K]
    eye = np.eye(N)

    def select(p, J):
        return functools.reduce(np.kron, [J if q == p else eye for q in reversed(range(d))])

    shifts = [
        np.linalg.lstsq(select(p, eye[:-1]) @ U, select(p, eye[1:]) @ U, rcond=None)[0]
        for p in range(d)
    ]
    combo = np.random.default_rng(seed).standard_normal(d)
    _, T = np.linalg.eig(sum(c * A for c, A in zip(combo, shifts)))
    T_inv = np.linalg.inv(T)
    return np.stack([np.diag(T_inv @ A @ T) for A in shifts], axis=1)


def eval_ref(zetas, coeffs, points):
    """Scalar-loop evaluation of an exponential sum."""
    out = []
    for pt in points:
        acc = 0j
        for zeta, c in zip(zetas, coeffs):
            acc += c * cmath.exp(sum(z * x for z, x in zip(zeta, pt)))
        out.append(acc)
    return np.array(out, dtype=np.complex128)


def vandermonde_ref(points, zetas):
    """Node-power matrix, one ``eval_ref`` column per frequency vector.

    Each entry is one cmath.exp of sum_i zeta_i x_i over the point's own
    (Python int) coordinates, one row per point in the given order.
    """
    return np.column_stack([eval_ref([zeta], [1.0], points) for zeta in zetas])


def shift_ref(U, points, p):
    """Least-squares shift matrix of U along dimension p (1-based).

    Pairs every point x of the canonically ordered set whose successor
    x + e_p is also in it, and solves U[x rows] A = U[successor rows] with
    ``np.linalg.lstsq``; no orthonormality of U is assumed.
    """
    pts = canonical_sort_ref(points)
    position = {pt: i for i, pt in enumerate(pts)}
    pairs = []
    for pt in pts:
        successor = pt[: p - 1] + (pt[p - 1] + 1,) + pt[p:]
        if successor in position:
            pairs.append((position[pt], position[successor]))
    minus, plus = (list(rows) for rows in zip(*pairs))
    U = np.asarray(U, dtype=np.complex128)
    return np.linalg.lstsq(U[minus], U[plus], rcond=None)[0]


def prony_1d(samples, K):
    """Root-finding frequency recovery from consecutive 1-d samples.

    Solves the length-K linear recurrence satisfied by the samples in the
    least-squares sense, then takes the roots of the characteristic
    polynomial.  Returns the K frequencies (principal logarithm of the
    roots) in no particular order.
    """
    arr = np.asarray(samples, dtype=np.complex128).ravel()
    L = arr.size
    if L < 2 * K:
        raise ValueError(f"need at least {2 * K} samples for {K} terms, got {L}")
    rows = L - K
    A = np.empty((rows, K), dtype=np.complex128)
    for i in range(rows):
        A[i] = arr[i : i + K]
    rhs = -arr[K : K + rows]
    rec, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    # polynomial z^K + rec[K-1] z^{K-1} + ... + rec[0]
    poly = np.concatenate(([1.0 + 0j], rec[::-1]))
    roots = np.roots(poly)
    zetas = np.log(roots)
    zetas = np.where(zetas.imag == -np.pi, zetas.conj(), zetas)
    return zetas


def prony_coeffs_1d(samples, zetas):
    """Least-squares coefficients at positions 0..L-1 for given frequencies."""
    arr = np.asarray(samples, dtype=np.complex128).ravel()
    positions = np.arange(arr.size)
    V = np.exp(np.outer(positions, np.asarray(zetas)))
    coeffs, *_ = np.linalg.lstsq(V, arr, rcond=None)
    return coeffs


def weyl_jump_bracket(clean_matrices, noise_matrices, K):
    """Bounds on the median-spectrum jump sigma_K / sigma_{K+1} of H = H_s + E.

    One clean matrix H_s of rank K and one noise matrix E per trial.  Weyl's
    inequalities give, for each trial,

        sigma_K(H_s) - ||E|| <= sigma_K(H) <= sigma_K(H_s) + ||E||,
        sigma_{2K+1}(E) <= sigma_{K+1}(H) <= ||E||,

    and an entrywise inequality between per-trial values survives taking the
    median over trials.  So the ratio of the medians of sigma_K(H) and
    sigma_{K+1}(H) lies in

        [median(sigma_K(H_s) - ||E||) / median(||E||),
         median(sigma_K(H_s) + ||E||) / median(sigma_{2K+1}(E))],

    whatever estimator assembles and decomposes H.  Returns (lower, upper).
    When E has fewer than 2K+1 singular values, sigma_{2K+1}(E) counts as 0.
    """
    signal_k, noise_norm, noise_floor = [], [], []
    for Hs, E in zip(clean_matrices, noise_matrices):
        s = np.linalg.svd(Hs, compute_uv=False)
        e = np.linalg.svd(E, compute_uv=False)
        signal_k.append(s[K - 1])
        noise_norm.append(e[0])
        noise_floor.append(e[2 * K] if e.size > 2 * K else 0.0)
    signal_k, noise_norm = np.array(signal_k), np.array(noise_norm)
    lower = np.median(signal_k - noise_norm) / np.median(noise_norm)
    upper = np.median(signal_k + noise_norm) / np.median(noise_floor)
    return float(lower), float(upper)
