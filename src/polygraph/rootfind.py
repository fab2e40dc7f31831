"""All complex roots of univariate polynomials, with multiplicities.

`roots_batch` deflates exact zeros at the origin, buckets the rows by the
degree that remains and takes the eigenvalues of each bucket's stacked
companion matrices in one `eigvals` call (LAPACK zgeev balances them first;
the method of `np.roots`, backward stable by Edelman & Murakami 1995).  A
row is accepted only if every eigenvalue's residual is within 64 times the
evaluation-noise bound, so a row's result does not depend on the other
rows of the call; `roots` is a batch of one.

A multiplicity-m root comes out as a cluster of eigenvalues of radius about
eps**(1/m).  Rows with close eigenvalues are clustered by how well the
reconstructed product matches the input coefficients, and each multiple
root is re-polished on the (m-1)-th derivative, where it is simple.  Every
root then gets multiplicity-corrected Newton steps, and residuals |p(root)|
are reported against a Horner evaluation-noise bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError, eigvals

from .errors import DomainError, RootFindingError, ZeroPolynomialError
from .unipoly import UniPoly, from_roots as _expand_roots

DEFAULT_TOL = 1e-12
POLISH_STEPS = 3
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Root:
    value: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...]
    residual_bound: float
    reconstruction_error: float
    degree: int
    lead: complex
    var: str = "x"

    def values(self) -> list[complex]:
        return [r.value for r in self.roots]

    def with_multiplicity(self) -> list[tuple[complex, int]]:
        return [(r.value, r.multiplicity) for r in self.roots]

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)


def roots(p: UniPoly, tol: float = DEFAULT_TOL) -> RootSet:
    """Find all roots of p with multiplicities (exact inputs are converted)."""
    (rs,) = roots_batch([p], tol)
    if rs.degree < 1:
        raise DomainError("root finding needs degree >= 1", degree=rs.degree)
    return rs


def roots_batch(polys: Sequence[UniPoly], tol: float = DEFAULT_TOL) -> list[RootSet]:
    """Roots of every polynomial in one pass; entry k belongs to polys[k].

    Roots come sorted by real part rounded to 1e-9 * (1 + max |root|) of the
    row, then by imaginary part, so rounding noise in equal real parts
    cannot reorder them.  A constant row gets a RootSet with no roots.
    Raises ZeroPolynomialError for a zero row, and RootFindingError with
    payload ``row=k`` for the first row k (in input order) that fails the
    residual check; its ``best`` holds that row's eigenvalues (NaN where
    LAPACK rejected the row).
    """
    results: list[RootSet | None] = [None] * len(polys)
    buckets: dict[tuple[int, int], list[int]] = {}
    rows: list[np.ndarray] = []
    for k, p in enumerate(polys):
        if p.is_zero:
            raise ZeroPolynomialError("cannot take roots of the zero polynomial")
        c = np.array(p.to_float().coeffs, dtype=complex)
        rows.append(c)
        n_zero = int(np.argmax(c != 0))
        buckets.setdefault((len(c) - 1 - n_zero, n_zero), []).append(k)

    solved = []
    failed: list[tuple[int, np.ndarray]] = []
    for (_, n_zero), ks in buckets.items():
        full = np.array([rows[k] for k in ks])
        z, bad = _eigen_roots(full[:, n_zero:])
        failed += [(ks[i], z[i]) for i in np.flatnonzero(bad)]
        solved.append((ks, full, n_zero, z))
    if failed:
        k, best = min(failed, key=lambda kb: kb[0])
        raise RootFindingError(
            "companion eigenvalues failed the residual check",
            best=[complex(v) for v in best],
            row=k,
        )

    for ks, full, n_zero, z in solved:
        fast = _separated(z, tol)
        done = np.flatnonzero(fast)
        var = [polys[ks[i]].var for i in done]
        ones = np.ones(z.shape[1], dtype=int)
        # + 0.0 turns a -0.0 part into +0.0, as the cluster mean of one eigenvalue does.
        for i, rs in zip(done, _finish(full[fast], z[fast] + 0.0, ones, n_zero, var)):
            results[ks[i]] = rs
        for i in np.flatnonzero(~fast):
            c = full[i, n_zero:]
            clusters = [_refine_cluster(v, m, c) for v, m in _best_clustering(z[i], c, tol)]
            vals = np.array([[v for v, _ in clusters]])
            mult = np.array([m for _, m in clusters])
            (results[ks[i]],) = _finish(full[i : i + 1], vals, mult, n_zero, [polys[ks[i]].var])
    return results


def poly_from_roots(root_set, lead=None, var: str | None = None) -> UniPoly:
    """Expand lead * prod (v - r_i)**m_i; the verification oracle for roots()."""
    if isinstance(root_set, RootSet):
        pairs = root_set.with_multiplicity()
        lead = root_set.lead if lead is None else lead
        var = root_set.var if var is None else var
    else:
        pairs = [(complex(v), int(m)) for v, m in root_set]
        lead = 1.0 if lead is None else lead
        var = "x" if var is None else var
    flat = [v for v, m in pairs for _ in range(m)]
    return _expand_roots(flat, complex(lead), var)


# -- array kernels: c is (rows, deg+1) low to high, z is (rows, k) --------------


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(z)
    for k in range(c.shape[1] - 1, -1, -1):
        acc = acc * z + c[:, k : k + 1]
    return acc


def _derivative(c: np.ndarray) -> np.ndarray:
    return c[:, 1:] * np.arange(1, c.shape[1])


def _noise(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Evaluation-noise bound for |p| at radii r (Horner roundoff model)."""
    n = c.shape[1] - 1
    terms = np.abs(c)[:, None, :] * np.power(r[..., None], np.arange(n + 1))
    return 4.0 * (2 * n + 1) * _EPS * terms.sum(axis=-1) + 1e-300


def _expand(lead: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Coefficients of lead * prod_j (x - z[:, j]), one row per row of z."""
    prod = lead[:, None]
    for j in range(z.shape[1]):
        nxt = np.zeros((len(prod), prod.shape[1] + 1), dtype=complex)
        nxt[:, 1:] = prod
        nxt[:, :-1] -= z[:, j : j + 1] * prod
        prod = nxt
    return prod


def _reconstruction_error(c: np.ndarray, z: np.ndarray, n_zero: int = 0) -> np.ndarray:
    """Relative coefficient mismatch of c[:, -1] * x**n_zero * prod (x - z)
    against c, whose n_zero low coefficients are exactly 0."""
    prod = _expand(c[:, -1], z)
    return np.max(np.abs(prod - c[:, n_zero:]), axis=1) / np.max(np.abs(c), axis=1)


# -- companion-matrix eigenvalues ----------------------------------------------


def _eigen_roots(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots (rows, n) and a per-row failure mask for the rows of c.

    A row fails unless every root has |p| within 64*noise; a row LAPACK
    rejects (say, one whose coefficients overflow the companion matrix)
    gets NaN roots and fails.
    """
    rows, n = c.shape[0], c.shape[1] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        if n <= 1:  # no roots, or the closed form of degree 1
            z = -c[:, :n] / c[:, n:]
        else:
            comp = np.zeros((rows, n, n), dtype=complex)
            comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
            comp[:, 0, :] = -c[:, -2::-1] / c[:, -1:]
            z = _eigvals(comp)
        ok = np.abs(_horner(c, z)) <= 64.0 * _noise(c, np.abs(z))
    return z, ~ok.all(axis=1)


def _eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of the stack m; NaN for one LAPACK rejects."""
    try:
        return eigvals(m)
    except LinAlgError:
        if len(m) == 1:
            return np.full(m.shape[:2], np.nan, dtype=complex)
        return np.concatenate([_eigvals(m[i : i + 1]) for i in range(len(m))])


# -- multiplicity clustering and polishing -------------------------------------


def _cluster_base(tol: float) -> float:
    return max(tol, 64.0 * _EPS)


def _separated(z: np.ndarray, tol: float) -> np.ndarray:
    """Rows whose eigenvalues are farther apart than any cluster radius.

    For such a row `_best_clustering` returns the eigenvalues as singletons,
    because no candidate radius base**(1/m) * (1 + max|z|) joins two of them.
    """
    n = z.shape[1]
    if n <= 1:
        return np.ones(len(z), dtype=bool)
    dist = np.abs(z[:, :, None] - z[:, None, :])
    dist[:, np.arange(n), np.arange(n)] = np.inf
    reach = _cluster_base(tol) ** (1.0 / n) * (1.0 + np.max(np.abs(z), axis=1))
    return dist.min(axis=(1, 2)) > reach


def _single_linkage(z: np.ndarray, threshold_rel: float) -> list[list[int]]:
    n = len(z)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            scale = 1.0 + max(abs(z[i]), abs(z[j]))
            if abs(z[i] - z[j]) <= threshold_rel * scale:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def _best_clustering(z: np.ndarray, c: np.ndarray, tol: float) -> list[tuple[complex, int]]:
    """Try cluster radii tol**(1/m) for rising tentative multiplicity m.

    More merging is preferred whenever it reconstructs the coefficients
    essentially as well as no merging, because a merged cluster is only
    wrong if two genuinely distinct roots were joined, and that shows up
    as a reconstruction mismatch.
    """
    n = len(z)
    base = _cluster_base(tol)
    seen: list[tuple[float, list[tuple[complex, int]]]] = []
    for m_try in range(1, n + 1):
        groups = _single_linkage(z, base ** (1.0 / m_try))
        clusters = [(complex(np.mean(z[g])), len(g)) for g in groups]
        flat = np.array([[v for v, m in clusters for _ in range(m)]])
        seen.append((float(_reconstruction_error(c[None, :], flat)[0]), clusters))
    best_err = min(e for e, _ in seen)
    floor = max(4.0 * best_err, 1e-11)
    return min((cl for e, cl in seen if e <= floor), key=len)


def _refine_cluster(v: complex, m: int, c: np.ndarray) -> tuple[complex, int]:
    """Polish a multiplicity-m root on p**(m-1) where it is simple."""
    if m <= 1:
        return v, m
    d = c[None, :]
    for _ in range(m - 1):
        d = _derivative(d)
    dd = _derivative(d)
    best = v
    best_val = abs(_horner(d, np.array([[v]]))[0, 0])
    cur = v
    for _ in range(8):
        fv = _horner(d, np.array([[cur]]))[0, 0]
        fd = _horner(dd, np.array([[cur]]))[0, 0]
        if fd == 0:
            break
        cur = cur - fv / fd
        val = abs(_horner(d, np.array([[cur]]))[0, 0])
        if val < best_val:
            best, best_val = cur, val
        else:
            break
    return complex(best), m


def _polish(c: np.ndarray, z: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicity-corrected Newton steps on c, as one masked pass.

    Each root keeps the best |p| seen and stops at the first step that does
    not improve it (or meets p' = 0).  Returns the roots and their |p|.
    """
    dc = _derivative(c)
    best = z
    pv = _horner(c, z)
    best_val = np.abs(pv)
    going = np.ones(z.shape, dtype=bool)
    # A diverging step shows up as an inf or nan |p| and is never kept.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(POLISH_STEPS):
            fd = _horner(dc, best)
            going &= fd != 0
            if not going.any():
                break
            step = np.where(going, mult * pv / np.where(going, fd, 1.0), 0.0)
            cur = best - step
            pv_cur = _horner(c, cur)
            val = np.abs(pv_cur)
            going &= val < best_val
            best = np.where(going, cur, best)
            best_val = np.where(going, val, best_val)
            pv = np.where(going, pv_cur, pv)
            if not going.any():
                break
    return best, best_val


def _finish(
    full: np.ndarray, z: np.ndarray, mult: np.ndarray, n_zero: int, var: list[str]
) -> list[RootSet]:
    """RootSets for the rows of full: nonzero roots z, n_zero roots at 0.

    Column j of z has multiplicity mult[j] in every row (all ones on the
    separated path; the cluster path passes one row at a time).
    """
    vals, residuals = _polish(full, z, mult)
    bounds = np.max(_noise(full, np.abs(vals)), axis=1, initial=1e-300)
    recon = _reconstruction_error(full, np.repeat(vals, mult, axis=1), n_zero)
    if n_zero:
        vals = np.pad(vals, ((0, 0), (0, 1)))
        residuals = np.pad(residuals, ((0, 0), (0, 1)))
        mult = np.append(mult, n_zero)
    # Real parts equal up to rounding noise must compare equal, so the
    # imaginary part, not the last bits, orders such roots.
    grid = 1e-9 * (1.0 + np.max(np.abs(vals), axis=1, initial=0.0))
    order = np.lexsort((vals.imag, np.rint(vals.real / grid[:, None])))
    vals = np.take_along_axis(vals, order, axis=1).tolist()
    residuals = np.take_along_axis(residuals, order, axis=1).tolist()
    mults = mult[order].tolist()
    degree = full.shape[1] - 1
    return [
        RootSet(
            roots=tuple(map(Root, vals[i], mults[i], residuals[i])),
            residual_bound=float(bounds[i]),
            reconstruction_error=float(recon[i]),
            degree=degree,
            lead=complex(full[i, -1]),
            var=var[i],
        )
        for i in range(len(full))
    ]
