"""All complex roots of univariate polynomials, with multiplicities.

`roots_of_rows` is the one root-finding kernel.  It takes a stacked
(rows, width) complex array of coefficients, low to high, tests each row
for finiteness once, trims rounding debris off the top of each row
(`_trimmed_lengths`, reusing that test) unless it is given each row's
length, deflates exact zeros at the origin, buckets the rows by the
degree that remains and the number of those zeros, and takes each
bucket's first roots at once: degrees 1 and 2 by closed forms (degree 2
by the scaled, cancellation-free quadratic formula), degree >= 3 by the
eigenvalues of the bucket's stacked companion matrices in one `eigvals`
call (LAPACK zgeev balances them first; the method of `np.roots`,
backward stable by Edelman & Murakami 1995).  The rows are sorted by bucket once,
so each bucket is a slice, and one np.errstate covers the whole call.  A
row is accepted only if every root's residual is within 64 times the
evaluation-noise bound plus what the rounding of the root itself can
cause, so a row's result does not depend on the other rows of the call.
It returns each row's roots as sorted (value, multiplicity) pairs, the
shape `roots_batch` and `neighbors` return, and it alone judges whether a
row can be solved: the first row, in order, that is non-finite, zero or
fails the residual check raises, naming its index.  `roots_batch` stacks
UniPolys for it, each at its own length; `roots` is a batch of one.

The trim is the one rule for rounding debris, and only the kernel's own
float rows (every explorer and `neighbors` row) are trimmed; any UniPoly
or BiPoly keeps every nonzero coefficient.  Such a row's rounding is of the
size of its coefficients, not of its roots (y**2 + x**2 - 2 at fl(sqrt(2))
is y**2 + 4.4e-16, the double root 0 split into +-2.1e-8), so its cluster
radii and order grid keep the floor 1; a UniPoly's have the floor 0.

Every root of a bucket then gets multiplicity-corrected Newton steps.  The
residual check's p and p' are the first step's, unless the row has zeros
at the origin, whose polish runs on the undeflated row.  A
multiplicity-m root comes out as a cluster of first roots of radius about
eps**(1/m).  A row with close first roots is clustered by single linkage at
nested radii, each a multiple of the floor plus its largest first root's
modulus, and each distinct clustering is scored once by how well the
reconstructed product matches the input coefficients; the row's exact
zeros at the origin join the search as roots at 0, so a cluster it forms
there takes them in and 0 is listed once.  Each multiple root away from 0
is re-polished on the (m-1)-th derivative, where it is simple, and the
clusters, Newton-polished in turn, replace that row's result.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.linalg import LinAlgError, eigvals

from .errors import DomainError, EvaluationOverflow, RootFindingError, ZeroPolynomialError
from .unipoly import UniPoly, from_roots as _expand_roots

# A row's leading coefficients at most this fraction of its largest are debris.
TRIM_REL = 1e-12
# Cluster radii are CLUSTER_BASE**(1/m) * (floor + max|z|) for tentative multiplicity m.
CLUSTER_BASE = 1e-12
POLISH_STEPS = 3
_EPS = np.finfo(float).eps


def roots(p: UniPoly) -> list[tuple[complex, int]]:
    """All roots of p as sorted (value, multiplicity) pairs (exact inputs
    are converted); raises DomainError if p's float image is a constant."""
    (found,) = roots_batch([p])
    if not found:
        raise DomainError("root finding needs degree >= 1", degree=0)
    return found


def roots_batch(polys: Sequence[UniPoly]) -> list[list[tuple[complex, int]]]:
    """Roots of every polynomial in one `roots_of_rows` call, as sorted
    (value, multiplicity) pairs; entry k belongs to polys[k].  Each row is
    the polynomial's own coefficients, untrimmed: a UniPoly keeps every
    nonzero coefficient, and `to_float` keeps every coefficient of an exact
    one.  A constant row has no roots; errors are those of `roots_of_rows`."""
    rows = [p.to_float().coeffs for p in polys]
    stacked = np.zeros((len(rows), max(map(len, rows), default=0)), dtype=complex)
    for k, c in enumerate(rows):
        stacked[k, : len(c)] = c
    return roots_of_rows(stacked, list(map(len, rows)))


def roots_of_rows(c: np.ndarray, lengths=None) -> list[list[tuple[complex, int]]]:
    """Roots of every row of c as sorted (value, multiplicity) pairs; entry
    k belongs to c[k].

    c is a (rows, width) complex array of coefficients, low to high.  Row k
    is c[k, :lengths[k]], or without lengths c[k] with its top coefficients
    at most TRIM_REL times its largest dropped, so rounding debris and
    exact zero padding at the top drop out.  Roots come sorted by real part
    rounded to 1e-9 * (floor + max |root|) of the row, then by imaginary
    part, so rounding noise in equal real parts cannot reorder them; the
    floor is 1 on a trimmed row and 0 on a row of given length.  A constant
    row has no roots.  The first row k that cannot be solved raises with
    payload ``row=k``: EvaluationOverflow if it holds a NaN or inf,
    ZeroPolynomialError if it is zero, and RootFindingError if it fails the
    residual check; its ``best`` holds that row's first roots (NaN where
    LAPACK rejected the row).
    """
    c = np.asarray(c, dtype=complex)
    if not len(c):
        return []
    width = c.shape[1]
    finite = np.logical_and.reduce(np.isfinite(c), axis=1)
    length = _trimmed_lengths(c, finite) if lengths is None else np.asarray(lengths)
    floor = 1.0 if lengths is None else 0.0
    unsolvable = np.flatnonzero(~finite | (length == 0))
    stop = unsolvable[0] if len(unsolvable) else len(c)
    n_zeros = (c[:stop] != 0).argmax(axis=1) if stop else 0  # c may have no columns
    keys = length[:stop] * (width + 1) + n_zeros
    # Rows sorted by bucket key, stably, so that each bucket is a slice.
    order = keys.argsort(kind="stable")
    keys, order, sorted_rows = keys[order].tolist(), order.tolist(), c[order]
    cuts = [i for i in range(stop) if not i or keys[i] != keys[i - 1]] + [stop]

    results: list = [None] * stop
    failed: list[tuple[int, np.ndarray]] = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a, b in zip(cuts, cuts[1:]):
            n, n_zero = divmod(keys[a], width + 1)
            full = sorted_rows[a:b, :n]
            eig, z, p, d, ok = _eigen_roots(full[:, n_zero:])
            if not np.logical_and.reduce(ok):
                i = int(np.argmin(ok))  # the bucket's first failing row
                failed.append((order[a + i], eig[i]))
                continue
            if n_zero:
                p, d = _horner_pd(full, z)
            n_roots = z.shape[1]
            found = _sorted_roots(_polish(full, z, 1, p, d), np.ones(n_roots, int), n_zero, floor)
            # A row whose first roots are all farther apart than the widest
            # cluster radius, CLUSTER_BASE**(1/n) * (floor + max|z|), keeps
            # them as simple roots: `_best_clustering` would return them as
            # singletons.  Any other row is solved again from its clusters.
            if n_roots > 1:
                dist = np.abs(z[:, :, None] - z[:, None, :])
                dist.reshape(b - a, -1)[:, :: n_roots + 1] = np.inf  # the diagonal
                top = np.maximum.reduce(np.abs(z), axis=1)
                reach = CLUSTER_BASE ** (1.0 / n_roots) * (floor + top)
                near = np.minimum.reduce(dist, axis=(1, 2)) <= reach
                if np.logical_or.reduce(near):
                    for i in np.flatnonzero(near).tolist():
                        found[i] = _clustered(full[i : i + 1], eig[i], n_zero, floor)
            for k, item in zip(order[a:b], found):
                results[k] = item
    if failed:
        k, best = min(failed, key=lambda kb: kb[0])
        raise RootFindingError(
            "roots failed the residual check",
            best=[complex(v) for v in best],
            row=k,
        )
    if stop < len(c):
        if not finite[stop]:
            raise EvaluationOverflow("non-finite coefficient in a row", row=int(stop))
        raise ZeroPolynomialError("cannot take roots of the zero polynomial", row=int(stop))
    return results


def _trimmed_lengths(c: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """Each row's length, c being (rows, width) complex coefficients low to
    high and finite where finite is, once its top coefficients at most
    TRIM_REL times its largest are dropped: 0 for a zero row, the width for
    a non-finite one (the kernel rejects it)."""
    mag = np.where(finite[:, None], np.abs(c), 0.0)  # keep NaN out of max and >
    kept = mag > TRIM_REL * np.maximum.reduce(mag, axis=1, keepdims=True)
    nonzero = np.logical_or.reduce(kept, axis=1)
    trimmed = np.where(nonzero, c.shape[1] - kept[:, ::-1].argmax(axis=1), 0)
    return np.where(finite, trimmed, c.shape[1])


def sorted_pairs(pairs) -> list[tuple[complex, int]]:
    """(value, multiplicity) pairs in the order `roots_batch` gives one row's roots."""
    vals = np.array([[v for v, _ in pairs]], dtype=complex)
    return _sorted_roots(vals, np.array([m for _, m in pairs], dtype=int), 0, 0.0)[0]


def poly_from_roots(pairs, lead=1.0, var: str = "x") -> UniPoly:
    """Expand lead * prod (v - r_i)**m_i over the (value, multiplicity)
    pairs; the verification oracle for roots()."""
    flat = [complex(v) for v, m in pairs for _ in range(int(m))]
    return _expand_roots(flat, complex(lead), var)


# -- array kernels: c is (rows, deg+1) low to high, z is (rows, k) --------------


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(z)
    for k in range(c.shape[1] - 1, -1, -1):
        acc = acc * z + c[:, k : k + 1]
    return acc


def _horner_pd(c: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and p' at z in one Horner pass (c has two or more columns, or z none).

    For a row of degree 1, p' is the lead column, shape (rows, 1).
    """
    d = c[:, -1:]
    p = d * z + c[:, -2:-1]
    for k in range(c.shape[1] - 3, -1, -1):
        d = d * z + p
        p = p * z + c[:, k : k + 1]
    return p, d


def _derivative(c: np.ndarray) -> np.ndarray:
    return c[:, 1:] * np.arange(1, c.shape[1])


def _noise(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Evaluation-noise bound for |p| at radii r (Horner roundoff model)."""
    n = c.shape[1] - 1
    terms = np.abs(c)[:, None, :] * np.power(r[..., None], np.arange(n + 1))
    return 4.0 * (2 * n + 1) * _EPS * np.add.reduce(terms, axis=-1) + 1e-300


def _expand(lead: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Coefficients of lead * prod_j (x - z[:, j]), one row per row of z."""
    prod = lead[:, None]
    for j in range(z.shape[1]):
        nxt = np.zeros((len(prod), prod.shape[1] + 1), dtype=complex)
        nxt[:, 1:] = prod
        nxt[:, :-1] -= z[:, j : j + 1] * prod
        prod = nxt
    return prod


def _reconstruction_error(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Relative coefficient mismatch of c[:, -1] * prod (x - z) against c."""
    prod = _expand(c[:, -1], z)
    return np.max(np.abs(prod - c), axis=1) / np.max(np.abs(c), axis=1)


# -- first roots: closed forms and companion-matrix eigenvalues ----------------


def _eigen_roots(c: np.ndarray) -> tuple[np.ndarray, ...]:
    """The roots of the rows of c, all of one degree n, and their residual check.

    Degree 1 takes -c0/c1 and degree 2 `_quadratic_roots`; degree >= 3
    takes the eigenvalues of the companion matrices.  Returns the roots as
    these gave them (rows, n), the same with every -0.0 part made +0.0, p
    and p' at the latter, and a per-row pass mask.  A row passes if every
    root z has |p(z)| within 64*noise plus eps*|p'(z)|*(1 + |z|), the
    residual that the rounding of z alone can cause: the noise bound is
    relative to the coefficients and vanishes with c0 at z = 0.  The sign
    of a zero part changes no magnitude, so the check is that of the raw
    roots, and for a row with no zeros at the origin p and p' are the
    first Newton step's.  A row whose closed form is not finite, or that
    LAPACK rejects (say, one whose coefficients overflow the companion
    matrix), gets non-finite roots and fails.  Call it under the kernel's
    np.errstate.
    """
    rows, n = c.shape[0], c.shape[1] - 1
    if n <= 1:  # no roots, or the closed form of degree 1
        eig = -c[:, :n] / c[:, n:]
    elif n == 2:
        eig = _quadratic_roots(c[:, 1] / c[:, 2], c[:, 0] / c[:, 2])
    else:
        comp = np.zeros((rows, n, n), dtype=complex)
        comp.reshape(rows, n * n)[:, n :: n + 1] = 1.0  # the subdiagonal
        comp[:, 0, :] = -c[:, -2::-1] / c[:, -1:]
        eig = _eigvals(comp)
    # + 0.0 turns a -0.0 part into +0.0, as the cluster mean of one root does.
    z = eig + 0.0
    p, d = _horner_pd(c, z)
    r = np.abs(z)
    within = np.abs(p) <= 64.0 * _noise(c, r) + _EPS * np.abs(d) * (1.0 + r)
    ok = np.logical_and.reduce(within, axis=1)
    return eig, z, p, d, ok


def _quadratic_roots(b: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """Both roots (rows, 2) of z**2 + b*z + a0, a0 nonzero, for each entry.

    The cancellation-free formula (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 1.8): the root of larger modulus is
    q = -(b + r)/2, r = sqrt(b**2 - 4*a0) with Re(conj(b)*r) >= 0 so that b
    and r do not cancel, and the other is a0/q.  Both are taken at the
    scale s, the power of two at or just below max(|b|, sqrt|a0|): dividing
    by s is exact, short of a subnormal result, and b/s and a0/s**2 are
    below 2 and 4 in modulus with one of them at least 1, so the
    discriminant cannot overflow and its larger term cannot underflow.  A
    non-finite b or a0 gives non-finite roots.
    """
    _, e = np.frexp(np.maximum(np.abs(b), np.sqrt(np.abs(a0))))
    s = np.ldexp(0.5, e)
    b, a0 = b / s, a0 / s
    r = np.sqrt(b * b - 4.0 * (a0 / s))
    r *= np.copysign(1.0, (b.conj() * r).real)
    q = (b + r) / -2.0
    return np.stack([s * q, a0 / q], axis=1)


def _eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of each matrix of the stack m; NaN for one LAPACK rejects."""
    try:
        return eigvals(m)
    except LinAlgError:
        if len(m) == 1:
            return np.full(m.shape[:2], np.nan, dtype=complex)
        return np.concatenate([_eigvals(m[i : i + 1]) for i in range(len(m))])


# -- multiplicity clustering and polishing -------------------------------------


def _best_clustering(
    z: np.ndarray, c: np.ndarray, floor: float, n_zero: int = 0
) -> list[tuple[complex, int]]:
    """Try cluster radii CLUSTER_BASE**(1/m) for rising tentative multiplicity m.

    First roots i and j are near at radius r if |z_i - z_j| <= r * (floor +
    max|z|); clusters are the components of that relation, by boolean
    transitive closure.  The radii rise, so the clusterings are nested and
    each distinct one is scored once.  More merging is preferred
    whenever it reconstructs the coefficients essentially as well as no
    merging, because a merged cluster is only wrong if two genuinely
    distinct roots were joined, and that shows up as a reconstruction
    mismatch.  c is the row with its n_zero zeros at the origin, which join
    the search as first roots at 0: the cluster that holds them is the
    root 0 of the cluster's size, listed last.
    """
    if n_zero:
        z = np.concatenate([z, np.zeros(n_zero, dtype=complex)])
    n = len(z)
    dist, scale = np.abs(z[:, None] - z), floor + np.max(np.abs(z))
    seen: list[tuple[float, list[tuple[complex, int]]]] = []
    linked = None
    for m_try in range(1, n + 1):
        near = dist <= CLUSTER_BASE ** (1.0 / m_try) * scale
        for _ in range(n.bit_length()):
            near = near @ near
        if linked is not None and np.array_equal(near, linked):
            continue
        linked = near
        # Row i of the closure is i's cluster; a cluster is listed at its least member.
        firsts = np.flatnonzero(np.argmax(near, axis=1) == np.arange(n))
        clusters = [(complex(np.mean(z[near[i]])), int(near[i].sum())) for i in firsts]
        if n_zero:  # near[-1] is the cluster of the zeros
            clusters = [cl for i, cl in zip(firsts, clusters) if not near[-1, i]]
            clusters.append((0j, int(near[-1].sum())))
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


def _clustered(full: np.ndarray, eig: np.ndarray, n_zero: int, floor) -> list[tuple[complex, int]]:
    """The sorted (value, multiplicity) pairs of the one row of full, (1, n),
    from the clusters of its nonzero first roots eig and its n_zero zeros at
    the origin, each cluster away from 0 refined and then Newton-polished
    as a root of its multiplicity.  A cluster the search forms at 0 takes
    the zeros in, so 0 is listed once."""
    clusters = _best_clustering(eig, full[0], floor, n_zero)
    at_zero = clusters.pop()[1] if n_zero else 0
    clusters = [_refine_cluster(v, m, full[0, n_zero:]) for v, m in clusters]
    vals = np.array([[v for v, _ in clusters]], dtype=complex)
    mult = np.array([m for _, m in clusters], dtype=int)
    return _sorted_roots(_polish(full, vals, mult, *_horner_pd(full, vals)), mult, at_zero, floor)[0]


def _polish(
    c: np.ndarray, z: np.ndarray, mult, pv: np.ndarray, dv: np.ndarray
) -> np.ndarray:
    """Multiplicity-corrected Newton steps on c from z, as one masked pass.

    mult is 1 or one multiplicity per column of z.  pv and dv are p and p'
    at z; for a row with no zeros at the origin they are the residual
    check's, so the first step costs no Horner pass.  Each step takes p and
    p' at its new point from one Horner pass, and p' of an accepted point
    serves the next step.  Each root keeps the best |p| seen and stops at
    the first step that does not improve it, or once its step is at most
    4 * eps * |root|, below which it would only chase rounding noise.  A
    step from p' = 0, or one that diverges, gives an inf or nan |p|, which
    never improves on the best; call it under the kernel's np.errstate.
    """
    best, best_val, going = z, np.abs(pv), True
    for _ in range(POLISH_STEPS):
        step = mult * pv / dv
        going = going & (np.abs(step) > 4.0 * _EPS * np.abs(best))
        if not np.logical_or.reduce(going, axis=None):
            break
        cur = best - step
        pv, dv = _horner_pd(c, cur)
        val = np.abs(pv)
        going &= val < best_val
        best = np.where(going, cur, best)
        # A root that stops never goes again, so its best_val, pv and dv
        # need not be kept: only best is read for it.
        best_val = val
    return best


def _sorted_roots(
    vals: np.ndarray, mult: np.ndarray, n_zero: int, floor: float
) -> list[list[tuple[complex, int]]]:
    """Each row's sorted (value, multiplicity) pairs, with n_zero roots at 0
    appended; column j of vals has multiplicity mult[j] in every row."""
    if n_zero:
        vals = np.concatenate([vals, np.zeros((len(vals), 1), dtype=complex)], axis=1)
        mult = np.append(mult, n_zero)
    if vals.shape[1] <= 1:  # nothing to order
        mults = mult.tolist()
        return [list(zip(row, mults)) for row in vals.tolist()]
    # Real parts equal up to rounding noise must compare equal, so the
    # imaginary part, not the last bits, orders such roots.
    grid = 1e-9 * (floor + np.maximum.reduce(np.abs(vals), axis=1, keepdims=True))
    order = np.lexsort((vals.imag, np.rint(vals.real / np.where(grid > 0, grid, 1.0))))
    vals = vals[np.arange(len(vals))[:, None], order]
    return [list(zip(v, m)) for v, m in zip(vals.tolist(), mult[order].tolist())]
