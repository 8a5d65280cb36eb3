"""Scalar ODE constructions used by the curve-deformation machinery: the
single-bump solution, its piecewise concatenation with distributional-
inequality control, and the 2x2 spiral eigenvalue analysis.

The bump equation is ``y'' = (y u)' - (eps + u^2/4) y`` integrated as the
first-order system ``y' = y u + z``, ``z' = -(eps + u^2/4) y`` from
``(y, z)(0) = (1, 4)``, so ``y'(0) = u(0) + 4``.  The system is linear,
``Y' = A(s) Y`` with ``A = [[u, 1], [-(eps + u^2/4), 0]]``: it runs on the
linear-system stepper of ``curves`` (``curves._linear_samples``), which
takes every step's increment from one batched RK4 step over the whole step
grid.

A profile ``u`` is a constant or a callable that is called on arrays of
``s`` and returns an array of their shape (or a scalar, which is
broadcast), as ``Expression`` and numpy ufunc expressions do; any other
result raises ``ParameterOutOfRange``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import (
    _linear_samples,
    _ragged_range,
    _sample,
    _stage_times,
    _step_grid,
    hermite,
    simpson,
)
from .errors import BoundViolated, NoCrossing, ParameterOutOfRange

__all__ = [
    "EdoSolution",
    "SpiralSpectrum",
    "PiecewiseBump",
    "integrate_bump_system",
    "solve_prop_edo",
    "spiral_eigenvalues",
    "construct_edo7",
    "weak_inequality_residual",
]


def _as_profile(u):
    if callable(u):
        return u
    c = float(u)
    return lambda s: c


def _profile(u, ss):
    """The profile on the array ``ss`` of s, from one call of ``u``."""
    return _sample(u, ss, "a profile u", "s")


def _check_bound(u, eps, lo, hi):
    bound = 1.0 / eps
    vals = _profile(u, np.linspace(lo, hi, 512))
    worst = float(np.max(np.abs(vals)))
    if not worst <= bound * (1 + 1e-12):  # a NaN profile fails too
        raise BoundViolated(f"sup|u| = {worst:.6g} exceeds 1/eps = {bound:.6g}")


def _bump_run(u, eps, length, step, y, z):
    """RK4 samples of ``Y' = A(t) Y``, ``A = [[u, 1], [-(eps + u^2/4), 0]]``,
    on [0, length] from ``Y(0) = (y, z)``.  Returns (t, y, z) arrays.  The
    profile is sampled once, at every stage time of the whole grid."""
    t, h = _step_grid(length, step)
    uu = _profile(u, _stage_times(t, h))
    a = np.zeros((len(uu), 2, 2))
    a[:, 0, 0], a[:, 0, 1], a[:, 1, 0] = uu, 1.0, -(eps + uu * uu / 4.0)
    ys, zs = _linear_samples(a, h, (y, z)).T
    return t, ys, zs


def integrate_bump_system(u, eps, s_max, step):
    """RK4 samples of ``y' = yu + z, z' = -(eps + u^2/4) y`` on [0, s_max],
    started from y = 1, z = 4.  The profile ``u`` is a constant or is called
    on arrays of s (see the module docstring).

    Returns (s, y, z) arrays.
    """
    return _bump_run(_as_profile(u), eps, s_max, step, 1.0, 4.0)


def _hermite_root(sa, sb, ya, yb, da, db, target):
    """Root of the cubic Hermite interpolant of y - target on [sa, sb].

    Newton steps on the interpolant's own derivative, kept inside a shrinking
    sign-change bracket and replaced by bisection when they would leave it or
    stop halving the step (Press et al., *Numerical Recipes*, 9.4, rtsafe),
    until a step is shorter than 1e-12.
    """
    h = sb - sa

    def f(s):
        y, dy = hermite((s - sa) / h, h, ya, da, yb, db)
        return y - target, dy

    fa, fb = f(sa)[0], f(sb)[0]
    if fa == 0.0:
        return sa
    if fa * fb > 0:
        # fall back to the endpoint closer to the target
        return sa if abs(fa) < abs(fb) else sb
    lo, hi = (sa, sb) if fa < 0 else (sb, sa)  # f(lo) < 0 < f(hi)
    x = 0.5 * (sa + sb)
    dx = dx_old = abs(h)
    fx, dfx = f(x)
    for _ in range(200):
        if fx == 0.0:
            break
        newton_leaves = ((x - hi) * dfx - fx) * ((x - lo) * dfx - fx) > 0
        if newton_leaves or abs(2.0 * fx) > abs(dx_old * dfx):
            dx_old, dx = dx, 0.5 * (hi - lo)
            x = lo + dx
        else:
            dx_old, dx = dx, fx / dfx
            x = x - dx
        if abs(dx) < 1e-12:
            break
        fx, dfx = f(x)
        if fx < 0:
            lo = x
        else:
            hi = x
    return float(x)


@dataclass
class EdoSolution:
    """One bump: y rises from 1, returns to 1 at s0, dies at s1."""

    eps: float
    s0: float
    s1: float
    s: np.ndarray
    y: np.ndarray
    z: np.ndarray
    m0: float          # envelope: max of |y|, |y'| on [0, s0]
    lipschitz: float   # max |y'| on [0, s1]


def solve_prop_edo(u, eps, step=1e-4):
    """Integrate the bump system from (1, 4) and locate the first return of y
    to 1 (s0) and the first zero of y (s1) by Brent's method on the Hermite
    interpolant.

    Raises NoCrossing if the zero does not appear before pi/sqrt(eps) plus a
    safety margin, which the spiral analysis guarantees.
    """
    if not 0.0 < eps < np.inf:
        raise ParameterOutOfRange(f"eps must be finite and positive, got {eps}")
    u = _as_profile(u)
    s_cap = np.pi / np.sqrt(eps) * 1.05 + 5 * step
    _check_bound(u, eps, 0.0, s_cap)
    s, y, z = integrate_bump_system(u, eps, s_cap, step)
    yp = y * _profile(u, s) + z

    def root(i, target):
        return _hermite_root(s[i - 1], s[i], y[i - 1], y[i], yp[i - 1], yp[i], target)

    # the first step into y <= 0, then the first return through 1 before it
    # (from above, not counting the first step)
    zeros = np.flatnonzero((y[1:] <= 0.0) & (y[:-1] > 0.0)) + 1
    if not zeros.size:
        raise NoCrossing(f"y did not reach 0 before s = {s_cap:.6g}; numerical fault")
    i1 = zeros[0]
    returns = np.flatnonzero(((y[2:i1] - 1.0) * (y[1:i1 - 1] - 1.0) <= 0.0)
                             & (y[1:i1 - 1] > 1.0)) + 2
    s1 = root(i1, 0.0)
    s0 = root(returns[0], 1.0) if returns.size else s1

    mask0 = s <= s0 + 1e-12
    m0 = float(max(np.max(np.abs(y[mask0])), np.max(np.abs(yp[mask0]))))
    mask1 = s <= s1 + 1e-12
    lip = float(np.max(np.abs(yp[mask1])))
    keep = s <= s1 + step
    return EdoSolution(eps=eps, s0=float(s0), s1=float(s1), s=s[keep], y=y[keep],
                       z=z[keep], m0=m0, lipschitz=lip)


@dataclass
class SpiralSpectrum:
    """Eigenvalue data of the mean matrix [[T, Lambda], [-K, 0]]."""

    t: float
    lam: float
    k: float
    alpha: float
    beta: float
    oscillatory: bool

    @property
    def matrix(self):
        return np.array([[self.t, self.lam], [-self.k, 0.0]])


def spiral_eigenvalues(t, lam, k):
    """Roots of ``X(X - T) + Lambda K = 0`` written as alpha +/- i beta.

    Oscillatory (complex pair) iff ``4 Lambda K > T^2``; otherwise beta holds
    the real root gap.
    """
    if not np.isfinite([t, lam, k]).all():
        raise ParameterOutOfRange(f"T, Lambda, K must be finite, got {t}, {lam}, {k}")
    alpha = t / 2.0
    disc = lam * k - t * t / 4.0
    if disc > 0:
        return SpiralSpectrum(t=t, lam=lam, k=k, alpha=alpha,
                              beta=float(np.sqrt(disc)), oscillatory=True)
    return SpiralSpectrum(t=t, lam=lam, k=k, alpha=alpha,
                          beta=float(2.0 * np.sqrt(-disc)), oscillatory=False)


@dataclass
class PiecewiseBump:
    """Concatenated bumps: >= 1 on the core interval, 0 outside the support."""

    eps: float
    n1: float
    breakpoints: np.ndarray            # x_{-1} < x_0 < ... < x_N < x_{N+1}
    segments: list                     # per segment: (s_grid, y values)
    m1_prime: float                    # support/Lipschitz constant 2 pi / sqrt(eps)
    lipschitz: float                   # measured max |y'|

    @property
    def support(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        for (lo, hi, grid, vals) in self.segments:
            mask = (x >= lo) & (x <= hi)
            if np.any(mask):
                out[mask] = np.interp(x[mask], grid, vals)
        out[(x < self.breakpoints[0]) | (x > self.breakpoints[-1])] = 0.0
        return float(out[0]) if scalar else out


def construct_edo7(u, eps, n1, step=1e-3):
    """Piecewise bump profile per the recursive construction: interior bumps
    tile [-N1, N1] with y >= 1, and two closing segments drive y to 0.

    The result satisfies the bump inequality in the distributional sense
    (positive velocity jumps at the junctions).
    """
    if not (0.0 < eps < np.inf and 0.0 < n1 < np.inf):
        raise ParameterOutOfRange(
            f"eps and n1 must be finite and positive, got eps={eps}, n1={n1}")
    u = _as_profile(u)
    m1p = 2.0 * np.pi / np.sqrt(eps)
    _check_bound(u, eps, -n1 - 2 * m1p, n1 + 2 * m1p)

    segments = []
    breaks = []

    # left closing segment: from (y, y') = (1, 0) at -N1 backward to y = 0
    z0_left = 0.0 - 1.0 * u(-n1)  # z = y' - y u with y' = 0
    s_cap = np.pi / np.sqrt(eps) * 1.05 + 5 * step

    # integrate backward in the curve parameter, t = -(x + n1) >= 0:
    # (y, z)' = -A(t) (y, z) is, in (y, -z), the forward system with the
    # profile -u(-n1 - t), the sign flips of diag(1, -1) being exact
    ts, ys, zs = _bump_run(lambda t: -u(-n1 - t), eps, s_cap, step, 1.0, -z0_left)
    zero = np.flatnonzero(ys[1:] <= 0.0)
    if not zero.size:
        raise NoCrossing("left closing segment did not reach zero")
    end = zero[0] + 2  # through the first step into y <= 0
    ts, ys, zs = ts[:end], ys[:end], -zs[:end]
    ypl = ys * _profile(u, -n1 - ts) + zs
    t_zero = _hermite_root(ts[-2], ts[-1], ys[-2], ys[-1], -ypl[-2], -ypl[-1], 0.0)
    x_left = -n1 - t_zero
    grid = -n1 - ts[ts <= t_zero + step]
    vals = ys[: len(grid)]
    order = np.argsort(grid)
    segments.append((x_left, -n1, grid[order], np.maximum(vals[order], 0.0)))
    breaks.append(x_left)
    breaks.append(-n1)

    # interior bumps from -N1 rightward until the junction passes +N1
    lip = float(np.max(np.abs(ypl)))
    x_k = -n1
    while x_k <= n1:
        sol = solve_prop_edo(lambda t, x0=x_k: u(x0 + t), eps, step=step)
        lip = max(lip, sol.lipschitz)
        is_last = x_k + sol.s0 > n1
        if is_last:
            # final bump: keep it through its zero s1
            grid = x_k + sol.s[sol.s <= sol.s1 + step]
            vals = np.maximum(sol.y[: len(grid)], 0.0)
            segments.append((x_k, x_k + sol.s1, grid, vals))
            breaks.append(x_k + sol.s0)
            breaks.append(x_k + sol.s1)
            x_k = x_k + sol.s1
            break
        grid = x_k + sol.s[sol.s <= sol.s0 + step]
        vals = sol.y[: len(grid)]
        segments.append((x_k, x_k + sol.s0, grid, vals))
        x_k = x_k + sol.s0
        breaks.append(x_k)

    breaks = np.unique(np.array(breaks))
    return PiecewiseBump(eps=eps, n1=n1, breakpoints=breaks, segments=segments,
                         m1_prime=m1p, lipschitz=lip)


def _bspline_bump(x):
    """C^2 cubic B-spline bump supported on [-2, 2], max 1 at 0, with its
    first and second derivatives: ``(phi, phi', phi'')`` at x.  Written in
    truncated powers, ``phi = (2-|x|)_+^3 / 4 - (1-|x|)_+^3``, so every
    piece is one whole-array expression."""
    ax = np.abs(x)
    r2, r1 = np.maximum(2.0 - ax, 0.0), np.maximum(1.0 - ax, 0.0)
    s2, s1 = r2 * r2, r1 * r1
    return (0.25 * (s2 * r2) - s1 * r1, np.sign(x) * (3.0 * s1 - 0.75 * s2),
            1.5 * r2 - 6.0 * r1)


_CHUNK_TESTS = 4  # test functions per Simpson pass; bounds the memory of a pass


def weak_inequality_residual(bump, u, n_tests=50, seed=20240):
    """Minimum over a family of nonnegative C^2 bump test functions phi of

        integral y (phi'' + u phi' + (eps + u^2/4) phi) ds,

    which is >= 0 exactly when the profile satisfies the bump inequality as a
    distribution.

    Each phi is the cubic B-spline bump of a center c and a width w, drawn
    from a seeded generator (c, then w, test by test; widths stay well above
    the solver step), and is supported on [c - 2w, c + 2w].  Quadrature runs
    on the solver's own segment grids, so the kinks of y at the junctions
    never cross a panel, and cuts each segment at the five spline knots, so
    the integrand is smooth on every piece.  A piece from cut p to cut q has
    the grid nodes strictly between them plus p and q, with y interpolated
    there; a piece with no such grid node takes its midpoint as a third node.
    Pieces outside the support integrate zeros and are left out.

    u is read once, on all grid nodes and cuts together.  The pieces of
    ``_CHUNK_TESTS`` tests at a time are gathered into one flat node array
    and integrated by one call of ``curves.simpson`` with their lengths;
    each test sums its pieces in segment order.

    Raises BoundViolated when a test's integral is not finite, as for a NaN
    profile.
    """
    totals = _weak_integrals(bump, _as_profile(u), n_tests, seed)
    bad = totals[~np.isfinite(totals)]
    if bad.size:  # a NaN profile fails, as in _check_bound
        raise BoundViolated(f"the weak inequality's integral is {bad[0]} for this profile")
    return float(np.min(totals, initial=np.inf))


def _weak_integrals(bump, u, n_tests, seed):
    """The integral of each test function of ``weak_inequality_residual``,
    in the order of the draws."""
    lo, hi = bump.support
    rng = np.random.default_rng(seed)
    wmax = max(0.4, (hi - lo) / 2.0)
    center, width = np.array([(rng.uniform(lo, hi), rng.uniform(0.3, wmax))
                              for _ in range(n_tests)]).reshape(-1, 2).T
    knots = center[:, None] + width[:, None] * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])

    # per segment, the four pieces of each test between consecutive knots
    # clipped to the segment; empty ones drop.  `first` indexes the pieces'
    # first inner node in the concatenated grids, `inner` counts them.
    grids, ys, test, xcuts, ycuts, first, inner = [], [], [], [], [], [], []
    offset = 0
    for a, b, grid, vals in bump.segments:
        keep = (grid >= a - 1e-12) & (grid <= b + 1e-12)
        grid, vals = grid[keep], vals[keep]
        clipped = np.clip(knots, a, b)
        t, j = np.nonzero(clipped[:, 1:] > clipped[:, :-1])
        p, q = clipped[t, j], clipped[t, j + 1]
        k = np.searchsorted(grid, p + 1e-12, side="right")
        inner.append(np.maximum(np.searchsorted(grid, q - 1e-12, side="left") - k, 0))
        first.append(k + offset)
        test.append(t)
        xcuts.append(np.stack([p, 0.5 * (p + q), q]))  # rows: p, the midpoint, q
        ycuts.append(np.interp(xcuts[-1], grid, vals))
        grids.append(grid)
        ys.append(vals)
        offset += len(grid)
    test, first, inner = (np.concatenate(v) for v in (test, first, inner))
    xc, yc = np.concatenate(xcuts, axis=1), np.concatenate(ycuts, axis=1)
    # nodes are indices into the grids followed by the rows of the cuts
    xs = np.concatenate([*grids, xc.ravel()])
    yv = np.concatenate([*ys, yc.ravel()])
    uv = _profile(u, xs)
    n_pieces = len(test)
    at_p = offset + np.arange(n_pieces)
    # a piece's inner nodes are its grid nodes, or else its midpoint
    padded = inner == 0
    count = np.where(padded, 1, inner)
    first = np.where(padded, at_p + n_pieces, first)
    size = count + 2

    piece_total = np.empty(n_pieces)
    for t0 in range(0, n_tests, _CHUNK_TESTS):
        k = np.flatnonzero((test >= t0) & (test < t0 + _CHUNK_TESTS))
        start = np.cumsum(size[k]) - size[k]
        src = np.empty(size[k].sum(), dtype=int)
        src[start] = at_p[k]
        src[start + size[k] - 1] = at_p[k] + 2 * n_pieces
        src[_ragged_range(start + 1, count[k])] = _ragged_range(first[k], count[k])
        gg, yy, uu = xs[src], yv[src], uv[src]
        c, w = (np.repeat(v[test[k]], size[k]) for v in (center, width))
        tt = (gg - c) / w
        phi, d1, d2 = _bspline_bump(tt)
        d1, d2 = d1 / w, d2 / w ** 2
        integrand = yy * (d2 + uu * d1 + (bump.eps + uu ** 2 / 4.0) * phi)
        piece_total[k] = simpson(integrand, gg, size[k])
    return np.bincount(test, weights=piece_total, minlength=n_tests)
