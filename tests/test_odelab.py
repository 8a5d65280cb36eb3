import numpy as np
import pytest

from efimov_lab.curves import rk4_samples, simpson
from efimov_lab.errors import BoundViolated, NoCrossing, ParameterOutOfRange
from efimov_lab.expressions import Expression
from efimov_lab.odelab import (
    PiecewiseBump,
    _as_profile,
    _bspline_bump,
    _bump_run,
    _hermite_root,
    _weak_integrals,
    construct_edo7,
    integrate_bump_system,
    solve_prop_edo,
    spiral_eigenvalues,
    weak_inequality_residual,
)

_EXPR = Expression("0.37*sin(s)", ("s",))
PROFILES = {"zero": 0.0, "cos": lambda s: 0.5 * np.cos(s), "expression": lambda s: _EXPR(s=s)}


def _scalar_profile(u):
    return u if callable(u) else (lambda s: u)


def _reference_bump(u, eps, length, step, x0=0.0, sign=1.0, stop_at_zero=False):
    """The per-stage formulation as the oracle: ``rk4_samples`` on the state
    (y, z) with ``sign * [y u + z, -(eps + u^2/4) y]`` and one scalar
    profile call ``u(x0 + sign * t)`` per stage."""
    prof = _scalar_profile(u)

    def rhs(t, st):
        yy, zz = st
        uu = prof(x0 + sign * t)
        return sign * np.array([yy * uu + zz, -(eps + uu * uu / 4.0) * yy])

    s, states = [0.0], [np.array([1.0, 4.0 if sign > 0 else -prof(x0)])]
    for t, st in rk4_samples(rhs, states[0], length, step):
        s.append(t)
        states.append(st)
        if stop_at_zero and st[0] <= 0.0:
            break
    states = np.array(states)
    s = np.array(s)
    yp = states[:, 0] * np.array([prof(x0 + sign * t) for t in s]) + states[:, 1]
    return s, states[:, 0], states[:, 1], yp


def _reference_edo(u, eps, step, x0=0.0):
    """s, y, z, s0, s1, m0 and lipschitz by the per-stage formulation and the
    scalar crossing loop."""
    s_cap = np.pi / np.sqrt(eps) * 1.05 + 5 * step
    s, y, z, yp = _reference_bump(u, eps, s_cap, step, x0=x0)
    s0 = s1 = None
    for i in range(1, len(s)):
        if y[i] <= 0.0 < y[i - 1]:
            s1 = _hermite_root(s[i - 1], s[i], y[i - 1], y[i], yp[i - 1], yp[i], 0.0)
            break
        if s0 is None and i > 1 and (y[i] - 1.0) * (y[i - 1] - 1.0) <= 0.0 and y[i - 1] > 1.0:
            s0 = _hermite_root(s[i - 1], s[i], y[i - 1], y[i], yp[i - 1], yp[i], 1.0)
    s0 = s1 if s0 is None else s0
    m0 = max(np.max(np.abs(y[s <= s0 + 1e-12])), np.max(np.abs(yp[s <= s0 + 1e-12])))
    lip = np.max(np.abs(yp[s <= s1 + 1e-12]))
    keep = s <= s1 + step
    return dict(s=s[keep], y=y[keep], z=z[keep], s0=s0, s1=s1, m0=m0, lipschitz=lip)


def _reference_breakpoints(u, eps, n1, step):
    """construct_edo7's breakpoints with the left closing segment run by the
    reversed per-stage closure and every bump by ``_reference_edo``."""
    s_cap = np.pi / np.sqrt(eps) * 1.05 + 5 * step
    ts, ys, _, yp = _reference_bump(u, eps, s_cap, step, x0=-n1, sign=-1.0, stop_at_zero=True)
    t_zero = _hermite_root(ts[-2], ts[-1], ys[-2], ys[-1], -yp[-2], -yp[-1], 0.0)
    breaks = [-n1 - t_zero, -n1]
    x = -n1
    while True:
        ref = _reference_edo(u, eps, step, x0=x)
        if x + ref["s0"] > n1:
            breaks += [x + ref["s0"], x + ref["s1"]]
            return np.unique(breaks)
        x += ref["s0"]
        breaks.append(x)


def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))))


@pytest.mark.parametrize("eps", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("name", PROFILES)
def test_bump_system_equals_the_per_stage_formulation(name, eps):
    """The batched propagator path against the per-stage formulation: the
    same step grid bit for bit, and the samples, crossings and constants to
    1e-12 relative."""
    u = PROFILES[name]
    length = np.pi / np.sqrt(eps) * 1.05 + 5e-3
    s, y, z = integrate_bump_system(u, eps, length, 1e-3)
    s_ref, y_ref, z_ref, _ = _reference_bump(u, eps, length, 1e-3)
    assert np.array_equal(s, s_ref)
    assert _close(y, y_ref) and _close(z, z_ref)
    if name != "zero" and eps == 4.0:  # sup|u| > 1/eps
        with pytest.raises(BoundViolated):
            solve_prop_edo(u, eps, step=1e-3)
        return
    sol = solve_prop_edo(u, eps, step=1e-3)
    ref = _reference_edo(u, eps, 1e-3)
    assert np.array_equal(sol.s, ref["s"])
    for key in ("y", "z", "s0", "s1", "m0", "lipschitz"):
        assert _close(getattr(sol, key), ref[key]), key


@pytest.mark.parametrize("name", PROFILES)
def test_edo7_equals_the_reversed_closure_reference(name):
    u = PROFILES[name]
    bump = construct_edo7(u, 1.0, 1.5, step=1e-3)
    ref = _reference_breakpoints(u, 1.0, 1.5, 1e-3)
    assert _close(bump.breakpoints, ref)
    assert _close(bump.support, (ref[0], ref[-1]))


@pytest.mark.parametrize("name", PROFILES)
def test_left_closing_segment_equals_the_reversed_per_stage_formulation(name):
    """construct_edo7's left closing segment runs ``(y, z)' = -A (y, z)`` as
    the forward bump system in (y, -z) with the profile -u(-n1 - t): the
    same grid, and y and z to 1e-12 relative of the reversed per-stage
    closure, over the whole capped run."""
    u, eps, n1, step = _as_profile(PROFILES[name]), 1.0, 1.5, 1e-3
    length = np.pi / np.sqrt(eps) * 1.05 + 5 * step
    t, y, w = _bump_run(lambda tt: -u(-n1 - tt), eps, length, step, 1.0, u(-n1))
    t_ref, y_ref, z_ref, _ = _reference_bump(PROFILES[name], eps, length, step, x0=-n1,
                                             sign=-1.0)
    assert np.array_equal(t, t_ref)
    assert _close(y, y_ref) and _close(-w, z_ref)
    assert y[-1] <= 0.0  # the run crosses zero, where construct_edo7 cuts it


def test_zero_profile_samples_equal_the_closed_form():
    """u = 0, eps = 1: y = cos s + 4 sin s and z = y' at every sample, to
    RK4's O(h^4) global error at h = 1e-3 (measured 8.4e-13)."""
    s, y, z = integrate_bump_system(0.0, 1.0, np.pi, 1e-3)
    assert np.max(np.abs(y - (np.cos(s) + 4.0 * np.sin(s)))) < 1e-11
    assert np.max(np.abs(z - (4.0 * np.cos(s) - np.sin(s)))) < 1e-11


def test_profile_that_does_not_broadcast_raises_typed_error():
    """A profile is called on arrays of s; a result that does not broadcast
    to their shape names the contract."""
    bad = lambda s: [1.0, 2.0]  # noqa: E731
    for run in (lambda: solve_prop_edo(bad, 1.0, step=1e-3),
                lambda: integrate_bump_system(bad, 1.0, 1.0, 1e-3),
                lambda: construct_edo7(bad, 1.0, 1.0)):
        with pytest.raises(ParameterOutOfRange, match="called on an array of s"):
            run()



def test_bump_zero_profile_closed_form():
    """For u = 0 the bump is y = cos s + 4 sin s."""
    sol = solve_prop_edo(0.0, 1.0, step=1e-4)
    assert abs(sol.s0 - 2.0 * np.arctan(4.0)) < 1e-6
    assert abs(sol.s1 - (np.pi - np.arctan(0.25))) < 1e-6
    assert abs(sol.m0 - np.sqrt(17.0)) < 1e-6
    assert sol.s1 <= np.pi + 1e-9


def test_bump_initial_slope():
    sol = solve_prop_edo(lambda s: 0.5 * np.cos(s), 1.0, step=1e-4)
    u0 = 0.5
    yp0 = sol.y[0] * u0 + sol.z[0]
    assert abs(yp0 - (u0 + 4.0)) < 1e-12


@pytest.mark.parametrize("eps", [0.25, 1.0, 4.0])
def test_s1_bounded_by_pi_over_sqrt_eps(eps):
    sol = solve_prop_edo(0.0, eps, step=1e-4)
    assert 0 < sol.s0 <= sol.s1 <= np.pi / np.sqrt(eps) + 1e-9


def test_bump_envelope_and_monotonicity():
    for eps, u in ((1.0, 0.0), (0.5, lambda s: 0.4 * np.sin(s))):
        sol = solve_prop_edo(u, eps, step=1e-4)
        mask = sol.s <= sol.s0 + 1e-12
        assert np.all(sol.y[mask] >= 1.0 - 1e-8)
        assert np.all(sol.y[mask] <= sol.m0 + 1e-12)
        # envelope bound from the eigenvector decomposition
        cap = 2.0 * np.sqrt(0.25 + (2.0 / eps + 4.0) ** 2 / (4.0 * eps)) * np.exp(sol.s0)
        assert sol.m0 <= cap
        # z decreases strictly while y > 0
        mask1 = sol.s <= sol.s1
        assert np.all(np.diff(sol.z[mask1]) < 0)


def test_constant_u_oscillation_period():
    """For constant u the spiral frequency is exactly sqrt(eps)."""
    eps = 1.0
    s, y, z = integrate_bump_system(lambda t: 0.5, eps, 3 * np.pi, 1e-4)
    zeros = []
    for i in range(1, len(s)):
        if (y[i - 1] > 0 >= y[i]) or (y[i - 1] < 0 <= y[i]):
            zeros.append(s[i - 1] + (s[i] - s[i - 1]) * y[i - 1] / (y[i - 1] - y[i]))
    gaps = np.diff(zeros)
    assert np.max(np.abs(gaps - np.pi / np.sqrt(eps))) < 1e-4


def test_bound_violated():
    with pytest.raises(BoundViolated):
        solve_prop_edo(lambda s: 3.0, 1.0)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_solve_prop_edo_rejects_bad_eps(eps):
    with pytest.raises(ParameterOutOfRange):
        solve_prop_edo(0.0, eps)


def test_solve_prop_edo_rejects_nan_profile():
    with pytest.raises(BoundViolated):
        solve_prop_edo(np.nan, 1.0)
    with pytest.raises(BoundViolated):  # NaN on part of the sampled grid
        solve_prop_edo(lambda s: np.where(s > 1.0, np.nan, 0.1), 1.0, step=1e-3)


@pytest.mark.parametrize("eps, n1", [(np.nan, 1.0), (1.0, np.nan), (1.0, np.inf),
                                     (0.0, 1.0), (1.0, -1.0)])
def test_construct_edo7_rejects_bad_parameters(eps, n1):
    with pytest.raises(ParameterOutOfRange):
        construct_edo7(0.0, eps, n1)


def test_spiral_eigenvalues_cases():
    sp = spiral_eigenvalues(0.0, 1.0, 1.0)
    assert sp.alpha == 0.0 and sp.beta == 1.0 and sp.oscillatory
    sp = spiral_eigenvalues(2.0, 1.0, 2.0)
    assert sp.alpha == 1.0 and abs(sp.beta - 1.0) < 1e-15 and sp.oscillatory
    sp = spiral_eigenvalues(2.0, 1.0, 1.0)
    assert sp.alpha == 1.0 and sp.beta == 0.0 and not sp.oscillatory


def test_spiral_oscillatory_boundary():
    """Oscillation iff 4*Lambda*K > T^2: the discriminant boundary is the
    4 K4 = tau0^2 case at (T, Lambda, K) = (tau0, 1, K4)."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        t, lam, k = rng.uniform(-2, 2), rng.uniform(0.1, 2), rng.uniform(-1, 2)
        sp = spiral_eigenvalues(t, lam, k)
        assert sp.oscillatory == (4.0 * lam * k > t * t)
        if sp.oscillatory:
            assert abs(sp.beta ** 2 - (lam * k - t * t / 4.0)) < 1e-12


def test_edo7_contracts_zero_profile():
    bump = construct_edo7(0.0, 1.0, 1.0, step=1e-3)
    lo, hi = bump.support
    m1 = bump.m1_prime
    assert abs(m1 - 2.0 * np.pi) < 1e-12
    assert lo >= -1.0 - m1 - 1e-9 and hi <= 1.0 + m1 + 1e-9
    xs = np.linspace(-1.0, 1.0, 801)
    assert np.min(bump(xs)) >= 1.0 - 1e-9
    assert bump.lipschitz <= m1 + 1e-9
    outside = np.array([lo - 0.5, hi + 0.5, lo - 2.0])
    assert np.max(np.abs(bump(outside))) == 0.0


def test_edo7_interior_junctions_continuous():
    bump = construct_edo7(0.0, 1.0, 4.0, step=1e-3)
    for x in bump.breakpoints[1:-1]:
        left = bump(x - 1e-9)
        right = bump(x + 1e-9)
        assert abs(left - right) < 1e-5


def test_edo7_weak_inequality():
    bump = construct_edo7(0.0, 1.0, 1.0, step=1e-3)
    assert weak_inequality_residual(bump, 0.0, n_tests=50) >= -1e-6


def test_edo7_weak_inequality_varying_u():
    u = lambda s: 0.5 * np.sin(0.7 * s)
    bump = construct_edo7(u, 1.0, 1.5, step=1e-3)
    assert weak_inequality_residual(bump, u, n_tests=50) >= -1e-6
    xs = np.linspace(-1.5, 1.5, 801)
    assert np.min(bump(xs)) >= 1.0 - 1e-9


def _reference_weak_integrals(bump, u, n_tests, seed):
    """The integral of each test function of the weak residual by one
    Simpson call per piece: the loop over tests, segments and knot pieces,
    with every piece outside the test's support integrated too."""
    u = _as_profile(u)
    lo, hi = bump.support
    rng = np.random.default_rng(seed)

    seg_grids = []
    for (a, b, grid, vals) in bump.segments:
        mask = (grid >= a - 1e-12) & (grid <= b + 1e-12)
        seg_grids.append((float(a), float(b), grid[mask], vals[mask]))

    def piece_integral(gg, yy, center, width):
        tt = (gg - center) / width
        phi, d1, d2 = _bspline_bump(tt)
        d1, d2 = d1 / width, d2 / width ** 2
        uu = np.broadcast_to(u(gg), gg.shape)
        integrand = yy * (d2 + uu * d1 + (bump.eps + uu ** 2 / 4.0) * phi)
        return simpson(integrand, gg)

    totals = []
    for _ in range(n_tests):
        center = rng.uniform(lo, hi)
        width = rng.uniform(0.3, max(0.4, (hi - lo) / 2.0))
        knots = center + width * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        total = 0.0
        for a, b, grid, vals in seg_grids:
            cuts = np.concatenate([[a], knots[(knots > a) & (knots < b)], [b]])
            for p, q in zip(cuts[:-1], cuts[1:]):
                inner = (grid > p + 1e-12) & (grid < q - 1e-12)
                gg = np.concatenate([[p], grid[inner], [q]])
                yy = np.concatenate([[np.interp(p, grid, vals)], vals[inner],
                                     [np.interp(q, grid, vals)]])
                if len(gg) < 3:
                    gg = np.array([p, 0.5 * (p + q), q])
                    yy = np.interp(gg, grid, vals)
                total += piece_integral(gg, yy, center, width)
        totals.append(total)
    return np.array(totals)


_COARSE_EDGES = (-4.0, -1.0, 2.0, 5.0, 20.0)


def _coarse_bump():
    """Four segments on grids of step about 0.45, coarser than the knot
    spacing of the narrower tests, so that some knot pieces hold no grid
    node; the domain is long enough that narrow tests miss whole segments."""
    segments = []
    for a, b in zip(_COARSE_EDGES[:-1], _COARSE_EDGES[1:]):
        grid = np.linspace(a, b, round((b - a) / 0.45) + 1)
        segments.append((a, b, grid, 1.0 + 0.3 * np.sin(grid)))
    return PiecewiseBump(eps=1.0, n1=1.0, breakpoints=np.array(_COARSE_EDGES),
                         segments=segments, m1_prime=2.0 * np.pi, lipschitz=1.0)


def _coarse_cover(n_tests, seed):
    """For the tests drawn as the residual draws them on the coarse bump: the
    number of knot pieces inside a support with no grid node strictly inside,
    and for each test the segments its support reaches."""
    lo, hi = _COARSE_EDGES[0], _COARSE_EDGES[-1]
    rng = np.random.default_rng(seed)
    segments = _coarse_bump().segments
    empty, reached = 0, []
    for _ in range(n_tests):
        c = rng.uniform(lo, hi)
        w = rng.uniform(0.3, max(0.4, (hi - lo) / 2.0))
        knots = c + w * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        reached.append(set())
        for i, (a, b, grid, _) in enumerate(segments):
            cuts = np.clip(knots, a, b)
            for p, q in zip(cuts[:-1], cuts[1:]):
                if q > p:
                    reached[-1].add(i)
                    empty += not np.any((grid > p + 1e-12) & (grid < q - 1e-12))
    return empty, reached


def _bench_edo7(eps):
    """construct_edo7 as the benchmark's edo7 operation calls it: u = 0,
    three bumps, 1000 steps per pi / sqrt(eps)."""
    r = np.sqrt(eps)
    return construct_edo7(0.0, eps, 2.5 * np.arctan(4.0 / r) / r, step=np.pi / r / 1000)


@pytest.mark.parametrize("case", ["zero", "cos", "bench-0.5", "bench-2", "coarse",
                                  "coarse-2-tests", "coarse-5-tests"])
def test_weak_residual_equals_the_per_piece_loop(case):
    """The chunked vectorised integrals, and so the residual, their minimum,
    against one Simpson call per piece, to 1e-12 absolute."""
    u, n_tests, seed = 0.0, 50, 20240
    if case == "zero":
        bump = construct_edo7(0.0, 1.0, 1.0)
    elif case == "cos":
        u = lambda s: 0.2 * np.cos(s)
        bump = construct_edo7(u, 1.0, 1.0)
    elif case.startswith("bench"):
        bump = _bench_edo7(float(case.split("-")[1]))
    else:
        u = lambda s: 0.3 * np.sin(s)
        bump = _coarse_bump()
        n_tests, seed = {"coarse": (50, 20240), "coarse-2-tests": (2, 4),
                         "coarse-5-tests": (5, 0)}[case]
        empty, reached = _coarse_cover(n_tests, seed)
        assert any(len(r) < 4 for r in reached)  # a test that misses a segment
        if case == "coarse":
            assert empty > 0  # a piece padded with its midpoint
        if case == "coarse-2-tests":
            assert set.union(*reached) == {3}  # segments that no test reaches
    ref = _reference_weak_integrals(bump, u, n_tests, seed)
    got = _weak_integrals(bump, _as_profile(u), n_tests, seed)
    assert got.shape == ref.shape and np.max(np.abs(got - ref)) <= 1e-12
    assert abs(weak_inequality_residual(bump, u, n_tests=n_tests, seed=seed) - ref.min()) <= 1e-12


def test_bump_boundary_slopes():
    """y'(s0) stays below the re-start slope u(s0) + 4 and y'(s1) <= 0."""
    for u in (0.0, lambda s: 0.6 * np.cos(1.3 * s)):
        sol = solve_prop_edo(u, 1.0, step=1e-4)
        prof = u if callable(u) else (lambda s: u)
        i0 = int(np.searchsorted(sol.s, sol.s0))
        yp = sol.y * prof(sol.s) + sol.z
        assert yp[min(i0, len(yp) - 1)] <= prof(sol.s0) + 4.0 + 1e-6
        assert yp[-1] <= 1e-3
        assert abs(sol.y[0] - 1.0) < 1e-15
