import numpy as np
import pytest

from efimov_lab.errors import BoundViolated, NoCrossing, ParameterOutOfRange
from efimov_lab.odelab import (
    construct_edo7,
    integrate_bump_system,
    solve_prop_edo,
    spiral_eigenvalues,
    weak_inequality_residual,
)


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


def test_bump_boundary_slopes():
    """y'(s0) stays below the re-start slope u(s0) + 4 and y'(s1) <= 0."""
    for u in (0.0, lambda s: 0.6 * np.cos(1.3 * s)):
        sol = solve_prop_edo(u, 1.0, step=1e-4)
        prof = u if callable(u) else (lambda s: u)
        i0 = int(np.searchsorted(sol.s, sol.s0))
        yp = sol.yprime
        assert yp[min(i0, len(yp) - 1)] <= prof(sol.s0) + 4.0 + 1e-6
        assert yp[-1] <= 1e-3
        assert abs(sol.y[0] - 1.0) < 1e-15
