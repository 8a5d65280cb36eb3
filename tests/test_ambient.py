import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efimov_lab import _fd, gallery
from efimov_lab.ambient import (
    CHUNK,
    ChartBox,
    MetricField,
    _checked_inverse,
    christoffel,
    curvature_sample,
    dnabla,
    gauss_curvature,
    metric_from_expressions,
    riemann_covariant,
    riemann_operator,
    riemann_sectional,
    sectional_range,
)
from efimov_lab.curves import _chart_flow
from efimov_lab.errors import (
    DegeneratePlane,
    ExpressionEvaluationError,
    LeftPatch,
    NonFiniteMetric,
    NonInvertibleMetric,
    PointOutsideChart,
)
from efimov_lab.expressions import parse_assignments


def diagonal(*entries):
    """A metric leaf diag(entries) written to broadcast: each entry maps
    (..., dim) points to (...,) values, or is a constant."""
    def matrix(p):
        diag = np.stack(np.broadcast_arrays(*(e(p) if callable(e) else np.float64(e)
                                              for e in entries)), axis=-1)
        return diag[..., None] * np.eye(len(entries))
    return matrix


def polar_flat():
    return MetricField(3, diagonal(1.0, lambda p: p[..., 0] ** 2, 1.0),
                       ChartBox((0.5, -3.0, -1.0), (3.0, 3.0, 1.0)), name="polar")


def test_christoffel_flat_is_zero(euclid):
    gam = christoffel(euclid, [0.3, -0.8, 2.0])
    assert np.max(np.abs(gam)) == 0.0


def test_christoffel_polar_classical():
    gam = christoffel(polar_flat(), [2.0, 0.3, 0.0])
    assert abs(gam[0, 1, 1] + 2.0) < 1e-9
    assert abs(gam[1, 0, 1] - 0.5) < 1e-9
    assert np.max(np.abs(gam - np.swapaxes(gam, 1, 2))) < 1e-12


def test_christoffel_g_lambda_analytic_vs_fd():
    analytic = gallery.g_lambda(1.0)
    fd = gallery.g_lambda(1.0, analytic=False)
    p = np.array([0.0, 0.0, 0.0])
    assert np.max(np.abs(christoffel(analytic, p) - christoffel(fd, p))) < 1e-6
    p = np.array([0.3, -0.5, 0.05])
    assert np.max(np.abs(christoffel(analytic, p) - christoffel(fd, p))) < 1e-6


@pytest.mark.parametrize("name,expected", [("sphere3", 1.0), ("hyperbolic3", -1.0)])
def test_constant_sectional(name, expected):
    m = gallery.build_example(name).metric
    p = np.array([0.12, -0.2, 0.25])
    k = riemann_sectional(m, p, [1.0, 0.2, 0.0], [0.0, 1.0, -0.3])
    assert abs(k - expected) < 1e-6
    lo, hi = sectional_range(m, p)
    assert abs(lo - expected) < 1e-6 and abs(hi - expected) < 1e-6


def test_g_lambda_diagonal_entry():
    m = gallery.g_lambda(1.0)
    p = np.array([0.0, 1.0, 0.0])
    g = m.matrix(p)
    e1 = np.array([1.0, 0, 0]) / np.sqrt(g[0, 0])
    e2 = np.array([0, 1.0, 0]) / np.sqrt(g[1, 1])
    assert abs(riemann_sectional(m, p, e1, e2) - 0.0) < 1e-4  # lambda^2 - 1 = 0


def test_g_lambda_sectional_range_interval():
    m = gallery.g_lambda(1.0)
    lo, hi = sectional_range(m, [0.0, 1.0, 0.0])
    b = 2.0 * np.tanh(1.0)
    assert abs(lo + b) < 1e-3 and abs(hi - b) < 1e-3
    lo, hi = sectional_range(m, [0.4, 0.0, 0.0])
    assert abs(lo) < 1e-4 and abs(hi) < 1e-4


def test_riemann_symmetries():
    for name, tol in (("sphere3", 1e-8), ("hyperbolic3", 1e-8)):
        m = gallery.build_example(name).metric
        s = curvature_sample(m, [0.2, 0.1, -0.3])
        assert max(s.symmetry_residuals.values()) < tol
    s = curvature_sample(gallery.g_lambda(1.0, analytic=False), [0.3, 0.4, 0.0])
    assert max(s.symmetry_residuals.values()) < 1e-4


def test_sectional_range_brackets_random_planes():
    m = gallery.g_lambda(2.0)
    p = np.array([0.5, 0.7, 0.02])
    lo, hi = sectional_range(m, p)
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        k = riemann_sectional(m, p, x, y)
        assert lo - 1e-8 <= k <= hi + 1e-8


def test_fd_convergence_order():
    """Halving h should shrink the curvature error at order >= 1.8."""
    truth = gallery.g_lambda(1.0)
    p = np.array([0.3, 0.6, 0.0])
    ref = riemann_covariant(truth, p)

    def err(h):
        m = gallery.g_lambda(1.0, analytic=False, fd_step=h)
        return np.max(np.abs(riemann_covariant(m, p) - ref))

    e1, e2 = err(2e-2), err(1e-2)
    order = np.log2(e1 / e2)
    assert order >= 1.8


def test_point_outside_chart():
    m = gallery.g_lambda(1.0)
    with pytest.raises(PointOutsideChart):
        christoffel(m, [0.0, 0.0, 5.0])


def test_chart_box_contains_edge_inputs():
    box = ChartBox((-1.0, 0.0), (1.0, 2.0))
    cases = [
        ((0.0, 1.0), 0.0, True),
        ((1.0, 2.0), 0.0, True),              # closed bounds
        ((-1.0 - 5e-16, 0.0), 0.0, True),     # inside the 1e-15 slack
        ((1.0 + 5e-16, 1.0), 0.0, True),
        ((-1.0 - 3e-15, 1.0), 0.0, False),    # beyond the slack
        ((0.0, 2.0 + 3e-15), 0.0, False),
        ((0.9, 1.0), 0.1, True),              # margin shrinks the box
        ((0.95, 1.0), 0.1, False),
        ((0.0, 1.9 + 5e-16), 0.1, True),
        ((np.nan, 1.0), 0.0, False),
        ((0.0, np.nan), 0.0, False),
        ((np.inf, 1.0), 0.0, False),
        ((0.0, -np.inf), 0.0, False),
        ((0.0, 1.0), np.nan, False),
        ((0.0, 1.0), np.inf, False),
    ]
    for p, margin, expected in cases:
        assert box.contains(np.array(p), margin=margin) is expected, (p, margin)
        assert box.contains(list(p), margin=margin) is expected, (p, margin)
        # the row-wise form agrees on every row of a batch
        rows = box.inside(np.array([p, (0.0, 1.0), p]), margin=margin)
        assert rows.tolist() == [expected, box.contains((0.0, 1.0), margin), expected], (p, margin)
    inf_box = ChartBox((-np.inf, 0), (np.inf, 1))
    assert inf_box.contains((1e300, 1)) is True
    assert inf_box.contains((np.inf, 0.5)) is True
    assert inf_box.contains((np.nan, 0.5)) is False
    with pytest.raises(ValueError):
        box.contains([0.0, 1.0, 0.0])


# with margin 2e-3, (lo + margin) - 1e-15 differs from (lo - 1e-15) + margin
# at lo = -1 and -8 (and likewise at hi = 1, 2, 8), and from lo + (margin -
# 1e-15) at lo = -0.03 and hi = 0.03
@pytest.mark.parametrize("box", [ChartBox((-1.0, 0.05), (1.0, 4.0)),
                                 ChartBox((-0.03, -1.0, -8.0), (0.03, 2.0, 8.0))],
                         ids=["2d", "3d"])
@pytest.mark.parametrize("margin", [0.0, 2e-3])
def test_chart_box_inside_equals_contains_at_the_shrunk_edges(box, margin):
    """Points on the box shrunk by ``margin`` (rounded as ``lo + margin -
    1e-15``) and one ulp to either side of it: every row of ``inside``
    equals ``contains`` of that row, and the edge itself is inside.  The
    one-reduction accept paths agree row for row: the batch
    ``require_inside`` and the stop rule of ``curves._chart_flow`` (on the
    first two axes) accept exactly the rows that ``inside`` accepts, and
    on the whole batch they name its first rejected row."""
    centre = [0.5 * (lo + hi) for lo, hi in zip(box.lo, box.hi)]
    rows, expected = [], []
    for axis, (lo, hi) in enumerate(zip(box.lo, box.hi)):
        for edge, out in ((lo + margin - 1e-15, -np.inf), (hi - margin + 1e-15, np.inf)):
            for x, inside in ((edge, True), (np.nextafter(edge, out), False),
                              (np.nextafter(edge, -out), True)):
                rows.append(centre[:axis] + [x] + centre[axis + 1:])
                expected.append(inside)
    rows = np.array(rows)
    assert box.inside(rows, margin).tolist() == [box.contains(r, margin) for r in rows] == expected

    def accepts(check, batch):
        try:
            check(batch)
        except (PointOutsideChart, LeftPatch):
            return False
        return True

    def require(batch):
        box.require_inside(batch, margin)

    assert [accepts(require, rows[k:k + 1]) for k in range(len(rows))] == expected
    with pytest.raises(PointOutsideChart) as exc:
        require(rows)
    assert str(rows[expected.index(False)]) in str(exc.value)
    require(rows[np.array(expected)])

    # the flow's states hold a chart point and a velocity; a zero rhs keeps
    # every state where it starts, so its one step is tested at the rows
    plane = ChartBox(box.lo[:2], box.hi[:2])
    states = np.hstack([rows[:, :2], np.zeros((len(rows), 2))])
    on_plane = plane.inside(states[:, :2], margin).tolist()

    def flow(batch):
        list(_chart_flow(SimpleNamespace(box=plane), lambda t, y: np.zeros_like(y), batch,
                         1.0, 1.0, margin))

    assert [accepts(flow, s) for s in states] == on_plane
    assert [accepts(flow, states[k:k + 1]) for k in range(len(rows))] == on_plane
    with pytest.raises(LeftPatch) as exc:
        flow(states)
    assert exc.value.row == on_plane.index(False)
    flow(states[np.array(on_plane)])


def test_metric_field_takes_dims_2_and_3_only():
    for dim in (1, 4):
        with pytest.raises(ValueError, match="dim 2 or 3"):
            MetricField(dim, lambda p: np.eye(dim), ChartBox.cube(dim, 1.0))


def test_metric_field_jet_hook_needs_a_first_jet_hook():
    with pytest.raises(ValueError, match="needs a first_jet hook"):
        MetricField(2, lambda p: np.eye(2), ChartBox.cube(2, 1.0),
                    jet=lambda p: (np.eye(2), np.zeros((2, 2, 2)), np.zeros((2, 2, 2, 2))))


@pytest.mark.parametrize("p", [np.zeros(2), np.zeros((3, 2))], ids=["point", "batch"])
def test_metric_leaf_of_the_wrong_shape_raises_naming_the_leaf(p):
    """A dim-2 metric whose matrix leaf gives 3x3 matrices raises ValueError
    naming the leaf, at one point and on a batch, where numpy's matmul or
    broadcast used to fail further down; a constant 2x2 leaf is broadcast."""
    wide = MetricField(2, lambda q: np.eye(3), ChartBox.cube(2, 1.0))
    for read in (wide.matrix, lambda q: christoffel(wide, q)):
        with pytest.raises(ValueError, match="metric's matrix leaf"):
            read(p)
    constant = MetricField(2, lambda q: np.eye(2), ChartBox.cube(2, 1.0))
    assert np.array_equal(constant.matrix(p), np.broadcast_to(np.eye(2), p.shape + (2,)))


def test_non_invertible_metric():
    m = MetricField(3, _fd.pointwise(lambda p: np.diag([p[0] ** 2, 1.0, 1.0])),
                    ChartBox((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)))
    with pytest.raises(NonInvertibleMetric):
        m.inverse([0.0, 0.0, 0.0])


@pytest.mark.parametrize("evaluate", [sectional_range, curvature_sample])
def test_lorentzian_metric_sectional_extremes_raise_typed_error(evaluate):
    """An indefinite metric has no positive definite Gram matrix on 2-planes,
    so the sectional pencil is not symmetric-definite: at one point and in
    a batch."""
    m = lorentzian()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonInvertibleMetric):
            evaluate(m, [0.1, 0.2, 0.3])
        with pytest.raises(NonInvertibleMetric, match=re.escape(str(np.zeros(3)))):
            evaluate(m, np.zeros((4, 3)))


def lorentzian():
    return MetricField(3, diagonal(1.0, 1.0, lambda p: -1.0 - 0.1 * p[..., 0] ** 2),
                       ChartBox.cube(3, 1.0))


def test_degenerate_plane():
    m = gallery.build_example("sphere3").metric
    with pytest.raises(DegeneratePlane):
        riemann_sectional(m, [0.1, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0])


def test_metric_symmetry_and_positivity_sampled():
    for name in ("sphere3", "hyperbolic3"):
        m = gallery.build_example(name).metric
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = 0.4 * (2 * rng.random(3) - 1)
            g = m.matrix(p)
            assert np.max(np.abs(g - g.T)) < 1e-12
            assert np.all(np.linalg.eigvalsh(g) > 0)


# --- one shared stencil per point for metrics without analytic partials ------


def counted(metric):
    """(copy of a pure-FD metric whose matrix leaf records the point count
    of each call, counts)"""
    counts = []

    def matrix(p):
        counts.append(int(np.prod(np.shape(p)[:-1])))
        return metric.matrix(p)

    return MetricField(metric.dim, matrix, metric.box, fd_step=metric.fd_step,
                       name=metric.name), counts


def batch_3d(n):
    """n points inside the g_lambda(1) stencil margin."""
    rng = np.random.default_rng(n)
    return np.column_stack([rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n),
                            rng.uniform(-0.15, 0.15, n)])


@pytest.mark.parametrize("evaluate", [curvature_sample, riemann_covariant])
def test_pure_fd_curvature_takes_one_stencil_per_point(evaluate):
    """1 + 4n + 4n(n-1) = 37 distinct points in 3D, each evaluated once, in
    one leaf call per batch: one point, then N points."""
    m, counts = counted(gallery.g_lambda(1.0, analytic=False))
    evaluate(m, [0.3, -0.4, 0.05])
    assert counts == [37]
    counts.clear()
    evaluate(m, batch_3d(5))
    assert counts == [5 * 37]


def sinh_polar():
    """dr^2 + sinh^2(r) dtheta^2, written to broadcast, without partials."""
    return MetricField(2, diagonal(1.0, lambda q: np.sinh(q[..., 0]) ** 2),
                       ChartBox((0.5, -1.0), (2.0, 1.0)))


def test_pure_fd_curvature_in_2d_takes_17_evaluations():
    m, counts = counted(sinh_polar())
    rm = riemann_covariant(m, [1.1, 0.2])
    assert counts == [17]
    k = rm[0, 1, 1, 0] / np.linalg.det(m.matrix([1.1, 0.2]))
    assert abs(k + 1.0) < 1e-6  # dr^2 + sinh^2(r) dtheta^2 has K = -1
    counts.clear()
    qs = np.column_stack([np.linspace(0.6, 1.9, 6), np.linspace(-0.9, 0.9, 6)])
    rm = riemann_covariant(m, qs)
    assert counts == [6 * 17]
    k = rm[:, 0, 1, 1, 0] / np.linalg.det(m.matrix(qs))
    assert np.max(np.abs(k + 1.0)) < 1e-6


def test_grid_beyond_one_chunk_takes_one_leaf_call_per_chunk():
    """Grids are evaluated CHUNK rows at a time: ceil(N / CHUNK) leaf calls
    of at most CHUNK stencils, and every row has the closed-form curvature
    of dw^2 + e^{2w}(du^2 + dv^2), -1."""
    fields, box = parse_assignments(
        "box = -1 1 -1 1 -0.5 0.5\ng11 = exp(2*w)\ng22 = exp(2*w)\ng33 = 1\n", ("u", "v", "w"))
    m, counts = counted(metric_from_expressions(fields, ChartBox(tuple(box[0::2]),
                                                                 tuple(box[1::2]))))
    n = 2 * CHUNK + 3
    rng = np.random.default_rng(8)
    pts = rng.uniform([-0.9, -0.9, -0.45], [0.9, 0.9, 0.45], (n, 3))
    s = curvature_sample(m, pts)
    assert counts == [37 * CHUNK, 37 * CHUNK, 37 * 3] and len(counts) == -(-n // CHUNK)
    assert s.k_min.shape == s.k_max.shape == (n,) and s.riemann.shape == (n, 3, 3, 3, 3)
    assert np.max(np.abs(s.k_min + 1.0)) < 1e-6 and np.max(np.abs(s.k_max + 1.0)) < 1e-6


def test_gauss_curvature_reads_g_from_its_jet():
    """K = Rm_0110 / det g takes g from the curvature's own jet: one matrix
    leaf call of 17 points per row and per chunk, and the value of
    riemann_covariant over det of a separate g, bit for bit.  (The leaf
    multiplies, so one point and a batch round alike.)"""
    base = MetricField(2, diagonal(1.0, lambda q: np.sinh(q[..., 0]) * np.sinh(q[..., 0])),
                       ChartBox((0.5, -1.0), (2.0, 1.0)))
    m, counts = counted(base)
    p = np.array([1.1, 0.2])
    k = gauss_curvature(m, p)
    assert counts == [17]
    assert k == riemann_covariant(base, p)[0, 1, 1, 0] / np.linalg.det(base.matrix(p))
    counts.clear()
    n = CHUNK + 2
    qs = np.column_stack([np.linspace(0.6, 1.9, n), np.linspace(-0.9, 0.9, n)])
    k = gauss_curvature(m, qs)
    assert counts == [17 * CHUNK, 17 * 2]
    ref = riemann_covariant(base, qs)[:, 0, 1, 1, 0] / np.linalg.det(base.matrix(qs))
    assert np.array_equal(k, ref) and np.max(np.abs(k + 1.0)) < 1e-6


def test_sectional_range_reads_g_from_its_jet():
    """The pencil of sectional_range takes g from the curvature's own jet:
    one matrix leaf call of 37 points per row and per chunk, and the
    extremes of curvature_sample, bit for bit."""
    base = gallery.g_lambda(1.0, analytic=False)
    m, counts = counted(base)
    p = np.array([0.3, -0.4, 0.05])
    lo, hi = sectional_range(m, p)
    assert counts == [37]
    s = curvature_sample(base, p)
    assert (lo, hi) == (s.k_min, s.k_max)
    counts.clear()
    pts = batch_3d(CHUNK + 2)
    lo, hi = sectional_range(m, pts)
    assert counts == [37 * CHUNK, 37 * 2]
    s = curvature_sample(base, pts)
    assert np.array_equal(lo, s.k_min) and np.array_equal(hi, s.k_max)


def test_pure_fd_jet_equals_separate_derivatives():
    """The jet's g, dg and d2g equal the separate central and second stencils
    bit for bit, so curvature numbers do not move: at one point, and at each
    row of an (N, 3) batch against the stencils of that batch.  (The leaf of
    a batch squares with numpy's array power, which can round differently
    from the scalar power of one point, so rows are compared with stencils
    evaluated the same way.)"""
    m = gallery.g_lambda(0.7, analytic=False)
    h = m.fd_step
    p = np.array([0.3, -0.4, 0.05])
    batch = np.vstack([p, batch_3d(6)])

    def assert_jet_matches(q, pick):
        g, dg, d2g = (pick(a) for a in m.jet(q))
        assert np.array_equal(g, pick(m.matrix(q)))
        assert np.array_equal(dg, pick(_fd.gradient(m.matrix, q, h)))
        for k in range(3):
            assert np.array_equal(dg[k], pick(_fd.central(m.matrix, q, k, h)))
            for l in range(k, 3):
                d2 = pick(_fd.second(m.matrix, q, k, l, h))
                assert np.array_equal(d2g[k, l], d2) and np.array_equal(d2g[l, k], d2)

    assert_jet_matches(p, lambda a: a)
    for row in range(len(batch)):
        assert_jet_matches(batch, lambda a: a[row])


def degenerate_metric():
    """diag(1, 1, w^2): degenerate on the plane w = 0."""
    return MetricField(3, diagonal(1.0, 1.0, lambda p: p[..., 2] ** 2), ChartBox.cube(3, 1.0))


@pytest.mark.parametrize("evaluate", [curvature_sample, riemann_covariant])
def test_pure_fd_curvature_typed_errors(evaluate):
    """The fd_margin chart check and the determinant floor still hold, and
    neither surfaces as a numpy warning."""
    m = gallery.g_lambda(1.0, analytic=False)
    room = m.box.hi[2] - m.fd_margin()  # just room for the stencil
    edge = m.box.hi[2] - 0.5 * m.fd_margin()  # inside the box, short of the stencil
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        christoffel(m, [0.1, 0.2, room])
        evaluate(m, [0.1, 0.2, room])
        with pytest.raises(PointOutsideChart):
            evaluate(m, [0.1, 0.2, edge])
        with pytest.raises(NonInvertibleMetric):
            evaluate(degenerate_metric(), [0.1, 0.2, 0.0])


@pytest.mark.parametrize("evaluate", [curvature_sample, riemann_covariant, sectional_range])
def test_batch_typed_errors_name_the_failing_row(evaluate):
    """One bad row of a batch raises the typed error of a single point,
    naming that row's point, and no numpy warning: a row short of the
    stencil margin and a row where the metric degenerates."""
    m = gallery.g_lambda(1.0, analytic=False)
    edge = m.box.hi[2] - 0.5 * m.fd_margin()
    batch = batch_3d(7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate(m, batch)
        bad = batch.copy()
        bad[4] = [0.1, 0.2, edge]
        with pytest.raises(PointOutsideChart, match=re.escape(str(bad[4]))):
            evaluate(m, bad)
        flat = 0.5 * batch
        flat[3, 2] = 0.0
        with pytest.raises(NonInvertibleMetric, match=re.escape(str(flat[3]))):
            evaluate(degenerate_metric(), flat)


@pytest.mark.parametrize("evaluate", [curvature_sample, riemann_covariant, sectional_range])
def test_overflowing_stencil_raises_typed_error_naming_the_row(evaluate):
    """g11 = e^{709 x} is finite on the chart, but its second differences at
    x = 0.998 overflow: NonFiniteMetric naming that point, at one point and
    in a batch, and no numpy warning."""
    m = MetricField(3, diagonal(lambda p: np.exp(709.0 * p[..., 0]), 1.0, 1.0),
                    ChartBox.cube(3, 1.0))
    hot = np.array([0.998, 0.1, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate(m, [0.5, 0.1, 0.0])
        with pytest.raises(NonFiniteMetric, match=re.escape(str(hot))):
            evaluate(m, hot)
        with pytest.raises(NonFiniteMetric, match=re.escape(str(hot))):
            evaluate(m, np.array([[0.5, 0.1, 0.0], hot, [0.9, 0.0, 0.0]]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(c=st.floats(0.3, 1.5), u=st.floats(-0.9, 0.9), v=st.floats(-0.9, 0.9),
       w=st.floats(-0.45, 0.45))
def test_expression_file_metric_has_constant_curvature(c, u, v, w):
    """dw^2 + e^{2cw}(du^2 + dv^2) is hyperbolic space of curvature -c^2."""
    fields, box = parse_assignments(
        f"box = -1 1 -1 1 -0.5 0.5\ng11 = exp(2*{c!r}*w)\ng22 = exp(2*{c!r}*w)\ng33 = 1\n",
        ("u", "v", "w"))
    m = metric_from_expressions(fields, ChartBox(tuple(box[0::2]), tuple(box[1::2])))
    s = curvature_sample(m, [u, v, w])
    assert abs(s.k_min + c * c) < 1e-12 and abs(s.k_max + c * c) < 1e-12
    assert max(s.symmetry_residuals.values()) < 1e-12


def file_metric(text, box="box = -0.8 0.8 -0.8 0.8 -0.8 0.8"):
    """The metric of a declarative file with these entry lines."""
    fields, b = parse_assignments(f"{box}\n{text}", ("u", "v", "w"))
    return metric_from_expressions(fields, ChartBox(tuple(b[0::2]), tuple(b[1::2])), name="file")


# entries by every rule of the derivative, on arguments inside each function's
# domain; a rule reads its first argument, or both
_ENTRY_RULES = ["({} + {})", "({} - {})", "({} * {})", "{} / (1.5 + cos({}))", "sin({})",
                "cosh(tanh({}))", "exp(sin({}))", "ln(1.5 + sin({}))", "-{}", "({})^3",
                "(1.5 + sin({}))^0.5", "(1.5 + sin({}))^(cos({}))"]
ENTRIES = st.recursive(st.sampled_from(["u", "v", "w", "0.7"]),
                       lambda inner: st.builds(str.format, st.sampled_from(_ENTRY_RULES),
                                               inner, inner),
                       max_leaves=5)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(g11=ENTRIES, g12=ENTRIES, g23=ENTRIES, p=st.tuples(*[st.floats(-0.7, 0.7)] * 3))
def test_expression_metric_leaves_match_the_fd_jet(g11, g12, g23, p):
    """The exact partials and second partials of a metric file against the
    one-stencil jet of ``_fd`` on its matrix leaf, within its truncation and
    rounding error at step 1e-3, and symmetric in both index pairs."""
    m = file_metric(f"g11 = {g11}\ng12 = {g12}\ng23 = {g23}\n")
    assert m.has_analytic_partials and m.fd_margin() == 0.0
    p = np.array(p)
    g, dg, d2g = m.jet(p)
    g_fd, dg_fd, d2g_fd = _fd.jet(m.matrix, p, 1e-3)
    scale = 1.0 + max(np.max(np.abs(a)) for a in (g, dg, d2g))
    assert np.array_equal(g, g_fd)
    assert np.max(np.abs(dg - dg_fd)) <= 1e-8 * scale
    assert np.max(np.abs(d2g - d2g_fd)) <= 1e-6 * scale
    assert np.array_equal(dg, np.swapaxes(dg, 1, 2))
    assert np.array_equal(d2g, np.swapaxes(d2g, 0, 1))
    assert np.array_equal(d2g, np.swapaxes(d2g, 2, 3))


def test_expression_metric_evaluates_only_the_trees_that_are_not_zero(leaf_stores):
    """dw^2 + e^{2w}(du^2 + dv^2): one jet evaluates the three entries, the
    two w-derivatives of e^{2w} and their two w-derivatives, each once, on
    the (3,) point itself and on the rows of a batch."""
    m = file_metric("g11 = exp(2*w)\ng22 = exp(2*w)\ng33 = 1\n")
    trees = sorted([(0, 0), (1, 1), (2, 2), (2, 0, 0), (2, 1, 1), (2, 2, 0, 0), (2, 2, 1, 1)])
    for p in (np.array([0.1, 0.2, 0.3]), batch_3d(5)):
        leaf_stores.clear()
        m.jet(p)
        assert sorted(index for index, _ in leaf_stores) == trees
        assert all(shape == p.shape for _, shape in leaf_stores)


def test_expression_metric_names_a_derivative_undefined_where_its_entry_is_defined():
    """g11 = 1 + u^0.5 is 1 at u = 0, on the chart's edge, where its
    derivative is not defined: ExpressionEvaluationError names the
    derivative tree and the point, and no numpy warning is raised."""
    m = file_metric("g11 = 1 + u^0.5\ng22 = 1\ng33 = 1\n", box="box = 0 1 -1 1 -1 1")
    assert np.array_equal(m.matrix([0.0, 0.2, 0.0]), np.eye(3))
    message = "failed to evaluate 'd(1 + u^0.5)/du' at {'u': 0.0, 'v': 0.2, 'w': 0.0}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (christoffel, curvature_sample):
            with pytest.raises(ExpressionEvaluationError, match=re.escape(message)):
                evaluate(m, [0.0, 0.2, 0.0])


# --- batched christoffel and d^nabla -----------------------------------------


@pytest.mark.parametrize("metric, scale", [
    (gallery.g_lambda(1.0), 1.0), (gallery.g_lambda(1.0, analytic=False), 1.0),
    (gallery.hyperbolic3(), 0.3), (gallery.sphere3(), 0.5), (gallery.euclidean3(), 1.0)],
    ids=["analytic", "pure_fd", "conformal", "sphere3", "euclidean3"])
def test_christoffel_batch_rows_equal_one_point_calls(metric, scale):
    """Each row of an (N, 3) batch, and of a (rows, cols, 3) array, is its
    one-point call bit for bit, with analytic partials and without."""
    pts = scale * batch_3d(6)
    single = np.array([christoffel(metric, p) for p in pts])
    assert np.array_equal(christoffel(metric, pts), single)
    assert np.array_equal(christoffel(metric, pts.reshape(2, 3, 3)), single.reshape(2, 3, 3, 3, 3))


def inf_beside(metric, x0):
    """A copy of a 3D metric without analytic partials whose matrix leaf is
    inf at every point with x > x0."""
    def matrix(p):
        g = np.array(metric.matrix(p))
        g[p[..., 0] > x0] = np.inf
        return g

    return MetricField(3, matrix, metric.box, fd_step=metric.fd_step)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_christoffel_non_finite_metric_raises_typed_error_naming_the_row():
    """A metric that is inf beside the point, inside its stencil, or a
    partial that is inf at the point: NonFiniteMetric naming that point, at
    one point and in a batch, never a numpy warning or a NaN."""
    base = gallery.g_lambda(1.0, analytic=False)
    hot = np.array([0.5, 0.1, 0.0])
    m = inf_beside(base, 0.5 + 0.5 * base.fd_step)
    assert np.array_equal(christoffel(m, [0.4, 0.1, 0.0]), christoffel(base, [0.4, 0.1, 0.0]))
    with pytest.raises(NonFiniteMetric, match=re.escape(str(hot))):
        christoffel(m, hot)
    with pytest.raises(NonFiniteMetric, match=re.escape(str(hot))):
        christoffel(m, np.array([[0.2, 0.0, 0.0], hot, [0.9, 0.0, 0.0]]))

    def first_jet(p):
        g, dg = gallery.g_lambda(1.0).first_jet(p)
        dg = np.array(dg)
        dg[p[..., 1] < 0] = np.inf
        return g, dg

    analytic = MetricField(3, base.matrix, base.box, first_jet=first_jet)
    cold = np.array([0.2, -0.1, 0.0])
    with pytest.raises(NonFiniteMetric, match=re.escape(str(cold))):
        christoffel(analytic, cold)
    with pytest.raises(NonFiniteMetric, match=re.escape(str(cold))):
        christoffel(analytic, np.array([[0.2, 0.1, 0.0], cold]))


def test_dnabla_batch_rows_equal_one_point_calls():
    """d^nabla of stacked (A, dA, Gamma) is, row by row, the one-point value,
    and zero for the identity of a torsion-free connection (Gamma(x, y) =
    Gamma(y, x))."""
    rng = np.random.default_rng(9)
    a, da, gam = rng.normal(size=(5, 2, 2)), rng.normal(size=(5, 2, 2, 2)), rng.normal(size=(5, 2, 2, 2))
    x, y = rng.normal(size=(2, 2))
    batch = dnabla(a, da, gam, x, y)
    single = np.array([dnabla(a[n], da[n], gam[n], x, y) for n in range(5)])
    assert batch.shape == (5, 2) and np.array_equal(batch, single)
    sym = gam + np.swapaxes(gam, -1, -2)
    assert np.max(np.abs(dnabla(np.broadcast_to(np.eye(2), (5, 2, 2)), np.zeros((5, 2, 2, 2)),
                                sym, x, y))) < 1e-14


# --- the curvature kernel on full metrics ------------------------------------


def symmetric_leaf(entries):
    """A metric leaf from the upper-triangle entries ``{(i, j): e}``, each
    mapping (..., dim) points to (...,) values by elementwise sums and
    products only, so that the leaf keeps the batch contract itself."""
    dim = max(j for _, j in entries) + 1

    def matrix(p):
        g = np.zeros(p.shape[:-1] + (dim, dim))
        for (i, j), e in entries.items():
            g[..., i, j] = g[..., j, i] = e(*(p[..., k] for k in range(dim)))
        return g
    return matrix


def full_metric_3d():
    """A pure-FD 3D metric whose nine entries are all non-zero."""
    return MetricField(3, symmetric_leaf({
        (0, 0): lambda x, y, z: 1.0 + x * x, (0, 1): lambda x, y, z: 0.1 + 0.2 * x * y,
        (0, 2): lambda x, y, z: -0.05 + 0.1 * y * z, (1, 1): lambda x, y, z: 1.0 + 0.5 * y * y,
        (1, 2): lambda x, y, z: 0.02 + 0.15 * x * z, (2, 2): lambda x, y, z: 1.0 + 0.2 * x * z}),
        ChartBox.cube(3, 0.8), name="full3")


def full_metric_2d():
    """A pure-FD 2D metric with g12 != 0."""
    return MetricField(2, symmetric_leaf({
        (0, 0): lambda x, y: 1.0 + 0.3 * x * x, (0, 1): lambda x, y: 0.2 + 0.1 * x * y,
        (1, 1): lambda x, y: 1.0 + 0.4 * y * y}), ChartBox.cube(2, 0.8), name="full2")


def full_file_metric_3d():
    """A metric file with ``^``, ``ln``, ``/`` and all three off-diagonal entries,
    so its exact leaves raise arrays to powers."""
    return file_metric("g11 = (1.5 + u*v)^1.5\ng12 = 0.1*exp(u*w)\ng13 = -0.05 + 0.1*v^3\n"
                       "g22 = 1 + 0.5*(1.2 + v)^2.5\ng23 = 0.02 + 0.15*sin(u*w)\n"
                       "g33 = 1 + 0.2*ln(1.5 + w)/(2 + u)\n")


@pytest.mark.parametrize("metric", [full_metric_3d(), full_metric_2d(), full_file_metric_3d()],
                         ids=["3d", "2d", "file-3d"])
def test_curvature_batch_rows_equal_one_point_calls_on_full_metrics(metric):
    """Every row of a 30-row batch equals its one-point call bit for bit, for
    each curvature evaluator, on metrics whose off-diagonal entries are not
    zero: the kernel's contractions round each row as one point, and a
    metric file's leaves read one point on a one-row array, as a batch."""
    dim = metric.dim
    rng = np.random.default_rng(30 + dim)
    pts = rng.uniform(-0.75, 0.75, (30, dim))
    x, y = rng.normal(size=(2, 30, dim))  # a plane per row for riemann_sectional
    evaluators = {"riemann_operator": lambda p, a, b: riemann_operator(metric, p),
                  "riemann_covariant": lambda p, a, b: riemann_covariant(metric, p),
                  "riemann_sectional": lambda p, a, b: riemann_sectional(metric, p, a, b)}
    if dim == 2:
        evaluators["gauss_curvature"] = lambda p, a, b: gauss_curvature(metric, p)
    for name, evaluate in evaluators.items():
        single = np.array([evaluate(p, a, b) for p, a, b in zip(pts, x, y)])
        assert np.array_equal(evaluate(pts, x, y), single), name
    lo, hi = sectional_range(metric, pts)
    assert np.array_equal(np.column_stack([lo, hi]),
                          np.array([sectional_range(metric, p) for p in pts]))
    s = curvature_sample(metric, pts)
    for n, p in enumerate(pts):
        one = curvature_sample(metric, p)
        for name in ("point", "gamma", "riemann", "k_min", "k_max"):
            assert np.array_equal(getattr(s, name)[n], getattr(one, name)), (n, name)
        for name, v in one.symmetry_residuals.items():
            assert s.symmetry_residuals[name][n] == v, (n, name)


def test_sectional_range_in_2d_is_the_gauss_curvature():
    """In 2D, Lambda^2 is spanned by e1^e2 alone, so K_min = K_max = the
    Gauss curvature, on the full 2D metric, at one point and on each row
    of a batch."""
    m = full_metric_2d()
    pts = np.random.default_rng(2).uniform(-0.75, 0.75, (12, 2))
    k = gauss_curvature(m, pts)
    lo, hi = sectional_range(m, pts)
    assert np.array_equal(lo, hi)
    assert np.max(np.abs(lo - k)) <= 1e-14 * max(1.0, np.max(np.abs(k)))
    s = curvature_sample(m, pts[0])
    assert s.k_min == s.k_max == lo[0]


# a constant change of chart with all nine entries non-zero
PULLBACK = np.array([[1.0, 0.3, -0.2], [0.1, 0.9, 0.25], [-0.15, 0.2, 1.1]])


def pulled_back(space, analytic):
    """``space`` (a conformal space form of the gallery) in the chart
    x -> A x: ``g_A(x) = A^T g(A x) A`` on the cube of half-width 0.25, whose
    image lies inside the space's box; with ``analytic``, the first and
    second partials by the chain rule, else pure central differences."""
    a = PULLBACK

    def matrix(p):
        return a.T @ space.matrix(p @ a.T) @ a

    def jet(p):
        g, dg, d2g = space.jet(p @ a.T)
        return (a.T @ g @ a, np.einsum("...rpq,pi,qj,rk->...kij", dg, a, a, a),
                np.einsum("...rspq,pi,qj,rk,sl->...klij", d2g, a, a, a, a))

    box = ChartBox.cube(3, 0.25)
    if analytic:
        return MetricField(3, matrix, box, first_jet=lambda p: jet(p)[:2], jet=jet)
    return MetricField(3, matrix, box)


@pytest.mark.parametrize("analytic, tol", [(True, 1e-12), (False, 1e-6)], ids=["analytic", "fd"])
@pytest.mark.parametrize("space, k", [(gallery.hyperbolic3(), -1.0), (gallery.sphere3(), 1.0)],
                         ids=["hyperbolic3", "sphere3"])
def test_space_form_pulled_back_by_a_full_matrix_has_the_closed_form_tensor(space, k,
                                                                             analytic, tol):
    """A space form of curvature K in a linear chart with a full metric has
    ``Rm_ijkl = K (g_il g_jk - g_ik g_jl)``, every entry, relative to max |Rm|:
    the index order of every contraction is checked on a metric with nine
    non-zero entries, not only sectional values on a diagonal chart."""
    metric = pulled_back(space, analytic)
    pts = np.random.default_rng(11).uniform(-0.22, 0.22, (12, 3))
    g = metric.matrix(pts)
    assert np.all(np.abs(g) > 1e-3)
    closed = k * (np.einsum("nil,njk->nijkl", g, g) - np.einsum("nik,njl->nijkl", g, g))
    rm = riemann_covariant(metric, pts)
    assert np.max(np.abs(rm - closed)) < tol * np.max(np.abs(closed))
    assert np.max(np.abs(riemann_covariant(metric, pts[0]) - closed[0])) \
        < tol * np.max(np.abs(closed[0]))


# --- closed-form metric inverse ----------------------------------------------


def random_spd(rng, n, dim, cond=100.0):
    """n symmetric positive definite dim x dim matrices ``Q diag(lam) Q^T``
    with random rotations, eigenvalue ratios up to ``cond`` and overall
    scales over four decades."""
    q = np.linalg.qr(rng.normal(size=(n, dim, dim)))[0]
    lam = 10.0 ** (rng.uniform(0.0, np.log10(cond), (n, dim)) + rng.uniform(-2.0, 2.0, (n, 1)))
    a = q @ (lam[..., None] * np.swapaxes(q, -1, -2))
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def metric_stacks():
    """(name, stack of metric matrices): random SPD 2x2 and 3x3, and the
    conformal, slab and 2D polar metrics of the gallery at batch points."""
    rng = np.random.default_rng(25)
    pts = batch_3d(40)
    polar = np.column_stack([rng.uniform(0.5, 2.0, 40), rng.uniform(-1.0, 1.0, 40)])
    return [("spd2", random_spd(rng, 500, 2)), ("spd3", random_spd(rng, 500, 3)),
            ("sphere3", gallery.sphere3().matrix(0.5 * pts)),
            ("hyperbolic3", gallery.hyperbolic3().matrix(0.3 * pts)),
            ("g_lambda", gallery.g_lambda(1.0).matrix(pts)),
            ("g_lambda_3", gallery.g_lambda(3.0).matrix(pts * [1.0, 1.0, 0.4])),
            ("sinh_polar", sinh_polar().matrix(polar))]


def inverse_errors(stack):
    """(max-norm error of the closed-form inverse relative to LAPACK's,
    condition numbers), row by row; ``np.linalg.inv`` is the test-only
    oracle."""
    inv = _checked_inverse(stack, np.zeros(stack.shape[:-1]))
    ref = np.linalg.inv(stack)
    # the inverse of a symmetric matrix comes out symmetric bit for bit
    assert np.array_equal(inv, np.swapaxes(inv, -1, -2))
    err = np.max(np.abs(inv - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
    return err, np.linalg.cond(stack)


@pytest.mark.parametrize("name, stack", metric_stacks(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_closed_form_inverse_against_lapack(name, stack):
    """The adjugate-over-determinant inverse agrees with LAPACK's within a
    few ulp times the condition number, on metrics with condition numbers
    up to 100 and on the gallery's (diagonal) ambient metrics."""
    err, cond = inverse_errors(stack)
    assert np.max(err / (np.finfo(float).eps * cond)) < 4.0, name


def test_closed_form_3x3_inverse_error_grows_as_the_squared_condition_number():
    """Cramer's rule is forward stable for 2x2 matrices only: on a 3x3
    metric the rounding of the cofactor expansion of det g grows as
    ``eps cond^2`` (where LAPACK's stays at ``eps cond``), so an
    ill-conditioned metric with off-diagonal entries loses digits.  The
    bound, checked up to cond 1e6."""
    rng = np.random.default_rng(6)
    err, cond = inverse_errors(random_spd(rng, 2000, 3, cond=1e6))
    assert np.max(err / (np.finfo(float).eps * cond ** 2)) < 4.0


@pytest.mark.parametrize("dim", [2, 3])
def test_closed_form_inverse_batch_rows_equal_one_point_calls(dim):
    """Each row of a stack, of a stack with two leading axes and of a stack
    of one is its one-point inverse bit for bit, through ``_checked_inverse``
    and through ``MetricField.inverse``."""
    rng = np.random.default_rng(dim)
    stack = random_spd(rng, 6, dim)
    single = np.array([_checked_inverse(g, np.zeros(dim)) for g in stack])
    assert np.array_equal(_checked_inverse(stack, np.zeros((6, dim))), single)
    assert np.array_equal(_checked_inverse(stack.reshape(2, 3, dim, dim), np.zeros((2, 3, dim))),
                          single.reshape(2, 3, dim, dim))
    assert np.array_equal(_checked_inverse(stack[:1], np.zeros((1, dim))), single[:1])
    m = gallery.g_lambda(1.0) if dim == 3 else sinh_polar()
    pts = batch_3d(5) if dim == 3 else np.column_stack([np.linspace(0.6, 1.9, 5), np.zeros(5)])
    assert np.array_equal(m.inverse(pts), np.array([m.inverse(p) for p in pts]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inverse_of_a_non_finite_or_singular_metric_raises_naming_the_first_bad_row():
    """A determinant below DET_FLOOR, infinite or NaN raises
    NonInvertibleMetric, at one point and in a batch, where the error names
    the first bad row; never a numpy warning or an inverse with zeros."""
    box = ChartBox.cube(3, 1.0)
    for diag in ([np.inf, 1.0, 1.0], [np.nan, 1.0, 1.0], [1e200, 1e200, 1.0], [1e-13, 1.0, 1.0]):
        m = MetricField(3, lambda p, d=diag: np.diag(d), box)
        with pytest.raises(NonInvertibleMetric, match=re.escape(str(np.zeros(3)))):
            m.inverse(np.zeros(3))
    stack = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
    pts = np.arange(15.0).reshape(5, 3)
    for bad in (np.inf, np.nan, 0.0):
        rows = stack.copy()
        rows[2, 1, 1] = rows[4, 0, 0] = bad
        with pytest.raises(NonInvertibleMetric, match=re.escape(str(pts[2]))):
            _checked_inverse(rows, pts)
    plane = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
    plane[1, 0, 1] = plane[1, 1, 0] = np.inf
    with pytest.raises(NonInvertibleMetric, match=re.escape(str(pts[1, :2]))):
        _checked_inverse(plane, pts[:, :2])
