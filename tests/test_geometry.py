"""Linear-algebra and planar-geometry primitives."""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import warnings

import numpy as np
import pytest

import shadowlp
from shadowlp import geometry, randgen
from shadowlp.geometry import (
    DEFAULT_TOL,
    VIEWPOINTS,
    FacetIndexSet,
    NoViewpoint,
    PointSet,
    SingularSystem,
    Tolerance,
    all_below,
    angular_distance,
    make_facet,
    max_row_norm,
    solve_linear,
    viewpoint_for_edge,
)

from helpers import cone_coefficients, reference_solve_linear


# ---------------------------------------------------------------------------
# solve_linear


def test_solve_linear_matches_numpy_on_well_conditioned_systems():
    rng = randgen.derive_rng(101)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        matrix = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
        rhs = rng.standard_normal((d, 2))
        got = solve_linear(matrix, rhs)
        want = np.linalg.solve(matrix, rhs)
        assert np.allclose(got, want, atol=1e-9)


def test_solve_linear_flags_singular_matrix():
    matrix = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystem):
        solve_linear(matrix, np.array([1.0, 1.0]))


def _scaled_pivots_pass(matrix, eps_singular):
    """Reference: Gaussian elimination with scaled partial pivoting, True
    when every pivot exceeds eps_singular times its row's largest |entry|."""
    a = np.array(matrix, dtype=float)
    scale = np.max(np.abs(a), axis=1)
    for k in range(a.shape[0]):
        p = k + int(np.argmax(np.abs(a[k:, k]) / scale[k:]))
        if abs(a[p, k]) <= eps_singular * scale[p]:
            return False
        a[[k, p]] = a[[p, k]]
        scale[[k, p]] = scale[[p, k]]
        a[k + 1:, k:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k:])
    return True


def test_solve_linear_singular_verdicts_match_scaled_elimination():
    rng = randgen.derive_rng(107)
    singular = 0
    for _ in range(1000):
        d = int(rng.integers(2, 12))
        matrix = rng.standard_normal((d, d))
        # near-singular: the last row is a combination of the others plus noise
        matrix[-1] = (rng.standard_normal(d - 1) @ matrix[:-1]
                      + 10.0 ** rng.uniform(-14.0, -6.0) * rng.standard_normal(d))
        matrix *= 10.0 ** rng.uniform(-8.0, 8.0, size=(d, 1))
        want = _scaled_pivots_pass(matrix, DEFAULT_TOL.eps_singular)
        try:
            solve_linear(matrix, np.eye(d))
        except SingularSystem:
            singular += 1
            assert not want
        else:
            assert want
    assert 100 < singular < 900  # both verdicts are exercised


def test_solve_linear_is_invariant_under_row_scaling():
    rng = randgen.derive_rng(106)
    matrix = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
    rhs = rng.standard_normal((4, 3))
    want = solve_linear(matrix, rhs)
    row_scale = np.array([1e12, 1e-12, 1e12, 1e-12])[:, None]
    got = solve_linear(row_scale * matrix, row_scale * rhs)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("delta, singular", [(1e-9, False), (1e-11, True)])
def test_solve_linear_threshold_is_on_the_scaled_pivot(delta, singular):
    # The second scaled pivot is delta / (1 + delta), against eps_singular = 1e-10.
    matrix = np.array([[1.0, 1.0], [1.0, 1.0 + delta]])
    rhs = np.array([2.0, 2.0 + delta])
    if singular:
        with pytest.raises(SingularSystem):
            solve_linear(matrix, rhs)
    else:
        assert np.allclose(solve_linear(matrix, rhs), [1.0, 1.0], atol=1e-6)


def test_solve_linear_exact_zero_pivot_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem):
            solve_linear(np.array([[0.0, 1.0], [0.0, 2.0]]), np.array([1.0, 2.0]))


def test_solve_linear_keeps_the_shape_of_the_right_hand_side():
    matrix = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = solve_linear(matrix, np.array([3.0, 4.0]))
    assert x.shape == (2,)
    assert np.allclose(x, [1.0, 1.0])
    inverse = solve_linear(matrix, np.eye(2))
    assert inverse.shape == (2, 2)
    assert np.allclose(matrix @ inverse, np.eye(2))
    assert solve_linear(matrix, np.ones((2, 1))).shape == (2, 1)


def test_tolerance_defaults_frozen():
    assert DEFAULT_TOL == Tolerance(eps_singular=1e-10, eps_feas=1e-9,
                                    eps_angle=1e-12)
    assert DEFAULT_TOL.band == 10.0 * DEFAULT_TOL.eps_feas
    with pytest.raises(ValueError):
        Tolerance(eps_singular=0.0, eps_feas=1e-9, eps_angle=1e-12)


def _package_functions():
    """(qualified name, function) for every function and method whose code
    is written in one of the package's modules."""
    for info in pkgutil.iter_modules(shadowlp.__path__):
        module = importlib.import_module(f"shadowlp.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj):
                members = {name: obj}
            elif inspect.isclass(obj):
                members = {f"{name}.{attr}": getattr(m, "__func__", getattr(m, "fget", m))
                           for attr, m in vars(obj).items()}
            else:
                continue
            for qualname, fn in members.items():
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    yield f"{module.__name__}.{qualname}", fn


def test_no_function_takes_a_tolerance():
    """The thresholds are program constants read from DEFAULT_TOL."""
    functions = dict(_package_functions())
    assert {"shadowlp.shadow_walk.walk", "shadowlp.shadow_walk.SweepPlane.q",
            "shadowlp.geometry.Tolerance.band",
            "shadowlp.oracle._screened_solve"} <= set(functions)
    taking = [(name, param) for name, fn in functions.items()
              for param in inspect.signature(fn).parameters if param in ("tol", "eps_singular")]
    assert taking == []


def test_no_function_takes_a_budget_or_a_scale_that_no_caller_sets():
    """Pivot and retry budgets, the enumeration cap and the added block's
    smoothing are program constants; each suite fixes its contract scale."""
    functions = dict(_package_functions())
    taking = [(name, param) for name, fn in functions.items()
              for param in inspect.signature(fn).parameters
              if param in ("max_pivots", "max_retries", "smoothing_sigma", "cap")]
    assert taking == []

    def params(name):
        return list(inspect.signature(functions[f"shadowlp.{name}"]).parameters)

    suites = {name.rsplit(".", 1)[1] for name in functions
              if name.startswith("shadowlp.verify.suite_")}
    assert {name: params(f"verify.{name}") for name in suites} == {
        "suite_oracle_equivalence": ["seed", "instances"],
        "suite_phase1_statistics": ["seed"],
        "suite_pivot_growth": ["seed"],
        "suite_section_agreement": ["seed", "instances"],
        "suite_polygon_growth": ["seed"],
        "suite_planar_bounds": ["seed"],
        "suite_walk_invariants": ["prior", "seed"],
        "suite_determinism": ["seed"],
    }


# ---------------------------------------------------------------------------
# make_facet / all_below / cone_coefficients


def test_facet_normal_standard_basis_gives_all_ones():
    d = 4
    h = make_facet(PointSet(np.eye(d)), range(d)).normal
    assert np.allclose(h, np.ones(d))


def test_facet_normal_scaled_basis():
    points = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert np.allclose(make_facet(PointSet(points), (0, 1)).normal, [0.5, 0.5])


def test_facet_normal_with_infinite_vertex():
    # Row 0 is the direction (0,-1), of level 0: <h, (1,0)> = 1 and
    # <h, (0,-1)> = 0 force h = (1, 0).
    points = np.array([[0.0, -1.0], [1.0, 0.0]])
    facet = make_facet(PointSet(points, levels=np.array([0.0, 1.0])), (1, 0))
    assert facet.indices == (0, 1)
    assert np.allclose(facet.normal, [1.0, 0.0])
    # inverse columns follow the sorted indices: the direction first
    assert np.allclose(points @ facet.inverse, np.eye(2))


def test_facet_normal_incidence_property_on_random_sets():
    rng = randgen.derive_rng(102)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        points = rng.standard_normal((d, d))
        try:
            facet = make_facet(PointSet(points), range(d))
        except SingularSystem:
            continue
        assert np.max(np.abs(points @ facet.normal - 1.0)) <= 10.0 * DEFAULT_TOL.eps_feas
        assert np.allclose(points @ facet.inverse, np.eye(d), atol=1e-8)


def test_all_below_equality_and_violation():
    ones = np.ones(2)
    assert all_below(PointSet(np.eye(2)), ones)
    assert not all_below(PointSet(np.vstack([np.eye(2), [0.9, 0.9]])), ones)


def test_all_below_checks_infinite_direction():
    # A row of level 0 is a direction: it must satisfy <h, u> <= 0.
    h = np.array([1.0, 0.0])
    levels = np.array([0.0, 1.0])
    assert all_below(PointSet(np.array([[0.0, -1.0], [1.0, 0.0]]), levels), h)
    assert all_below(PointSet(np.array([[1.0, 0.0], [1.0, 0.0]])), h)
    assert not all_below(PointSet(np.array([[1.0, 0.0], [1.0, 0.0]]), levels), h)


def test_cone_coefficients_examples():
    basis = np.eye(2)
    assert np.allclose(cone_coefficients(basis, (0, 1), np.array([1.0, 1.0])), [1.0, 1.0])
    lam = cone_coefficients(basis, (0, 1), np.array([1.0, -0.5]))
    assert np.allclose(lam, [1.0, -0.5])
    assert lam.min() < -DEFAULT_TOL.eps_feas  # not in the cone

    points = np.array([[1.0, 0.0], [0.9, 0.9]])
    lam = cone_coefficients(points, (0, 1), np.array([1.0, 0.1]))
    assert np.allclose(lam, [0.9, 1.0 / 9.0])


def test_make_facet_orders_indices_and_validates():
    points = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.9]])
    facet = make_facet(PointSet(points), (2, 0))
    assert facet.indices == (0, 2)
    # the right-hand side follows the sorted indices' levels
    leveled = make_facet(PointSet(points, levels=np.array([1.0, 1.0, 0.0])), (2, 0))
    assert np.allclose(points[[0, 2]] @ leveled.normal, [1.0, 0.0])
    with pytest.raises(ValueError):
        make_facet(PointSet(points), (0, 0))


def test_make_facet_writes_levels_into_a_copy_of_its_cached_right_hand_sides():
    points = randgen.gaussian(randgen.derive_rng(31), (7, 4))
    levels = np.linspace(0.5, 1.5, 7)
    for lv in (levels, None):
        facet = make_facet(PointSet(points, lv), (5, 1, 2, 0))
        rhs = np.eye(4, 5, 1)
        rhs[:, 0] = 1.0 if lv is None else lv[[0, 1, 2, 5]]
        want = reference_solve_linear(points[[0, 1, 2, 5]], rhs)
        assert facet.normal.tobytes() == want[:, 0].tobytes()
        assert facet.inverse.tobytes() == want[:, 1:].tobytes()
    template = geometry._facet_rhs(4)
    assert not template.flags.writeable
    assert np.array_equal(template, np.eye(4, 5, 1))


@pytest.mark.parametrize("order", ["C", "F"])
def test_make_facet_factors_with_the_point_sets_scales(order):
    """make_facet passes the gathered PointSet.scales to solve_linear, which
    then computes none: its normal and inverse are bit for bit those of
    solve_linear on the gathered rows, which computes their scales itself,
    in either layout and with or without levels."""
    rng = np.random.default_rng(59)
    for d in (2, 3, 4, 11):
        n = 3 * d
        points = np.asarray(rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-6, 6, (n, 1)),
                            order=order)
        for levels in (None, rng.uniform(0.0, 2.0, n)):
            ps = PointSet(points, levels)
            for _ in range(5):
                indices = sorted(rng.choice(n, d, replace=False).tolist())
                rhs = np.eye(d, d + 1, 1)
                rhs[:, 0] = 1.0 if levels is None else levels[indices]
                want = solve_linear(points[indices], rhs)
                facet = make_facet(ps, indices)
                assert facet.normal.tobytes() == want[:, 0].tobytes()
                assert facet.inverse.tobytes() == want[:, 1:].tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 11])
def test_dot_keeps_the_bits_of_matmul_on_the_walks_shapes(d):
    """The walk's kernels take products with ndarray.dot in place of @; on
    this numpy and BLAS build both reach the same routine and agree byte
    for byte on the walk's shapes: a vector, contiguous or a strided row,
    times a (d, d) matrix of either layout (exit angles, the update, the
    cone check), a (d, d) matrix of either layout times a vector (the
    update's certificate) or a C-order one times a transposed matrix (the
    added block), and an (n, d) matrix of either layout times a vector (the
    ratio test, all_below)."""
    rng = np.random.default_rng(61)
    n = 50 * d
    square = rng.standard_normal((d, d))
    tall = rng.standard_normal((n, d))
    vector = rng.standard_normal(d)
    strided = np.asfortranarray(tall)[7]
    assert not strided.flags.contiguous
    pairs = [(v, m) for v in (vector, strided) for m in (square, np.asfortranarray(square))]
    pairs += [(m, vector) for m in (square, np.asfortranarray(square))] + [(square, square.T)]
    pairs += [(m, vector) for m in (tall, np.asfortranarray(tall))]
    for a, b in pairs:
        assert a.dot(b).tobytes() == (a @ b).tobytes()


def test_facet_index_set_equality_ignores_normal():
    """Equality and hash follow the index tuple only, so sets and dicts
    dedupe facets by it; dataclasses.replace builds a new facet."""
    a = FacetIndexSet((0, 2), np.array([1.0, 0.0]), np.eye(2), 3)
    b = FacetIndexSet((0, 2), np.array([0.5, 0.5]), 2.0 * np.eye(2))
    c = FacetIndexSet((1, 2), np.array([1.0, 0.0]), np.eye(2), 3)
    assert [f.name for f in dataclasses.fields(a)] == ["indices", "normal", "inverse", "updates"]
    assert a == b and hash(a) == hash(b)
    assert a != c and a != (0, 2) and not a == (0, 2)
    assert len({a, b, c}) == 2 and list(dict.fromkeys([a, c, b])) == [a, c]
    fresh = dataclasses.replace(a, updates=0)
    assert fresh is not a and fresh == a and a.updates == 3 and fresh.updates == 0
    assert fresh.normal is a.normal and fresh.inverse is a.inverse
    assert dataclasses.is_dataclass(a) and not hasattr(a, "__dict__")


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_point_set_stores_its_rows_column_major_and_scales_them_once(layout):
    """PointSet.points is column-major whatever the layout it is given, and
    a column-major float array is kept as given; PointSet.scales is
    np.abs(points).max(axis=1) of the given rows bit for bit, on rows of
    mixed scale and on rows holding NaNs, infinities and negative zeros;
    unit levels stay None, and levels are kept as given."""
    rng = np.random.default_rng(53)
    wide = rng.standard_normal((300, 10)) * 10.0 ** rng.uniform(-8, 8, (300, 1))
    wide[10] = [0.0, 0.0, -0.0, 0.0, 0.0, 0.0, -0.0, 0.0, -0.0, 0.0]
    wide[11] = -0.0
    wide[12, 6] = np.nan
    wide[13, [0, 8]] = [np.inf, np.nan]
    wide[14, 4] = -np.inf
    wide[15] = [1.0, 0.0, -np.inf, 0.0, np.nan, 0.0, -0.0, 0.0, 2.0, 0.0]
    points = {"C": np.ascontiguousarray(wide[:, ::2]), "F": np.asfortranarray(wide[:, ::2]),
              "strided": wide[:, ::2]}[layout]
    ps = PointSet(points)
    assert ps.points.flags.f_contiguous and ps.levels is None
    assert (ps.points is points) == (layout == "F")
    assert np.array_equal(ps.points, points, equal_nan=True)
    assert ps.scales.tobytes() == np.abs(points).max(axis=1).tobytes()
    levels = np.ones(300)
    assert PointSet(points, levels).levels is levels
    assert dataclasses.is_dataclass(ps) and not hasattr(ps, "__dict__")


def test_no_walk_function_takes_levels():
    """Rows and levels travel together in a PointSet: its constructor is the
    one function of the walk layer that takes levels."""
    taking = [name for name, fn in _package_functions()
              if name.split(".")[1] in ("geometry", "shadow_walk")
              and "levels" in inspect.signature(fn).parameters]
    assert taking == []
    assert list(inspect.signature(PointSet).parameters) == ["points", "levels"]


def test_max_row_norm_is_the_largest_numpy_row_norm():
    """Bit for bit numpy.linalg.norm(points, axis=1).max() on C-order,
    column-major and strided arrays, on rows of mixed scale and on rows
    holding zeros, infinities and NaNs."""
    rng = np.random.default_rng(52)
    for trial in range(300):
        n, d = int(rng.integers(1, 60)), int(rng.integers(1, 45))
        p = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1))
        if trial % 5 == 1:
            p = np.asfortranarray(p)
        elif trial % 5 == 2:
            p = rng.standard_normal((2 * n, 2 * d))[::2, ::2]
        elif trial % 5 == 3:
            p[rng.integers(n)] = rng.choice([0.0, np.inf, np.nan])
        want = float(np.max(np.linalg.norm(p, axis=1)))
        got = max_row_norm(p)
        assert type(got) is float
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("d", [2, 3, 7, 8, 11, 41])
def test_max_row_norm_in_every_layout_the_solver_passes(d):
    """Bit for bit numpy.linalg.norm(x, axis=1).max() on the layouts the
    solver hands it: C order, the strided view of A in a generated instance
    and the column-major copy Phase I walks.  Below d = 8 numpy sums a row
    in column order in every layout, so the three agree bit for bit; from
    d = 8 on, a C-order row is summed in eight partial sums and may round
    differently."""
    rng = np.random.default_rng(53 + d)
    for _ in range(20):
        n = int(rng.integers(d + 1, 300))
        whole = rng.standard_normal((n, d + 1)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        layouts = (np.ascontiguousarray(whole[:, :d]), whole[:, :d],
                   np.asfortranarray(whole[:, :d]))
        norms = []
        for x in layouts:
            norms.append(max_row_norm(x))
            assert norms[-1] == float(np.linalg.norm(x, axis=1).max())
        if d < 8:
            assert norms[0] == norms[1] == norms[2]


# ---------------------------------------------------------------------------
# angular_distance


def test_angular_distance_axis_cases():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert angular_distance(e1, e1) == 0.0
    assert angular_distance(e1, e2) == pytest.approx(math.pi / 2)
    assert angular_distance(e1, np.array([1.0, 1.0])) == pytest.approx(math.pi / 4)


def test_angular_distance_symmetry_scaling_antiparallel():
    rng = randgen.derive_rng(103)
    for _ in range(200):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        a = angular_distance(x, y)
        assert a == pytest.approx(angular_distance(y, x))
        assert a == pytest.approx(angular_distance(2.5 * x, -0.7 * y), abs=1e-9)
        assert 0.0 <= a <= math.pi / 2 + 1e-12
    assert angular_distance(np.array([1.0, 2.0]), np.array([-2.0, -4.0])) == \
        pytest.approx(0.0, abs=1e-7)


def test_angular_distance_rejects_zero_vectors():
    with pytest.raises(ValueError):
        angular_distance(np.zeros(2), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# viewpoints


def _edge_certificates(polygon, edge, label):
    """Re-check the two certified predicates for a returned viewpoint."""
    viewpoint = VIEWPOINTS[label - 1]
    a, b = polygon[edge[0]], polygon[edge[1]]
    t = b - a
    nu = np.array([-t[1], t[0]]) / np.linalg.norm(t)
    c = float(nu @ a)
    side = polygon @ nu - c
    polygon_sign = 1.0 if side.max() > 1e-12 else -1.0
    signed = polygon_sign * (float(nu @ viewpoint) - c)
    return signed >= 1.0


def test_viewpoint_triangle_geometry():
    norms = np.linalg.norm(VIEWPOINTS, axis=1)
    assert np.allclose(norms, 4.0)
    angles = np.degrees(np.arctan2(VIEWPOINTS[:, 1], VIEWPOINTS[:, 0])) % 360
    assert sorted(np.round(angles).astype(int)) == [90, 210, 330]


def test_viewpoint_for_hexagon_edges():
    angles = np.arange(6) * math.pi / 3.0
    hexagon = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for e in range(6):
        edge = (e, (e + 1) % 6)
        label = viewpoint_for_edge(hexagon, edge)
        assert label in (1, 2, 3)
        assert _edge_certificates(hexagon, edge, label)


def test_viewpoint_for_horizontal_edge_is_on_opposite_side():
    # Edge on the line x2 = 0.5 with the polygon below it: the viewpoint must
    # also be below, hence have negative second coordinate.
    polygon = np.array([[0.6, 0.5], [-0.6, 0.5], [0.0, -0.5]])
    label = viewpoint_for_edge(polygon, (0, 1))
    assert VIEWPOINTS[label - 1][1] < 0
    assert _edge_certificates(polygon, (0, 1), label)


def test_viewpoint_rejects_bad_inputs():
    polygon = np.array([[0.6, 0.5], [-0.6, 0.5], [0.0, -0.5]])
    with pytest.raises(ValueError):
        viewpoint_for_edge(polygon * 3.0, (0, 1))  # norms exceed 1
    with pytest.raises(ValueError):
        viewpoint_for_edge(polygon[:2], (0, 1))  # not a polygon
    rhombus = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError):
        viewpoint_for_edge(rhombus, (0, 2))  # diagonal, not a hull edge


def test_viewpoint_never_fails_on_random_polygons():
    """Reduced Monte Carlo of the three-viewpoints property (full scale runs
    in the acceptance battery)."""
    from scipy.spatial import ConvexHull

    rng = randgen.derive_rng(104)
    done = 0
    while done < 100:
        k = int(rng.integers(3, 9))
        radii = np.sqrt(rng.uniform(0.0, 1.0, size=k))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=k)
        points = radii[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        try:
            hull = ConvexHull(points)
        except Exception:
            continue
        polygon = points[hull.vertices]
        if polygon.shape[0] < 3:
            continue
        done += 1
        m = polygon.shape[0]
        for e in range(m):
            label = viewpoint_for_edge(polygon, (e, (e + 1) % m))
            assert _edge_certificates(polygon, (e, (e + 1) % m), label)


def test_angular_vs_euclidean_distance_on_admissible_lines():
    """Reduced Monte Carlo of the distance-comparison property: points on a
    line at distance >= 1 from the origin with norms <= 10 satisfy
    dist/101 <= ang <= dist."""
    rng = randgen.derive_rng(105)
    band = DEFAULT_TOL.band
    for _ in range(2000):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        normal = np.array([math.cos(phi), math.sin(phi)])
        tangent = np.array([-normal[1], normal[0]])
        offset = rng.uniform(1.0, 9.9)
        reach = math.sqrt(100.0 - offset ** 2)
        t1, t2 = rng.uniform(-reach, reach, size=2)
        x1 = offset * normal + t1 * tangent
        x2 = offset * normal + t2 * tangent
        dist = float(np.linalg.norm(x1 - x2))
        ang = angular_distance(x1, x2) if dist else 0.0
        assert ang <= dist + band
        assert ang >= dist / 101.0 - band
