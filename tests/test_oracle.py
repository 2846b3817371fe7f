"""Mollification oracle: tube construction, smooth pairings, convergence.

Closed forms: a width-eps Gaussian tube around an axis with coefficient
exp(-u^2), paired against the analogous tube around the other axis, gives
exactly 1/(1 + 2 eps^2); the geometric value is 1.  Flat unit-coefficient
tubes pair to the geometric answer for every eps, so their errors sit at
the quadrature noise floor.
"""
import functools
import math
import tracemalloc

import numpy as np
import pytest

from geodens import exprlang, quadrature
from geodens.density import AmbientDensity
from geodens.errors import (
    DegreeMismatch,
    InputError,
    InvalidEps,
    NonAffineCore,
    NonConvergent,
    NonExpressionCoefficient,
    QuadratureNotConverged,
    UnboundedDomain,
)
from geodens.exprlang import Num, parse, subst, to_source
from geodens.fields import ExprField, as_field
from geodens.geometry import Submanifold
from geodens.oracle import (
    DEFAULT_EPS,
    ORACLE_ORDER,
    PANEL_WIDTHS,
    compare_inner,
    compare_pairing,
    converge_check,
    mollify,
    smooth_pair,
)
from geodens.quadrature import (
    composite_rule,
    intersect_boxes,
    weighted_sum,
)
from geodens.states import make_state, pair_with_test, recombine_conormal


def x_axis():
    return Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0])


def y_axis():
    return Submanifold.affine("Y", [0.0, 0.0], [0.0, 1.0])


def unit_state(core, support=((-8.0, 8.0),)):
    return make_state(core, 0.5, "1", support=np.asarray(support))


def mass(phi):
    """The integral of phi's coefficient: its pairing with the unit density of the
    complementary degree, on phi's box and panels."""
    return smooth_pair(phi, AmbientDensity.make(1.0 - phi.degree, "1"))


# mollify preconditions

def test_mollify_rejects_chart_cores():
    circle = Submanifold.chart("S", ["cos(u1)", "sin(u1)"],
                               [[0.0, 2.0 * math.pi]])
    th = make_state(circle, 0.5, "1")
    with pytest.raises(NonAffineCore):
        mollify(th, 0.1)


def test_mollify_rejects_callable_coefficients():
    th = make_state(x_axis(), 0.5, lambda u: 1.0, support=[[-1.0, 1.0]])
    with pytest.raises(NonExpressionCoefficient, match="expression-backed") as info:
        mollify(th, 0.1)
    assert isinstance(info.value, InputError) and info.value.exit_code == 2


def test_mollify_rejects_bad_width_and_missing_support():
    th = unit_state(x_axis())
    with pytest.raises(InvalidEps):
        mollify(th, 0.0)
    with pytest.raises(InvalidEps):  # its square, which the tube's rate divides by, is 0
        mollify(th, 1e-300)
    with pytest.raises(UnboundedDomain):
        mollify(make_state(x_axis(), 0.5, "1"), 0.1)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_mollify_rejects_non_finite_width(eps):
    # a NaN width would slip past "eps <= 0" and give an all-NaN support box
    with pytest.raises(InvalidEps):
        mollify(unit_state(x_axis()), eps)


# tube structure

def test_tube_fields():
    eps = 0.1
    th = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    tube = mollify(th, eps)
    assert isinstance(tube, AmbientDensity)
    assert tube.degree == th.degree
    assert isinstance(tube.coeff, ExprField)
    # box: the chart image, widened by 8 eps across the core
    assert np.allclose(tube.support[0], [-8.0, 8.0], atol=1e-12)
    assert np.allclose(tube.support[1], [-0.8, 0.8], atol=1e-12)
    # panels two tube widths wide on the crossed axis, 1 wide along the core
    assert np.allclose(tube.resolution_hint, [1.0, PANEL_WIDTHS * eps])
    # a tilted tube is eps / |nu_hat[:, i]| wide along axis i
    tilted = mollify(make_state(Submanifold.affine("D", [0.0, 0.0], [0.8, 0.6]),
                                0.5, "1", support=[[-8.0, 8.0]]), eps)
    assert np.allclose(tilted.resolution_hint, PANEL_WIDTHS * eps / np.array([0.6, 0.8]))


def test_tube_trees_are_pinned():
    # printed trees of a complex coefficient on a plane in R^3 with a declared
    # conormal; the Gaussian reads its two eps constants as parameters, whose
    # values at eps 0.1 are the literals the hand-folded builders printed; u and the
    # tube's argument are b + A x from the affine helper, whose zero entries give no term
    plane = Submanifold.affine("P", [0.5, 0.0, -0.25],
                               [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    coeff = ExprField(parse("exp(-u1^2)"), parse("u2"))
    th = make_state(plane, 0.5, coeff, conormal=[[0.0, 0.0, 2.0]],
                    support=[[-1.0, 1.0], [-1.0, 1.0]])
    tube = mollify(th, 0.1).coeff
    assert tube.params == {"tube_peak": 3.989422804014327, "tube_rate": 49.99999999999999}
    gauss = "(tube_peak*exp(-(tube_rate*(0.25 + x3)^2)))"
    assert to_source(tube.re_expr) == "0.7071067811865476*exp(-(-0.5 + x1)^2)*" + gauss
    assert to_source(tube.im_expr) == "0.7071067811865476*x2*" + gauss
    # the negative Num in -0.5 + x1 reads back as itself
    assert parse(to_source(tube.re_expr)) == tube.re_expr
    assert parse(to_source(tube.im_expr)) == tube.im_expr


def test_tube_coefficient_on_the_core():
    eps = 0.1
    th = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    tube = mollify(th, eps)
    peak = 1.0 / math.sqrt(2.0 * math.pi * eps * eps)
    got = tube.coeff([0.3, 0.0])
    assert got == pytest.approx(math.exp(-0.09) * peak, rel=1e-13)
    # one width out, the profile drops by exp(-1/2)
    got = tube.coeff([0.3, eps])
    assert got == pytest.approx(math.exp(-0.09) * peak * math.exp(-0.5), rel=1e-13)


def test_tube_mass_of_a_unit_line():
    tube = mollify(unit_state(x_axis()), 0.1)
    got = mass(tube)
    assert got == pytest.approx(16.0, rel=1e-9)


def test_point_tube_has_unit_mass():
    th = make_state(Submanifold.point("P", [0.5, -0.5]), 0.0, "1")
    tube = mollify(th, 0.1)
    got = mass(tube)
    assert got == pytest.approx(1.0, rel=1e-9)


# tube pairings

def test_flat_tube_pairing_is_exact_for_every_eps():
    # a test density with no transverse variation cannot see the tube width,
    # so the smooth pairing equals the geometric one for every eps
    th = unit_state(x_axis())
    phi = AmbientDensity.make(0.5, "exp(-x1^2)")
    want = pair_with_test(th, phi).value
    for eps in (0.2, 0.05):
        got = smooth_pair(mollify(th, eps), phi)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_tube_pairing_respects_conormal_recombination():
    # rescaling the declared conormal rescales the coefficient; the tube
    # conversion factor must cancel it exactly
    th = make_state(Submanifold.affine("D", [0.0, 0.0], [0.8, 0.6]),
                    0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    # constant along the tube's transverse direction: tangential Gaussian
    phi = AmbientDensity.make(0.5, "exp(-(0.8*x1 + 0.6*x2)^2)")
    want = smooth_pair(mollify(th, 0.1), phi)
    got = smooth_pair(mollify(recombine_conormal(th, [[2.5]]), 0.1), phi)
    assert got == pytest.approx(want, rel=1e-10)
    assert want == pytest.approx(pair_with_test(th, phi).value, rel=1e-9)


def test_crossed_gaussian_tubes_analytic_value():
    sx = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    sy = make_state(y_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    for eps in (0.2, 0.1):
        got = smooth_pair(mollify(sx, eps), mollify(sy, eps))
        want = 1.0 / (1.0 + 2.0 * eps * eps)
        assert got == pytest.approx(want, rel=1e-8)


def plane(name, *tangents):
    return Submanifold.affine(name, [0.0, 0.0, 0.0], np.array(tangents, dtype=float).T)


def line(name, angle, offset=0.0):
    return Submanifold.affine(name, [-offset * math.sin(angle), offset * math.cos(angle)],
                              [math.cos(angle), math.sin(angle)])


def sweep_planes():
    # the z=0 and y=0 planes of the oracle-sweep benchmark, on a 6-panel x1 window
    p1 = make_state(plane("P1", [1, 0, 0], [0, 1, 0]), 0.5, "exp(-u1^2/0.45-u2^2/1.1)",
                    support=[[-2.7, 2.8], [-8.0, 8.0]])
    p2 = make_state(plane("P2", [1, 0, 0], [0, 0, 1]), 0.5, "exp(-u1^2/0.42-u2^2/0.9)",
                    support=[[-2.9, 2.6], [-8.0, 8.0]])
    return p1, p2


def gaussian_test(n, centre):
    arg = "+".join(f"(x{i + 1}-{c})^2" for i, c in enumerate(centre))
    return AmbientDensity.make(0.5, f"exp(-({arg})/1.1)", support=[[-8.0, 8.0]] * n)


def eps_panel_pair(phi1, phi2, widths):
    """The reference: smooth_pair's integral on panels of the given widths,
    eps on each axis a tube crosses and 1 elsewhere, with the coefficient
    product materialised on the grid where smooth_pair contracts its factors."""
    box = intersect_boxes(phi1.support, phi2.support)
    grid, weights = composite_rule(box, widths, ORACLE_ORDER)
    return weighted_sum(lambda g: phi1.coeff.eval_many(g) * phi2.coeff.eval_many(g),
                        grid, weights)


def tube_pair_cases():
    p1, p2 = sweep_planes()
    a = make_state(line("A", 0.4), 0.5, "exp(-u1^2)", support=[[-6.0, 6.0]])
    b = make_state(line("B", 1.1), 0.5, "exp(-u1^2/2)", support=[[-6.0, 6.0]])
    # parallel tubes: equal widths on one axis, so their product is sqrt(2)
    # narrower than either and a panel spans 2 sqrt(2) of its deviations
    c = make_state(line("C", 0.0), 0.5, "exp(-u1^2)", support=[[-6.0, 6.0]])
    d = make_state(line("D", 0.0, 0.03), 0.5, "exp(-u1^2/2)", support=[[-6.0, 6.0]])
    return {
        "z=0 x y=0": (lambda e: (mollify(p1, e), mollify(p2, e)), lambda e: [1.0, e, e]),
        "z=0 x test": (lambda e: (mollify(p1, e), gaussian_test(3, [0.1, -0.1, 0.2])),
                       lambda e: [1.0, 1.0, e]),
        "0.4 x 1.1 rad": (lambda e: (mollify(a, e), mollify(b, e)), lambda e: [e, e]),
        "0.4 rad x test": (lambda e: (mollify(a, e), gaussian_test(2, [0.3, -0.2])),
                           lambda e: [e, e]),
        "1.1 rad x test": (lambda e: (mollify(b, e), gaussian_test(2, [0.3, -0.2])),
                           lambda e: [e, e]),
        "same axis": (lambda e: (mollify(c, e), mollify(d, e)), lambda e: [1.0, e]),
    }


@pytest.mark.parametrize("case", list(tube_pair_cases()))
@pytest.mark.parametrize("eps", DEFAULT_EPS)
def test_tube_width_panels_match_eps_panels(case, eps):
    densities, widths = tube_pair_cases()[case]
    phi1, phi2 = densities(eps)
    want = eps_panel_pair(phi1, phi2, widths(eps))
    assert abs(smooth_pair(phi1, phi2) - want) <= 1e-13 * abs(want)


def test_sweep_plane_grid_is_two_tube_widths_per_panel(monkeypatch):
    shapes = []

    def counting(*args):
        grid, weights = composite_rule(*args)
        shapes.append(grid.dims)
        return grid, weights

    monkeypatch.setattr(quadrature, "composite_rule", counting)
    p1, p2 = sweep_planes()
    smooth_pair(mollify(p1, 0.05), mollify(p2, 0.05))
    # 6 x1 panels, and 8 panels of 2 eps across each 16 eps wide tube box
    assert shapes == [(72, 96, 96)]


@pytest.mark.parametrize("test, dims", [(False, (72, 96, 96)), (True, (72, 72, 96))])
def test_each_factor_is_evaluated_once_per_pairing(monkeypatch, test, dims):
    # the sweep planes' grid and the oracle-sweep tube-test grid are larger than
    # EVAL_CHUNK, but every factor is one axis long, so the grid is one block
    p1, p2 = sweep_planes()
    if test:
        p1 = make_state(p1.core, 0.5, "exp(-u1^2/0.3-u2^2/0.3)",
                        support=[[-2.7, 2.8], [-2.6, 2.9]])
    phi1 = mollify(p1, 0.05)
    phi2 = gaussian_test(3, [0.1, -0.15, 0.2]) if test else mollify(p2, 0.05)
    grids, calls = [], []
    rule, factors = quadrature.composite_rule, ExprField.factors
    monkeypatch.setattr(quadrature, "composite_rule",
                        lambda *a: grids.append(rule(*a)[0].dims) or rule(*a))
    monkeypatch.setattr(ExprField, "factors",
                        lambda self, g: calls.append(self) or factors(self, g))
    for _ in range(2):
        smooth_pair(phi1, phi2)
    assert grids == [dims] * 2 and math.prod(dims) > quadrature.EVAL_CHUNK
    assert calls == [phi1.coeff, phi2.coeff] * 2


def sweep_counts(eps_list):
    """Factor groups built and tree nodes compiled by one compare_inner on fresh states."""
    sx = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    sy = make_state(y_axis(), 0.5, "exp(-u1^2/2)", support=[[-8.0, 8.0]])
    built, compiled = [], []
    trees, compile_node = ExprField._factor_trees, exprlang._compile

    def counting(self):
        built.append(self)
        return trees.func(self)

    prop = functools.cached_property(counting)
    prop.__set_name__(ExprField, "_factor_trees")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ExprField, "_factor_trees", prop)
        m.setattr(exprlang, "_compile", lambda e: compiled.append(e) or compile_node(e))
        compare_inner(sx, sy, Submanifold.point("E", [0.0, 0.0]), eps_list=eps_list)
    return len(built), len(compiled)


def test_a_sweep_builds_and_compiles_each_tube_once():
    sweep_counts((0.1, 0.05))  # compiles the shared ZERO and ONE nodes
    two, three = sweep_counts((0.1, 0.05)), sweep_counts((0.2, 0.1, 0.05))
    assert three[0] == 2  # one set of factor groups per state
    assert three == two  # a third eps builds and compiles nothing


def literal(field: ExprField) -> ExprField:
    """The field with its tube constants written in as literals, as trees had them
    when every eps built its own tube."""
    values = {k: Num(v) for k, v in field.params.items() if k.startswith("tube_")}
    return ExprField(subst(field.re_expr, values),
                     None if field.im_expr is None else subst(field.im_expr, values),
                     "x", {k: v for k, v in field.params.items() if k not in values})


def test_parameterised_tubes_are_bitwise_the_literal_tubes():
    eps = 0.1
    p1, p2 = sweep_planes()
    tilted = make_state(line("A", 0.4), 0.5, "exp(-u1^2)", support=[[-6.0, 6.0]])
    plane = Submanifold.affine("P", [0.5, 0.0, -0.25], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    complex_state = make_state(plane, 0.5, ExprField(parse("exp(-u1^2)"), parse("u2")),
                               support=[[-1.0, 1.0], [-1.0, 1.0]])
    for state in (p1, tilted, complex_state):
        tube = mollify(state, eps)
        assert tube.coeff.params == {"tube_peak": 1.0 / math.sqrt(2.0 * math.pi * eps * eps),
                                     "tube_rate": 1.0 / (2.0 * eps * eps)}
        fixed = AmbientDensity(tube.degree, literal(tube.coeff), tube.support,
                               tube.resolution_hint)
        grid, _ = composite_rule(tube.support, tube.resolution_hint, 4)
        assert np.array_equal(tube.coeff.eval_many(grid), fixed.coeff.eval_many(grid))
        for got, want in zip(tube.coeff.factors(grid), fixed.coeff.factors(grid), strict=True):
            assert np.array_equal(got, want)
        n = tube.support.shape[0]
        other = mollify(p2, eps) if state is p1 else gaussian_test(n, [0.1] * n)
        assert smooth_pair(tube, other) == smooth_pair(fixed, other)


def test_tube_constants_do_not_capture_the_coefficients_names():
    # a coefficient that reads or binds tube_peak keeps its own value of it
    th = make_state(x_axis(), 0.5, as_field("tube_peak*exp(-u1^2) + tube_rate_", params={
        "tube_peak": 2.0, "tube_rate_": 0.5}), support=[[-8.0, 8.0]])
    tube = mollify(th, 0.1).coeff
    assert tube.params["tube_peak"] == 2.0 and tube.params["tube_rate_"] == 0.5
    assert tube.params["tube_peak_"] == 1.0 / math.sqrt(2.0 * math.pi * 0.01)
    renamed = make_state(x_axis(), 0.5, as_field("a*exp(-u1^2) + b", params={
        "a": 2.0, "b": 0.5}), support=[[-8.0, 8.0]])
    y = make_state(y_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    e = Submanifold.point("E", [0.0, 0.0])
    assert compare_inner(th, y, e).oracle == compare_inner(renamed, y, e).oracle


def _pairing_peak(phi1, phi2) -> int:
    smooth_pair(phi1, phi2)  # compile the trees and cache the Gauss nodes
    tracemalloc.start()
    try:
        smooth_pair(phi1, phi2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_plane_pairing_builds_no_grid_sized_array():
    p1, p2 = sweep_planes()
    # one 21 x 96 x 96 block of values takes 1.5 MB; each tube factor is one axis long
    assert _pairing_peak(mollify(p1, 0.05), mollify(p2, 0.05)) < 0.5e6


def test_sweep_plane_test_pairing_builds_no_grid_sized_array():
    # the test exp(-|x - m|^2/1.1) splits into one Gaussian per axis, as the tube does
    g = gaussian_test(3, [0.1, -0.15, 0.2])
    assert _pairing_peak(mollify(sweep_planes()[0], 0.05), g) < 0.5e6


def test_tilted_line_plane_pairing_blocks_the_product_of_its_factors():
    # the tube of a line along (1, 0, 1) has a Gaussian reading x1 and x3, and that
    # of the plane x2 = x3 one reading x2 and x3: at x3 they multiply into a product
    # over the whole 84 x 96 x 84 grid (5.4 MB a float array), so it keeps row blocks
    s = 2 ** -0.5
    th = make_state(Submanifold.affine("L", [0.0, 0.0, 0.0], [s, 0.0, s]), 0.5,
                    "exp(-u1^2)", support=[[-0.5, 0.5]])
    ps = make_state(plane("P", [1, 0, 0], [0, s, s]), 0.5, "exp(-u1^2-u2^2)",
                    support=[[-2.0, 2.0], [-2.0, 2.0]])
    assert _pairing_peak(mollify(th, 0.1), mollify(ps, 0.1)) < 4e6


def test_unsplit_test_pairing_keeps_row_blocks():
    # the groups of exp(-(x1^2+x2^2+x3^2)/0.01) reach 6400 on [-8, 8]^3, so the range
    # guard keeps it whole, one array over the 72 x 192 x 96 grid (10.6 MB)
    g = AmbientDensity.make(0.5, "exp(-(x1^2+x2^2+x3^2)/0.01)", support=[[-8.0, 8.0]] * 3)
    assert _pairing_peak(mollify(sweep_planes()[0], 0.05), g) < 4e6


def test_tilted_codim_2_tube_is_refused_at_the_node_budget():
    # a line along (1, 1, 1) in R^3: at eps 0.05 the grid would hold 113 M
    # nodes, and composite_rule refuses it before allocating
    core = Submanifold.affine("L", [0.1, 0.0, 0.0], [1.0, 1.0, 1.0])
    th = make_state(core, 0.0, "1", support=[[-2.0, 2.0]])
    g = AmbientDensity.make(1.0, "exp(-x1^2-x2^2-x3^2)", support=[[-5.0, 5.0]] * 3)
    with pytest.raises(QuadratureNotConverged, match="113,356,800 nodes, over the node budget"):
        smooth_pair(mollify(th, 0.05), g)


def test_smooth_pair_needs_complementary_degrees():
    t1 = mollify(unit_state(x_axis()), 0.1)
    phi = AmbientDensity.make(0.7, "1", support=[[-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(DegreeMismatch):
        smooth_pair(t1, phi)


def test_smooth_pair_needs_a_box():
    phi1 = AmbientDensity.make(0.5, "exp(-x1^2)")
    phi2 = AmbientDensity.make(0.5, "exp(-x1^2)")
    with pytest.raises(UnboundedDomain):
        smooth_pair(phi1, phi2)


def test_smooth_pair_on_disjoint_supports_is_zero():
    phi1 = AmbientDensity.make(0.5, "exp(-x1^2)", support=[[-2.0, -1.0]])
    phi2 = AmbientDensity.make(0.5, "exp(-x1^2)", support=[[1.0, 2.0]])
    assert smooth_pair(phi1, phi2) == 0.0


def test_integrate_coefficient_erf_mass():
    phi = AmbientDensity.make(1.0, "exp(-x1^2)", support=[[-8.0, 8.0]])
    assert mass(phi) == pytest.approx(math.sqrt(math.pi), rel=1e-10)


# convergence bookkeeping

def test_converge_check_accepts_order_two_decay():
    report = converge_check(1.0, (0.2, 0.1, 0.05),
                            (1.04, 1.01, 1.0025))
    assert report.final_rel_error == pytest.approx(0.0025)
    assert all(o == pytest.approx(2.0, abs=0.1) for o in report.empirical_orders)


def test_converge_check_floor_absorbs_quadrature_noise():
    # flat data: every tube is exact, errors are roundoff
    report = converge_check(2.0, (0.2, 0.1),
                            (2.0 + 3e-15, 2.0 - 1e-15))
    assert report.final_rel_error <= 1e-15
    assert report.empirical_orders == (None,)


def test_converge_check_rejects_growth():
    with pytest.raises(NonConvergent):
        converge_check(1.0, (0.2, 0.1, 0.05), (1.01, 1.02, 1.04))


def test_converge_check_rejects_the_wrong_limit():
    # oracle values settle on 1.0, the claimed value is 10% off
    with pytest.raises(NonConvergent):
        converge_check(1.1, (0.2, 0.1, 0.05), (1.04, 1.01, 1.0025))


def test_converge_check_rejects_a_last_error_above_the_final_tolerance():
    # the errors fall, so only the final 1 % tolerance can fail, at 5 %
    with pytest.raises(NonConvergent, match="final oracle error 0.05 is 0.05 of the geometric"):
        converge_check(1.0, (0.2, 0.1, 0.05), (1.5, 1.2, 1.05))


def test_converge_check_input_validation():
    with pytest.raises(InvalidEps):
        converge_check(1.0, (0.1,), (1.0,))
    with pytest.raises(InvalidEps):
        converge_check(1.0, (0.1, 0.2), (1.0, 1.0))
    with pytest.raises(InvalidEps):
        converge_check(1.0, (-0.1, -0.2), (1.0, 1.0))
    with pytest.raises(InvalidEps, match="one oracle value per eps value, got 2 eps and 1"):
        converge_check(1.0, (0.2, 0.1), (1.0,))
    assert InvalidEps.exit_code == InputError.exit_code == 2


@pytest.mark.parametrize("geometric, values, where", [
    (1.0, (math.nan,) * 3, "eps=0.2, eps=0.1, eps=0.05"),
    (1.0, (math.nan, math.inf, 1.0), "eps=0.2, eps=0.1"),
    (1.0, (1.01, 1.0025, complex(1.0, -math.inf)), "eps=0.05"),
    (math.nan, (1.01, 1.0025, 1.0), None),
    (math.inf, (math.inf,) * 3, None),
])
def test_converge_check_fails_closed_on_non_finite_values(geometric, values, where):
    match = f"not finite at {where}$" if where else "geometric value is not finite"
    with pytest.raises(NonConvergent, match=match):
        converge_check(geometric, (0.2, 0.1, 0.05), values)


# end-to-end comparisons

def test_compare_pairing_flat_case():
    # transversally flat data: every eps is exact, errors sit below the floor
    th = unit_state(x_axis())
    phi = AmbientDensity.make(0.5, "exp(-x1^2)")
    report = compare_pairing(th, phi, eps_list=(0.2, 0.1))
    assert report.geometric == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert report.final_rel_error <= 1e-9
    assert report.empirical_orders == (None,)  # both errors under the floor


def test_compare_pairing_sees_transverse_curvature():
    # a transversally curved test is resolved at second order in eps
    th = unit_state(x_axis())
    phi = AmbientDensity.make(0.5, "exp(-x1^2 - x2^2)")
    report = compare_pairing(th, phi, eps_list=(0.2, 0.1, 0.05))
    assert report.errors[0] > report.errors[1] > report.errors[2]
    assert report.final_rel_error <= 1e-2
    assert report.empirical_orders[0] == pytest.approx(2.0, abs=0.2)


def test_compare_inner_sees_second_order_convergence():
    sx = make_state(x_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    sy = make_state(y_axis(), 0.5, "exp(-u1^2)", support=[[-8.0, 8.0]])
    e = Submanifold.point("E", [0.0, 0.0])
    report = compare_inner(sx, sy, e, eps_list=DEFAULT_EPS)
    assert report.geometric == pytest.approx(1.0, rel=1e-12)
    assert report.errors[0] > report.errors[1] > report.errors[2]
    assert report.final_rel_error <= 1e-2
    for order in report.empirical_orders:
        assert order == pytest.approx(2.0, abs=0.2)
