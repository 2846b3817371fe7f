"""Closed-form harness for ``integrate``'s two stops.

With d_j = |v_j - v_(j-1)| the change between ladder levels, ``integrate``
stops where d_j meets rel_tol |v_j| + ABS_TOL (the difference stop), or on the
observed rate (the rate stop): 1e3 <= d_(j-1) / d_j <= 3e4, d_(j-1) <=
d_(j-2) / 10 where level j >= 3 has a d_(j-2), and
d_j (d_j / d_(j-1))^0.3 <= rel_tol |v_j|.
Every case here is an integral with a closed form.  Each runs through
``integrate`` once with its level values recorded; where the difference stop
alone would climb further, the ladder is carried on with ``tensor_rule`` and
``weighted_sum``, so both rules are replayed from the same values and judged
against the closed form.

Analytic integrands (Gaussians, shifted or rotated, in 1-3 D, 1/(1+c x^2),
cos(a x), e^(bx) cos(wx) and the pairings of the affine-pairs benchmark) must
meet their tolerance.  Non-analytic ones (|x-c|^p and sqrt(x+1+a)) converge
algebraically, where neither stop bounds the error; there the rate stop may
do no worse than the difference stop alone.  Every parameter comes from one
seeded generator.  At level 2 the rate stop reads a single fall, so two
levels that agree by chance can pass it; one such kink is kept below as a
strict xfail.
"""
import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from geodens import quadrature
from geodens.density import AmbientDensity
from geodens.errors import QuadratureNotConverged
from geodens.geometry import Submanifold
from geodens.quadrature import ABS_TOL, DEFAULT_REL_TOL, integrate, tensor_rule, weighted_sum
from geodens.states import make_state, pair_with_test

LADDER = [32, 45, 64, 91, 128, 181, 256, 362, 512]  # round(32 * 2^(j/2))


@dataclass
class Case:
    name: str
    run: Callable[[], tuple]  # (value, estimate) from integrate, directly or through a pairing
    exact: float
    analytic: bool


def on_box(f, box, exact, name, analytic=True) -> Case:
    return Case(name, lambda: integrate(f, box), exact, analytic)


def one_d(f, exact, name, analytic=True) -> Case:
    return on_box(lambda g: f(g.points()[:, 0]), [[-1.0, 1.0]], exact, name, analytic)


def shifted_gaussians(rng, k, count):
    # exp(-sum ((x_i - m_i) / s_i)^2), one factor per axis
    for i in range(count):
        half = rng.uniform(2.0, 6.0, k)
        m, s = rng.uniform(-0.5, 0.5, k) * half, rng.uniform(0.2, 1.2, k)
        f = lambda g, m=m, s=s: tuple(np.exp(-((c - mi) / si) ** 2)
                                      for c, mi, si in zip(g.columns(), m, s))
        exact = math.prod(si * math.sqrt(math.pi) / 2.0 * (math.erf((h - mi) / si) + math.erf((h + mi) / si))
                          for h, mi, si in zip(half, m, s))
        yield on_box(f, [[-h, h] for h in half], exact, f"shifted-{k}d-{i}")


def rotated_gaussians(rng, k, count):
    # the box reaches 7.5 of the widest width past the centre, so the tails
    # past it are below exp(-56) of the peak and the full-space mass is exact
    for i in range(count):
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        s = rng.uniform(0.3, 1.0) * rng.uniform(0.6, 1.0, k)
        m = rng.uniform(-1.0, 1.0, k)
        half = float(np.max(np.abs(m)) + 7.5 * s.max())
        a = q @ np.diag(s ** -2.0) @ q.T

        def f(g, a=a, m=m):
            d = [c - mi for c, mi in zip(g.columns(), m)]
            return np.exp(-sum(a[p, r] * d[p] * d[r] for p in range(k) for r in range(k)))

        yield on_box(f, [[-half, half]] * k, math.pi ** (k / 2) * math.prod(s), f"rotated-{k}d-{i}")


def rationals(rng, count):
    for i, c in enumerate(10.0 ** rng.uniform(-1.0, 2.3, count)):
        yield one_d(lambda x, c=c: 1.0 / (1.0 + c * x * x), 2.0 * math.atan(math.sqrt(c)) / math.sqrt(c),
                    f"rational-{i}")


def cosines(rng, count):
    for i, a in enumerate(rng.uniform(0.5, 100.0, count)):
        yield one_d(lambda x, a=a: np.cos(a * x), 2.0 * math.sin(a) / a, f"cos-{i}")


def damped_cosines(rng, count):
    for i in range(count):
        b, w = rng.uniform(-5.0, 5.0), rng.uniform(0.0, 60.0)
        z = complex(b, w)
        yield one_d(lambda x, b=b, w=w: np.exp(b * x) * np.cos(w * x), (2.0 * cmath.sinh(z) / z).real,
                    f"expcos-{i}")


def affine_pairings(seed, coeff="1"):
    """The affine-pairs benchmark's three pairings: a state with coefficient
    ``coeff`` (1 in the benchmark) on a k-plane in R^4 (k = 1, 2, 3) against a
    width-s Gaussian test centred off the plane."""
    rng = np.random.default_rng(seed)
    for k in (1, 2, 3):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        lam = rng.uniform(0.9, 1.1, k)
        tangent, base = q[:, :k] * lam, rng.uniform(-0.5, 0.5, 4)
        dist, s = rng.uniform(0.0, 0.5), rng.uniform(0.55, 0.65)
        alpha = float(rng.choice([0.25, 0.5, 0.75]))
        centre = base + tangent @ rng.uniform(-0.3, 0.3, k) + dist * q[:, k]
        quad = "+".join(f"(x{i + 1}-({float(c)!r}))^2" for i, c in enumerate(centre))
        state = make_state(Submanifold.affine(f"A{k}", base, tangent), alpha, coeff,
                           support=[[-6.0, 6.0]] * k)
        phi = AmbientDensity.make(1.0 - alpha, f"exp(-({quad})/{s * s!r})")
        det = float(np.prod(lam))
        exact = math.pi ** (k / 2) * s ** k / det * math.exp(-dist ** 2 / s ** 2) * det ** (1.0 - alpha)

        def pair(state=state, phi=phi):
            got = pair_with_test(state, phi)
            return got.value, got.error_estimate

        yield Case(f"affine-{seed}-{k}d", pair, exact, True)


def kinks(rng, count):
    for i in range(count):
        c, p = rng.uniform(-0.9, 0.9), rng.uniform(0.3, 6.0)
        yield one_d(lambda x, c=c, p=p: np.abs(x - c) ** p,
                    ((1.0 + c) ** (p + 1.0) + (1.0 - c) ** (p + 1.0)) / (p + 1.0), f"kink-{i}", False)


def roots(rng, count):
    # every eighth has a = 0, a branch point at the end of the interval
    a = np.where(np.arange(count) % 8 == 0, 0.0, 10.0 ** rng.uniform(-8.0, 0.0, count))
    for i, ai in enumerate(a):
        yield one_d(lambda x, a=ai: np.sqrt(x + 1.0 + a), 2.0 / 3.0 * ((2.0 + ai) ** 1.5 - ai ** 1.5),
                    f"sqrt-{i}", False)


def all_cases() -> list[Case]:
    rng = np.random.default_rng(20261020)
    cases = []
    for k, count in ((1, 60), (2, 60), (3, 60)):
        cases += shifted_gaussians(rng, k, count)
    for k, count in ((2, 60), (3, 24)):
        cases += rotated_gaussians(rng, k, count)
    cases += rationals(rng, 80)
    cases += cosines(rng, 80)
    cases += damped_cosines(rng, 80)
    for seed in range(1, 7):
        cases += affine_pairings(seed)
    cases += kinks(rng, 240)
    cases += roots(rng, 80)
    return cases


def stop(values, rate: bool):
    """(level, value, estimate) at which a rule stops on these level values, or
    None where it climbs past them: the difference stop, and with ``rate`` the
    rate stop after it."""
    last = before = math.nan
    for j in range(1, len(values)):
        d, v = abs(values[j] - values[j - 1]), values[j]
        if d <= DEFAULT_REL_TOL * abs(v) + ABS_TOL:
            return j, v, d
        if rate and j >= 2 and 0.0 < d and 1e3 <= last / d <= 3e4 and (j == 2 or last <= before / 10.0):
            rated = d * (d / last) ** 0.3
            if rated <= DEFAULT_REL_TOL * abs(v):
                return j, v, rated
        last, before = d, last
    return None


@dataclass
class Run:
    case: Case
    got: tuple | None  # integrate's (value, estimate), None where it raised
    levels: int        # levels integrate built
    values: list       # level values, carried on as far as the difference stop climbs
    rated: tuple | None
    difference: tuple | None

    def err(self, outcome) -> float:
        return abs(outcome[1] - self.case.exact)

    def tol(self) -> float:
        return DEFAULT_REL_TOL * abs(self.case.exact) + ABS_TOL


def run(case: Case) -> Run:
    boxes, values, integrands = [], [], []

    def rule(box, order):
        boxes.append(box)
        return tensor_rule(box, order)

    def summed(f_many, grid, w):
        integrands.append(f_many)
        values.append(weighted_sum(f_many, grid, w))
        return values[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "tensor_rule", rule)
        mp.setattr(quadrature, "weighted_sum", summed)
        try:
            got = case.run()
        except QuadratureNotConverged:
            got = None
    levels = len(values)
    while stop(values, rate=False) is None and len(values) < len(LADDER):
        try:
            grid, w = tensor_rule(boxes[0], LADDER[len(values)])
        except QuadratureNotConverged:  # the node budget
            break
        values.append(weighted_sum(integrands[0], grid, w))
    return Run(case, got, levels, values, stop(values, rate=True), stop(values, rate=False))


@pytest.fixture(scope="module")
def runs():
    return [run(case) for case in all_cases()]


def test_harness_size(runs):
    assert sum(r.case.analytic for r in runs) >= 500
    assert sum(not r.case.analytic for r in runs) >= 300


def test_integrate_is_the_replayed_rule(runs):
    for r in runs:
        if r.rated is None:
            assert r.got is None, r.case.name
            continue
        level, value, estimate = r.rated
        assert r.got == (value, estimate) and r.levels == level + 1, r.case.name


def test_the_rate_stop_only_ever_stops_earlier(runs):
    # an integral the difference stop ends at level j ends there, with its value
    # and estimate, unless the rate stop ended it before
    for r in runs:
        if r.difference is None:
            continue
        assert r.rated is not None and r.rated[0] <= r.difference[0], r.case.name
        if r.rated[0] == r.difference[0]:
            assert r.rated == r.difference, r.case.name


def test_analytic_values_meet_their_tolerance(runs):
    analytic = [r for r in runs if r.case.analytic]
    assert all(r.rated is not None for r in analytic), [r.case.name for r in analytic if r.rated is None]
    past = [(r.case.name, r.err(r.rated) / r.tol()) for r in analytic if r.err(r.rated) > r.tol()]
    assert not past


def test_the_rate_stop_saves_levels_and_its_estimate_covers_the_error(runs):
    # a level can only be saved where the difference stop needs level 3 or more
    savable = [r for r in runs if r.case.analytic and r.difference[0] >= 3]
    early = [r for r in savable if r.rated != r.difference]
    assert len(early) >= 0.15 * len(savable)
    assert any(r.case.name.startswith("affine") and r.case.name.endswith("3d") for r in early)
    for r in early:
        assert r.rated[2] >= r.err(r.rated) - 1e-12 * abs(r.case.exact), r.case.name


def test_non_analytic_cases_do_no_worse_than_the_difference_stop(runs):
    # at an algebraic rate neither stop bounds the error: the rate stop may
    # neither raise the worst error over tolerance nor add more than 1 % of the
    # cases to those past it
    kinked = [r for r in runs if not r.case.analytic]

    def past(outcome):
        return {r.case.name for r in kinked if (o := outcome(r)) is not None and r.err(o) > r.tol()}

    def worst(outcome):
        return max(r.err(o) / r.tol() for r in kinked if (o := outcome(r)) is not None)

    assert worst(lambda r: r.rated) <= worst(lambda r: r.difference)
    assert len(past(lambda r: r.rated) - past(lambda r: r.difference)) <= 0.01 * len(kinked)


@pytest.mark.xfail(strict=True, reason="two levels of a kink can agree by chance: at level 2 the "
                                       "rate stop has one fall to read and cannot tell")
def test_a_chance_agreement_on_a_kink_is_not_taken_for_convergence():
    # |x - c|^p at orders 32, 45, 64: d_1 is 9.3e3 tolerances and d_2 6.2, a
    # fall of 1.5e3, while the order-64 value is still 77 tolerances off
    c, p = 0.7271594631046977, 1.2386200193658023
    exact = ((1.0 + c) ** (p + 1.0) + (1.0 - c) ** (p + 1.0)) / (p + 1.0)
    try:
        value, _ = integrate(lambda g: np.abs(g.points()[:, 0] - c) ** p, [[-1.0, 1.0]])
    except QuadratureNotConverged:
        return
    assert abs(value - exact) <= DEFAULT_REL_TOL * exact + ABS_TOL


# narrow tests against a unit state on the x-axis of R^2: where both of the
# first levels miss the peak, the difference is below ABS_TOL and integrate
# returns a value near 0 as converged.  These are the cases that do; the rest
# of the sweep raises.  They wait on a tolerance floor that scales with the
# integrand (ROADMAP item 11); the rate stop is relative and never fires there.
MISSED_PEAKS = {
    0.02: (-2.9, -2.3, -2.2, -1.8, -1.1, -1.0, -0.7, -0.6, -0.3, 0.3, 0.6, 0.7, 1.0, 1.1, 1.8, 2.2, 2.3, 2.9),
    0.025: (-2.2, -1.8, -1.1, -1.0, -0.6, 0.6, 1.0, 1.1, 1.8, 2.2),
    0.03: (-2.2, -1.8, -0.6, 0.6, 1.8, 2.2),
}


def narrow_cases():
    for s in (0.02, 0.025, 0.03):
        for i in range(-30, 31):
            m = i / 10
            marks = [pytest.mark.xfail(strict=True, reason="ROADMAP item 11: ABS_TOL accepts a missed peak")] \
                if m in MISSED_PEAKS[s] else []
            yield pytest.param(s, m, marks=marks, id=f"s{s}-m{m}")


@pytest.mark.parametrize("s, m", narrow_cases())
def test_a_narrow_test_meets_its_tolerance_or_raises(s, m):
    state = make_state(Submanifold.affine("X", [0.0, 0.0], [1.0, 0.0]), 0.5, "1", support=[[-6.0, 6.0]])
    phi = AmbientDensity.make(0.5, f"exp(-(x1-({m!r}))^2/{s * s!r}-x2^2)")
    exact = s * math.sqrt(math.pi)
    try:
        got = pair_with_test(state, phi)
    except QuadratureNotConverged:
        return
    assert abs(got.value - exact) <= DEFAULT_REL_TOL * exact + ABS_TOL


def scaled_runge(c):
    return integrate(lambda g: c / (1.0 + 25.0 * g.points()[:, 0] ** 2), [[-1.0, 1.0]])


def scaled_affine_3d(c):
    # an affine-pairs 3-D pairing that the rate stop ends at order 64
    return list(affine_pairings(1, coeff=repr(c)))[-1].run()


@pytest.mark.parametrize("integral", [scaled_runge, scaled_affine_3d], ids=["runge", "affine-3d"])
def test_scaling_by_a_power_of_two_scales_value_and_estimate_exactly(monkeypatch, integral):
    # sums scaled by a power of two are exact, and so is every step of both
    # stops but ABS_TOL's, which these integrals never reach; c < 1 would bring
    # the value down to ABS_TOL and waits on ROADMAP item 11
    orders = []
    rule = quadrature.tensor_rule
    monkeypatch.setattr(quadrature, "tensor_rule", lambda box, order: orders.append(order) or rule(box, order))
    value, estimate = integral(1.0)
    first = orders.copy()
    for c in (2.0 ** 30, 2.0 ** 60):
        orders.clear()
        assert integral(c) == (c * value, c * estimate) and orders == first
