import math

import numpy as np
import pytest
from scipy.integrate import quad

from bezquad.bezier import bernstein_to_monomial
from bezquad.errors import ConditioningError, ValidationError
from bezquad.moments import geometric_moments, moment_fit_weights, monomial_exponents
from bezquad.planar import spectral_pe_rule, spectral_rule
from bezquad.quad1d import (
    PoleSet,
    _basis,
    _basis_matrix,
    _chebyshev_nodes,
    Rule1D,
    gauss_legendre,
    interval_distance,
    partial_fraction_moment,
    rational_rule,
    weight_poly_roots,
)

from bezquad.shapes import box_solid, circle_region, cylinder_solid, cylinder_solid_fitted
from bezquad.surface import (
    boundary_rule,
    parametric_area_rule,
    surface_integrate,
    unit_square_loop,
)
from bezquad.trimfit import fit_trim_curves
from bezquad.volume import volume_rule

from quad1d_reference import reference_weight_poly_roots

CIRCLE_POLE = 0.5 + 1.2071067811865476j


def test_gauss_single_point_is_midpoint():
    r = gauss_legendre(1, (0, 1))
    assert np.allclose(r.nodes, [0.5]) and np.allclose(r.weights, [1.0])


def test_gauss_weight_sum_is_length():
    for n in (1, 3, 8, 40):
        r = gauss_legendre(n, (-1.5, 2.5))
        assert abs(r.weights.sum() - 4.0) < 1e-13


def test_gauss_polynomial_exactness():
    # n points integrate degree 2n-1 exactly
    for n in range(1, 12):
        r = gauss_legendre(n, (0.25, 1.75))
        k = 2 * n - 1
        exact = (1.75 ** (k + 1) - 0.25 ** (k + 1)) / (k + 1)
        assert abs(float(np.dot(r.weights, r.nodes**k)) - exact) < 1e-12 * abs(exact)


def test_gauss_nodes_strictly_interior():
    r = gauss_legendre(20, (0, 1))
    assert np.all(r.nodes > 0) and np.all(r.nodes < 1)
    assert np.all(np.diff(r.nodes) > 0)


def test_gauss_signed_interval():
    r = gauss_legendre(4, (1.0, 0.0))
    assert abs(r.weights.sum() + 1.0) < 1e-14
    assert abs(float(np.dot(r.weights, r.nodes**2)) + 1.0 / 3.0) < 1e-14


def test_gauss_degenerate_interval():
    r = gauss_legendre(3, (0.7, 0.7))
    assert np.allclose(r.nodes, 0.7) and np.allclose(r.weights, 0.0)


def test_gauss_is_the_affine_map_of_legendre_nodes():
    for n in range(1, 41):
        x, w = np.polynomial.legendre.leggauss(n)
        for lo, hi in [(0.0, 1.0), (-1.5, 2.5), (1.0, 0.0), (0.7, 0.7), (-3.25, -7.5)]:
            r = gauss_legendre(n, (lo, hi))
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            assert r.nodes.tobytes() == (mid + half * x).tobytes()
            assert r.weights.tobytes() == (half * w).tobytes()
            assert r.interval == (lo, hi)


def test_gauss_rejects_zero_points():
    with pytest.raises(ValidationError):
        gauss_legendre(0)


@pytest.mark.parametrize("interval", [(0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)])
def test_gauss_rejects_non_finite_interval(interval):
    i = 0 if math.isinf(interval[0]) else 1
    with pytest.raises(ValidationError) as err:
        gauss_legendre(3, interval)
    assert str(err.value) == f"interval[{i}]: must be finite, got {float(interval[i])}"


def test_interval_distance():
    assert interval_distance(0.5 + 0.25j) == 0.25
    assert interval_distance(-3 + 0j) == 3.0
    assert abs(interval_distance(2 + 1j) - math.sqrt(2)) < 1e-15
    assert interval_distance(0.3 + 0j) == 0.0


def test_circle_weight_poly_roots():
    roots = weight_poly_roots([1, math.sqrt(2) / 2, 1])
    assert len(roots) == 2
    lo, hi = sorted(roots, key=lambda z: z.imag)
    assert abs(hi - CIRCLE_POLE) < 1e-10
    assert lo == hi.conjugate()


def test_equal_weights_have_no_roots():
    assert weight_poly_roots([1.0, 1.0, 1.0]) == []
    assert weight_poly_roots([2.5, 2.5]) == []


def test_degree_drop_in_weight_poly():
    # (1, 1.5, 2) has vanishing leading monomial coefficient: w(s) = 1 + s
    roots = weight_poly_roots([1, 1.5, 2])
    assert len(roots) == 1
    assert abs(roots[0] - (-1)) < 1e-12


def test_double_root_snaps_to_shared_value():
    # 4(1-s)^2 + 4s(1-s) + s^2 = (s - 2)^2
    roots = weight_poly_roots([4, 2, 1])
    assert len(roots) == 2
    assert roots[0] == roots[1]
    assert abs(roots[0] - 2) < 1e-6


def test_roots_conjugate_paired():
    rng = np.random.default_rng(17)
    for _ in range(40):
        w = rng.uniform(0.2, 3.0, size=int(rng.integers(3, 7)))
        roots = weight_poly_roots(w)
        tally = {}
        for r in roots:
            if r.imag != 0:
                tally[r] = tally.get(r, 0) + 1
        for r, count in tally.items():
            assert tally.get(r.conjugate()) == count
        # positive weights keep w(s) > 0 on [0, 1]
        for r in roots:
            assert interval_distance(r) > 1e-8


def test_weight_poly_roots_match_the_pairing_search_they_replaced():
    # positive weights, as rational curves carry, and mixed signs, whose
    # polynomials have real roots too
    rng = np.random.default_rng(2718)
    order = lambda r: (r.real, r.imag)
    for degree in range(1, 21):
        for lo in (0.2, -1.0):
            for _ in range(25):
                w = rng.uniform(lo, 3.0, degree + 1)
                assert weight_poly_roots(w) == reference_weight_poly_roots(w), w.tolist()
                # np.roots of real coefficients: exact conjugate pairs
                mono = bernstein_to_monomial(w)
                mono = mono[: np.flatnonzero(np.abs(mono) > 1e-12 * np.abs(mono).max())[-1] + 1]
                raw = np.roots(mono[::-1])
                upper = sorted((complex(r) for r in raw if r.imag > 0), key=order)
                lower = sorted((complex(r).conjugate() for r in raw if r.imag < 0), key=order)
                assert upper == lower, w.tolist()


def test_partial_fraction_moment_anchors():
    m = partial_fraction_moment(1j, 1)
    assert abs(m - (0.5 * math.log(2) + 1j * math.pi / 4)) < 1e-15
    assert abs(partial_fraction_moment(2.0, 2) - 0.5) < 1e-15
    assert abs(partial_fraction_moment(-1.0, 1) - math.log(2)) < 1e-15


def test_partial_fraction_moment_against_quadrature():
    rng = np.random.default_rng(29)
    for _ in range(25):
        p = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if interval_distance(p) < 0.15:
            continue
        j = int(rng.integers(1, 5))
        re = quad(lambda s: ((s - p) ** (-j)).real, 0, 1, epsabs=1e-13)[0]
        im = quad(lambda s: ((s - p) ** (-j)).imag, 0, 1, epsabs=1e-13)[0]
        m = partial_fraction_moment(p, j)
        assert abs(m - complex(re, im)) < 1e-10


def test_partial_fraction_moment_rejects_bad_input():
    with pytest.raises(ValidationError):
        partial_fraction_moment(0.5, 1)
    with pytest.raises(ValidationError):
        partial_fraction_moment(2.0, 0)


def test_pole_set_grouping():
    ps = PoleSet.from_roots([2.0, 2.0, 1j, -1j], multiplier=3)
    assert ps.total_multiplicity == 12
    assert dict(ps.poles)[2.0 + 0j] == 6


def test_pole_set_open_under_conjugation():
    with pytest.raises(ValidationError):
        PoleSet(((0.5 + 2j, 1),))


@pytest.mark.parametrize(
    "build",
    [
        lambda: PoleSet.from_roots([1j]),
        lambda: PoleSet.from_roots([0.5 + 2j, 0.5 - 2j, 0.5 - 2j]),
        lambda: PoleSet(((0.5 + 2j, 1), (0.5 - 2j, 2))),
    ],
    ids=["lone-root", "unequal-roots", "unequal-multiplicities"],
)
def test_pole_sets_are_refused_open_under_conjugation(build):
    # an open set was built, and refused only when a rule was asked of it
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == "poles: pole set must be closed under conjugation"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: PoleSet(((0.5 + 1j, 1), (0.5 + 1j, 2))), "duplicate pole locations; merge multiplicities instead"),
        (lambda: weight_poly_roots([]), "weights must be a nonempty vector"),
        (lambda: weight_poly_roots([[1.0, 2.0]]), "weights: need shape (n,), got (1, 2)"),
        (lambda: weight_poly_roots([1.0, math.nan]), "weights[1]: must be finite, got nan"),
        (lambda: weight_poly_roots([0.0, 0.0]), "weights must not all be zero"),
    ],
    ids=["duplicate-poles", "empty-weights", "matrix-weights", "nan-weight", "zero-weights"],
)
def test_pole_and_weight_refusals(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "poles, got",
    [
        (5.0, None),
        ([[1, 2, 3]], "[1, 2, 3]"),
        (np.zeros((2, 2, 2)), repr(np.zeros((2, 2)))),
        (((None, 1),), "(None, 1)"),
        ([{0.5: 1, 2: 1}], "{0.5: 1, 2: 1}"),
        ([{0.5, 2}], repr({0.5, 2})),
    ],
    ids=["scalar", "triple", "3d-array", "none-location", "dict", "set"],
)
def test_pole_set_refuses_what_is_not_pairs(poles, got):
    # the first four raised a raw TypeError or ValueError from unpacking or
    # complex(); a dict or set was read by its keys, the set in no given
    # order; a bare pole (got None) is no list of pairs
    with pytest.raises(ValidationError) as err:
        PoleSet(poles)
    want = f"poles[0]: need (location, multiplicity), got {got}"
    assert str(err.value) == ("poles: need a list, got float" if got is None else want)


# each call that takes a pole location, and its refusal: a NaN or infinite
# pole gave nan+nanj, a bool was taken as 1, and None or text raised a raw
# AttributeError, ValueError or TypeError
_POLE_REFUSALS = {
    "moment-nan-pole": (
        lambda: partial_fraction_moment(complex(math.nan, 1), 2),
        "pole: pole locations must be finite, got (nan+1j)",
    ),
    "moment-inf-pole": (
        lambda: partial_fraction_moment(math.inf, 1),
        "pole: pole locations must be finite, got (inf+0j)",
    ),
    "moment-text-pole": (
        lambda: partial_fraction_moment("a", 1), "pole: need a complex number, got str"
    ),
    "distance-of-none": (lambda: interval_distance(None), "p: need a complex number, got NoneType"),
    "text-root": (lambda: PoleSet.from_roots(["a"]), "roots[0]: need a complex number, got str"),
    "no-roots": (lambda: PoleSet.from_roots(None), "roots: need a list, got NoneType"),
    "bool-location": (lambda: PoleSet(((True, 1),)), "poles[0][0]: need a complex number, got bool"),
}


@pytest.mark.parametrize("call, message", _POLE_REFUSALS.values(), ids=_POLE_REFUSALS)
def test_pole_arguments_are_refused_at_their_name(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_pole_set_rejects_bad_multiplicity():
    with pytest.raises(ValidationError):
        PoleSet(((2 + 0j, 0),))


@pytest.mark.parametrize(
    "poles",
    [
        ((math.inf, 1),),
        ((complex(math.nan, 1.0), 1), (complex(math.nan, -1.0), 1)),
        ((complex(0.5, math.inf), 2), (complex(0.5, -math.inf), 2)),
    ],
    ids=["inf", "nan-pair", "inf-imag-pair"],
)
def test_pole_set_rejects_non_finite_location(poles):
    # an infinite pole once reached the collocation solve as a raw
    # LinAlgError, and a NaN pair was called open under conjugation
    with pytest.raises(ValidationError, match="pole locations must be finite"):
        PoleSet(poles)


def test_rational_rule_polynomial_only():
    r = rational_rule(PoleSet(()), poly_degree=4)
    assert len(r) == 5
    assert np.all(r.nodes > 0) and np.all(r.nodes < 1)
    assert abs(float(np.dot(r.weights, r.nodes**4)) - 0.2) < 1e-13
    assert abs(r.weights.sum() - 1.0) < 1e-12


def test_rational_rule_circle_node_count():
    ps = PoleSet.from_roots([CIRCLE_POLE, CIRCLE_POLE.conjugate()], multiplier=6)
    r = rational_rule(ps, 0)
    assert len(r) == 13
    assert abs(r.weights.sum() - 1.0) < 1e-12


def test_rational_rule_exact_on_rational_function():
    # random numerator over the circle weight polynomial to the 6th power
    w0, w1, w2 = 1.0, math.sqrt(2) / 2, 1.0

    def wpoly(s):
        return w0 * (1 - s) ** 2 + 2 * w1 * s * (1 - s) + w2 * s**2

    rng = np.random.default_rng(41)
    num = rng.standard_normal(12)
    f = lambda s: np.polyval(num, s) / wpoly(s) ** 6
    ps = PoleSet.from_roots(weight_poly_roots([w0, w1, w2]), multiplier=6)
    r = rational_rule(ps, 0)
    # 100-point Gauss-Legendre reference: the poles sit at 0.5 +- 1.21i,
    # so its error is far below the tolerance checked here
    x, w = np.polynomial.legendre.leggauss(100)
    exact = 0.5 * float(np.dot(w, f(0.5 * (x + 1))))
    assert abs(float(np.dot(r.weights, f(r.nodes))) - exact) < 1e-12 * max(1.0, abs(exact))


def test_rational_rule_basis_exactness_random_poles():
    rng = np.random.default_rng(53)
    for _ in range(20):
        poles = []
        budget = int(rng.integers(1, 7))
        while budget > 0:
            mult = int(rng.integers(1, budget + 1))
            if rng.random() < 0.5:
                p = complex(rng.uniform(-1, 2), rng.uniform(0.12, 1.5))
                if interval_distance(p) < 0.1 or 2 * mult > budget:
                    continue
                poles += [(p, mult), (p.conjugate(), mult)]
                budget -= 2 * mult
            else:
                side = rng.choice([-1, 1])
                x = rng.uniform(0.12, 1.5)
                p = complex(-x if side < 0 else 1 + x, 0.0)
                if any(abs(p - q) < 1e-3 for q, _ in poles):
                    continue
                poles.append((p, mult))
                budget -= mult
        ps = PoleSet(tuple(poles))
        l = int(rng.integers(0, 4))
        r = rational_rule(ps, l)
        assert len(r) == ps.total_multiplicity + l + 1
        for a in range(l + 1):
            exact = 1.0 / (a + 1)
            assert abs(float(np.dot(r.weights, r.nodes**a)) - exact) <= 1e-11 * abs(exact)
        for p, mult in ps.poles:
            if p.imag < 0:
                continue
            for j in range(1, mult + 1):
                exact = partial_fraction_moment(p, j)
                got_re = float(np.dot(r.weights, ((r.nodes - p) ** (-j)).real))
                denom = max(abs(exact), 1e-8)
                assert abs(got_re - exact.real) <= 1e-11 * denom
                if p.imag > 0:
                    got_im = float(np.dot(r.weights, ((r.nodes - p) ** (-j)).imag))
                    assert abs(got_im - exact.imag) <= 1e-11 * denom


def test_rational_rule_rejects_near_interval_pole():
    ps = PoleSet(((0.5 + 1e-9j, 1), (0.5 - 1e-9j, 1)))
    with pytest.raises(ValidationError):
        rational_rule(ps, 0)


def test_rational_rule_conditioning_error():
    # a near-interval complex pair at multiplicity 14 spans more dynamic
    # range than double least squares can certify, so the rule declines
    ps = PoleSet(((0.5 + 0.1001j, 14), (0.5 - 0.1001j, 14)))
    with pytest.raises(ConditioningError) as info:
        rational_rule(ps, 0)
    assert info.value.condition_estimate > 0


def test_rational_rule_clustered_poles_still_certified():
    # almost-coincident poles defeat the square collocation solve, but
    # the residual-checked least-squares fallback still lands a rule
    # whose basis moments are good to rounding
    ps = PoleSet(((-0.5 + 0j, 6), (-0.5 + 1e-9 + 0j, 6)))
    r = rational_rule(ps, 0)
    assert np.abs(r.weights).max() < 1.0
    for p, mult in ps.poles:
        for j in range(1, mult + 1):
            exact = partial_fraction_moment(p, j)
            got = float(np.dot(r.weights, ((r.nodes - p) ** (-j)).real))
            assert abs(got - exact.real) <= 1e-12 * max(abs(exact), 1e-8)


def test_rule1d_validation():
    with pytest.raises(ValidationError):
        Rule1D(np.zeros(3), np.zeros(4), (0, 1))


def _reference_basis_matrix(terms, nodes):
    # one power per row, recast per row: the plain definition
    x = nodes.astype(np.longdouble)
    rows = []
    for term in terms:
        if term[0] == "poly":
            rows.append(x ** term[1])
        elif term[0] == "real":
            rows.append((x - np.longdouble(term[1])) ** (-term[2]))
        else:
            for part in ("real", "imag"):
                z = (x.astype(np.clongdouble) - np.clongdouble(term[1])) ** (-term[2])
                rows.append(getattr(z, part))
    return np.array(rows)


@pytest.mark.parametrize(
    "poles",
    [
        ((-0.5 + 0j, 3), (1.25 + 0j, 1)),
        ((CIRCLE_POLE, 5), (CIRCLE_POLE.conjugate(), 5)),
        ((-0.3 + 0j, 2), (0.2 + 0.7j, 4), (0.2 - 0.7j, 4), (1.6 + 0.1j, 1), (1.6 - 0.1j, 1)),
    ],
    ids=["real", "complex", "mixed"],
)
def test_basis_matrix_matches_per_term_reference(poles):
    ps = PoleSet(poles)
    for poly_degree in (0, 3):
        terms, moments = _basis(ps, poly_degree)
        n = len(moments)
        assert n == ps.total_multiplicity + poly_degree + 1
        for nodes in (_chebyshev_nodes(n), gauss_legendre(n).nodes):
            got = _basis_matrix(terms, nodes)
            want = _reference_basis_matrix(terms, nodes)
            # longdouble padding bytes are uninitialised: compare values
            assert got.shape == (n, n) and got.dtype == want.dtype
            assert np.array_equal(got, want)


_FRACTIONAL_ORDERS = {
    "gauss": lambda: gauss_legendre(2.5),
    "gauss-bool": lambda: gauss_legendre(True),
    "gauss-nan": lambda: gauss_legendre(float("nan")),
    "spectral-boundary": lambda: spectral_rule(circle_region(), 2.5, 3),
    "spectral-layer": lambda: spectral_rule(circle_region(), 3, 3.7),
    "pe-degree": lambda: spectral_pe_rule(circle_region(), 2.5),
    "pe-bool": lambda: spectral_pe_rule(circle_region(), False),
    "volume-mq": lambda: volume_rule(box_solid(), 2.9, 2, 2),
    "volume-np": lambda: volume_rule(box_solid(), 2, 2, 1.5),
    "volume-trimmed-mq": lambda: volume_rule(cylinder_solid(), 2.9, 2, 2),
    "untrimmed": lambda: boundary_rule((box_solid().patches[0].patch,), 2.5, 2.5),
    "surface-nq": lambda: boundary_rule((cylinder_solid().patches[4],), 3, 2.5),
    "moments-region": lambda: geometric_moments(circle_region(), 2.5),
    "moments-solid": lambda: geometric_moments(cylinder_solid(), 2.5),
    "exponents": lambda: monomial_exponents(np.float64(1.5), 2),
    "volume-bool": lambda: volume_rule(box_solid(), True, 2, 2),
    "boundary-mq": lambda: boundary_rule(box_solid().patches, 2.5, 3),
    "patch-bool": lambda: boundary_rule((box_solid().patches[0],), 3, True),
    "moments-solid-bool": lambda: geometric_moments(box_solid(), True),
    "spectral-boundary-str": lambda: spectral_rule(circle_region(), "4", 3),
    "spectral-boundary-none": lambda: spectral_rule(circle_region(), None, 3),
    "spectral-layer-str": lambda: spectral_rule(circle_region(), 3, "4"),
    "spectral-layer-none": lambda: spectral_rule(circle_region(), 3, None),
    "spectral-layer-half": lambda: spectral_rule(circle_region(), 3, 0.5),
    "moments-region-str": lambda: geometric_moments(circle_region(), "3"),
    "moments-region-none": lambda: geometric_moments(circle_region(), None),
    "moments-solid-str": lambda: geometric_moments(box_solid(), "3"),
    "moments-solid-none": lambda: geometric_moments(box_solid(), None),
    "moment-fit-str": lambda: moment_fit_weights(
        _DISK_POINTS, geometric_moments(circle_region(), 4), "4"
    ),
    "root-multiplier-str": lambda: PoleSet.from_roots([2j, -2j], "2"),
    "fitted-cylinder-segments-str": lambda: cylinder_solid_fitted(segments="4"),
    "fitted-cylinder-samples": lambda: cylinder_solid_fitted(samples_per_segment=2.5),
}
_DISK_POINTS = np.random.default_rng(3).uniform(-0.7, 0.7, (40, 2))


@pytest.mark.parametrize("call", _FRACTIONAL_ORDERS.values(), ids=_FRACTIONAL_ORDERS.keys())
def test_non_integer_orders_rejected(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


_FIVES = {"int64": np.int64(5), "int32": np.int32(5), "float": 5.0, "float64": np.float64(5.0)}


@pytest.mark.parametrize("n", _FIVES.values(), ids=_FIVES.keys())
def test_integral_orders_accepted(n):
    ref = gauss_legendre(5)
    r = gauss_legendre(n)
    assert r.nodes.tobytes() == ref.nodes.tobytes()
    assert r.weights.tobytes() == ref.weights.tobytes()
    region = circle_region()
    for a, b in [(spectral_pe_rule(region, n), spectral_pe_rule(region, 5)),
                 (spectral_rule(region, n, n), spectral_rule(region, 5, 5))]:
        for x, y in [(a.points, b.points), (a.weights, b.weights), (a.provenance, b.provenance)]:
            assert x.tobytes() == y.tobytes()
    assert monomial_exponents(n, 3) == monomial_exponents(5, 3)


_BELOW_MINIMUM = {
    "pole-multiplicity": (lambda: PoleSet(((2j, 0), (-2j, 0))), "pole multiplicity must be >= 1, got 0"),
    "root-multiplier": (lambda: PoleSet.from_roots([2j, -2j], 0), "root multiplier must be >= 1, got 0"),
    "partial-fraction-order": (lambda: partial_fraction_moment(2j, 0), "partial-fraction order must be >= 1, got 0"),
    "poly-degree": (lambda: rational_rule(PoleSet(()), -1), "polynomial degree must be >= 0, got -1"),
    "pe-degree": (lambda: spectral_pe_rule(circle_region(), -1.0), "exactness degree must be >= 0, got -1"),
    "exponents": (lambda: monomial_exponents(np.int32(-3), 3), "max degree must be >= 0, got -3"),
    "moments-region": (lambda: geometric_moments(circle_region(), -1), "max degree must be >= 0, got -1"),
    "moments-solid": (lambda: geometric_moments(box_solid(), -2), "max degree must be >= 0, got -2"),
    "moment-fit": (
        lambda: moment_fit_weights(_DISK_POINTS, geometric_moments(circle_region(), 2), -1),
        "max degree must be >= 0, got -1",
    ),
    "moment-fit-points": (
        lambda: moment_fit_weights(_DISK_POINTS[:3], geometric_moments(circle_region(), 2)),
        "points: 6 moments need at least that many points, got 3",
    ),
    "fit-segments": (lambda: fit_trim_curves(_ARC_SAMPLES, 0), "segments must be >= 1, got 0"),
    "fit-degree": (lambda: fit_trim_curves(_ARC_SAMPLES, 4, 0), "degree must be >= 1, got 0"),
    "fitted-cylinder": (
        lambda: cylinder_solid_fitted(samples_per_segment=0), "samples per segment must be >= 3, got 0"
    ),
}


@pytest.mark.parametrize("case", _BELOW_MINIMUM.values(), ids=_BELOW_MINIMUM.keys())
def test_below_minimum_messages(case):
    call, message = case
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


# each count used to reach numpy or range() and raise a raw OverflowError
# or ValueError; 2**63 is the least count beyond int64
_BEYOND_INT64 = {
    "gauss": (lambda: gauss_legendre(2**63), "node count"),
    "spectral": (lambda: spectral_rule(circle_region(), 2**63, 2), "node count"),
    "parametric-area": (lambda: parametric_area_rule([unit_square_loop()], 2**63, 2), "node count"),
    "volume": (lambda: volume_rule(box_solid(), 2, 2, 2**63), "node count"),
    "fitted-cylinder": (lambda: cylinder_solid_fitted(segments=2**63), "segments"),
}


@pytest.mark.parametrize("call, what", _BEYOND_INT64.values(), ids=_BEYOND_INT64)
def test_counts_beyond_int64_are_refused(call, what):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == f"{what} must fit in int64, got {2**63}"


def test_none_keeps_its_default():
    cube = box_solid()
    _same_rule(volume_rule(cube, 3, 2, n_p=None), volume_rule(cube, 3, 2, 3))
    mv = geometric_moments(circle_region(), 3)
    a, b = moment_fit_weights(_DISK_POINTS, mv, None), moment_fit_weights(_DISK_POINTS, mv, 3)
    assert a[0].tobytes() == b[0].tobytes() and a[1] == b[1]


def test_at_least_one_messages_kept():
    with pytest.raises(ValidationError, match="^node count must be >= 1, got 0$"):
        gauss_legendre(0)
    with pytest.raises(ValidationError, match="exactness degree must be >= 0, got -1"):
        spectral_pe_rule(circle_region(), np.int64(-1))
    with pytest.raises(ValidationError, match="max degree must be >= 0, got -2"):
        monomial_exponents(-2.0, 2)


_FRACTIONAL_COUNTS = {
    "pole-multiplicity": lambda: PoleSet(((2j, 2.5), (-2j, 2.5))),
    "pole-multiplicity-bool": lambda: PoleSet(((-0.5 + 0j, True),)),
    "partial-fraction-order": lambda: partial_fraction_moment(2j, 2.5),
    "poly-degree": lambda: rational_rule(PoleSet(((2j, 1), (-2j, 1))), poly_degree=1.5),
    "fit-segments": lambda: fit_trim_curves(_ARC_SAMPLES, 4.5),
    "fit-degree": lambda: fit_trim_curves(_ARC_SAMPLES, 4, 2.5),
}
_ARC_SAMPLES = np.column_stack([np.cos(np.linspace(0, 1, 40)), np.sin(np.linspace(0, 1, 40))])


@pytest.mark.parametrize("call", _FRACTIONAL_COUNTS.values(), ids=_FRACTIONAL_COUNTS.keys())
def test_fractional_counts_rejected(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


def test_integral_counts_accepted():
    poles = PoleSet(((2j, 2.0), (-2j, np.int64(2))))
    assert poles.poles == ((2j, 2), (-2j, 2))
    assert partial_fraction_moment(2j, 3.0) == partial_fraction_moment(2j, 3)
    a, b = rational_rule(poles, poly_degree=1.0), rational_rule(poles, poly_degree=1)
    assert a.nodes.tobytes() == b.nodes.tobytes() and a.weights.tobytes() == b.weights.tobytes()
    for a, b in zip(fit_trim_curves(_ARC_SAMPLES, 4.0, 3.0), fit_trim_curves(_ARC_SAMPLES, 4, 3)):
        assert a.points.tobytes() == b.points.tobytes()


def _same_rule(a, b):
    for name in ("points", "weights", "provenance", "preimages"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("n", _FIVES.values(), ids=_FIVES.keys())
def test_integral_solid_orders_accepted(n):
    cube, cyl = box_solid(), cylinder_solid()
    _same_rule(volume_rule(cube, n, n, n), volume_rule(cube, 5, 5, 5))
    _same_rule(volume_rule(cyl, n, 3, n), volume_rule(cyl, 5, 3, 5))
    _same_rule(boundary_rule(cyl.patches, n, n), boundary_rule(cyl.patches, 5, 5))
    _same_rule(boundary_rule((cyl.patches[0],), 3, n), boundary_rule((cyl.patches[0],), 3, 5))
    untrimmed = (cyl.patches[0].patch,)
    _same_rule(boundary_rule(untrimmed, n, n), boundary_rule(untrimmed, 5, 5))
    one = lambda x, y, z: np.ones_like(x)
    assert surface_integrate(cube.patches, one, n, n) == surface_integrate(cube.patches, one, 5, 5)
    want = geometric_moments(cube, 3).values.tobytes()
    assert geometric_moments(cube, n - 2).values.tobytes() == want
