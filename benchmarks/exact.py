"""Closed-form reference values for the benchmark, in stdlib ``math`` only.

Nothing here imports bezquad: the benchmark must never use the library as
its own reference.  The self-checks at the bottom compare each helper with
a high-order library rule; they run after the timed phase, so a wrong
reference shows up as a failed self-check instead of as a library error.
"""

from __future__ import annotations

import math


def unit_disk_moment(i: int, j: int) -> float:
    """Integral of u^i v^j over the unit disk (zero unless both are even)."""
    if i % 2 or j % 2:
        return 0.0
    return (
        2.0
        * math.gamma((i + 1) / 2)
        * math.gamma((j + 1) / 2)
        / ((i + j + 2) * math.gamma((i + j + 2) / 2))
    )


def disk_moment(a: int, b: int, cx: float, cy: float, r: float) -> float:
    """Integral of x^a y^b over the disk of radius r about (cx, cy).

    Binomial expansion of (cx + r u)^a (cy + r v)^b over the unit disk.
    """
    return math.fsum(
        math.comb(a, i)
        * math.comb(b, j)
        * cx ** (a - i)
        * cy ** (b - j)
        * r ** (i + j + 2)
        * unit_disk_moment(i, j)
        for i in range(0, a + 1, 2)
        for j in range(0, b + 1, 2)
    )


def annulus_moment(a, b, cx, cy, r_out, r_in) -> float:
    return disk_moment(a, b, cx, cy, r_out) - disk_moment(a, b, cx, cy, r_in)


def bessel_i1(x: float) -> float:
    """Modified Bessel function I1 by its power series (fine for |x| < 20)."""
    half = 0.5 * x
    term = half
    total = 0.0
    k = 0
    while True:
        total += term
        k += 1
        term *= half * half / (k * (k + 1))
        if abs(term) <= 1e-18 * abs(total):
            return total + term


def disk_exp_integral(cx: float, cy: float, r: float) -> float:
    """Integral of exp(x + y) over the disk: e^(cx+cy) 2 pi r I1(sqrt2 r) / sqrt2."""
    s2 = math.sqrt(2.0)
    return math.exp(cx + cy) * 2.0 * math.pi * r * bessel_i1(s2 * r) / s2


def box_moment(a: int, b: int, c: int, lo, hi) -> float:
    out = 1.0
    for e, x0, x1 in zip((a, b, c), lo, hi):
        out *= (x1 ** (e + 1) - x0 ** (e + 1)) / (e + 1)
    return out


def cylinder_moment(a: int, b: int, c: int, cx, cy, r, z0, h) -> float:
    z1 = z0 + h
    return disk_moment(a, b, cx, cy, r) * (z1 ** (c + 1) - z0 ** (c + 1)) / (c + 1)


def box_surface_zpow(c: int, lo, hi) -> float:
    """Surface integral of z^c over the whole boundary of a box (c = 0 is
    its area)."""
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    dx, dy = x1 - x0, y1 - y0
    sides = 2.0 * (dx + dy) * (z1 ** (c + 1) - z0 ** (c + 1)) / (c + 1)
    return sides + dx * dy * (z0**c + z1**c)


def cylinder_surface_zpow(c: int, r, z0, h) -> float:
    """Surface integral of z^c over the whole boundary of a capped cylinder."""
    z1 = z0 + h
    side = 2.0 * math.pi * r * (z1 ** (c + 1) - z0 ** (c + 1)) / (c + 1)
    return side + math.pi * r * r * (z0**c + z1**c)


# -- models ---------------------------------------------------------------
#
# The workloads describe geometry as plain dicts (so op lists are JSON);
# these dispatch on the dict's "shape".


def region_moment(region: dict, a: int, b: int) -> float:
    cx, cy, r = region["cx"], region["cy"], region["r"]
    if region["shape"] == "annulus":
        return annulus_moment(a, b, cx, cy, r, region["r_in"])
    return disk_moment(a, b, cx, cy, r)


def region_exp_integral(region: dict) -> float:
    cx, cy, r = region["cx"], region["cy"], region["r"]
    out = disk_exp_integral(cx, cy, r)
    if region["shape"] == "annulus":
        out -= disk_exp_integral(cx, cy, region["r_in"])
    return out


def region_scale(region: dict, a: int, b: int) -> float:
    """Upper bound of the integral of |x^a y^b|: the error scale used where
    the exact moment is zero."""
    cx, cy, r = region["cx"], region["cy"], region["r"]
    return math.pi * r * r * (abs(cx) + r) ** a * (abs(cy) + r) ** b


def solid_moment(solid: dict, a: int, b: int, c: int) -> float:
    if solid["shape"] == "box":
        return box_moment(a, b, c, solid["lo"], solid["hi"])
    return cylinder_moment(
        a, b, c, solid["cx"], solid["cy"], solid["r"], solid["z0"], solid["h"]
    )


def solid_scale(solid: dict, a: int, b: int, c: int) -> float:
    if solid["shape"] == "box":
        lo, hi = solid["lo"], solid["hi"]
        vol = math.prod(h - l for l, h in zip(lo, hi))
        ext = [max(abs(l), abs(h)) for l, h in zip(lo, hi)]
    else:
        r, z0 = solid["r"], solid["z0"]
        vol = math.pi * r * r * solid["h"]
        ext = [abs(solid["cx"]) + r, abs(solid["cy"]) + r, max(abs(z0), abs(z0 + solid["h"]))]
    return vol * ext[0] ** a * ext[1] ** b * ext[2] ** c


def solid_area(solid: dict) -> float:
    return solid_surface_zpow(solid, 0)


def solid_volume(solid: dict) -> float:
    return solid_moment(solid, 0, 0, 0)


def solid_surface_zpow(solid: dict, c: int) -> float:
    if solid["shape"] == "box":
        return box_surface_zpow(c, solid["lo"], solid["hi"])
    return cylinder_surface_zpow(c, solid["r"], solid["z0"], solid["h"])


def poly_integral(terms, moment) -> float:
    """Sum of coef * moment(exponents) over (coef, exponents) terms."""
    return math.fsum(coef * moment(*exps) for coef, exps in terms)


def rel_error(got: float, exact: float, scale: float) -> float:
    """Relative error, or error against ``scale`` where the exact value is 0."""
    if not math.isfinite(got):
        return math.inf
    if exact != 0.0:
        return abs(got - exact) / abs(exact)
    return abs(got) / scale


# -- self-checks ----------------------------------------------------------


def self_checks(bq):
    """Compare every helper with a high-order library rule.

    Returns a list of (name, relative error); the caller applies the
    tolerance.  ``bq`` is the imported bezquad package.
    """
    import numpy as np

    out = []
    disk = {"shape": "disk", "cx": 1.3, "cy": 0.9, "r": 0.8}
    ann = {"shape": "annulus", "cx": 1.6, "cy": 1.2, "r": 1.0, "r_in": 0.45}
    reg_d = bq.circle_region((disk["cx"], disk["cy"]), disk["r"])
    reg_a = bq.annulus_region((ann["cx"], ann["cy"]), ann["r"], ann["r_in"])
    for name, spec, reg in (("disk_moment", disk, reg_d), ("annulus_moment", ann, reg_a)):
        rule = bq.spectral_rule(reg, 40, 40)
        x, y = rule.points.T
        worst = max(
            rel_error(float(np.dot(rule.weights, x**a * y**b)), region_moment(spec, a, b), 1.0)
            for a, b in ((0, 0), (3, 2), (5, 0), (4, 4))
        )
        out.append((name, worst))
    rule = bq.spectral_rule(reg_a, 40, 40)
    got = float(np.dot(rule.weights, np.exp(rule.points.sum(axis=1))))
    out.append(("disk_exp_integral", rel_error(got, region_exp_integral(ann), 1.0)))

    box = {"shape": "box", "lo": (0.2, 0.3, 0.1), "hi": (1.1, 1.7, 0.9)}
    cyl = {"shape": "cylinder", "cx": 1.4, "cy": 1.2, "r": 0.7, "z0": 0.3, "h": 1.1}
    box_s = bq.box_solid(box["lo"], box["hi"])
    cyl_s = bq.cylinder_solid((cyl["cx"], cyl["cy"]), cyl["r"], cyl["z0"], cyl["h"])
    for name, spec, solid in (("box_moment", box, box_s), ("cylinder_moment", cyl, cyl_s)):
        rule = bq.volume_rule(solid, 24, 24, 24)
        x, y, z = rule.points.T
        worst = max(
            rel_error(
                float(np.dot(rule.weights, x**a * y**b * z**c)), solid_moment(spec, a, b, c), 1.0
            )
            for a, b, c in ((0, 0, 0), (2, 1, 3), (0, 4, 0))
        )
        out.append((name, worst))
        ones = lambda x, y, z: np.ones_like(x)
        area = bq.surface_integrate(solid.patches, ones, 24, 24)
        out.append((name.replace("moment", "area"), rel_error(area, solid_area(spec), 1.0)))
        z2 = bq.surface_integrate(solid.patches, lambda x, y, z: z * z, 24, 24)
        out.append(
            (name.replace("moment", "surface_zpow"), rel_error(z2, solid_surface_zpow(spec, 2), 1.0))
        )
    return out
