"""The conjugate-pairing search that ``bezquad.quad1d.weight_poly_roots``
ran before it relied on ``np.roots`` returning exact conjugate pairs, kept
as a reference for the differential test.

It matched each upper half-plane root to the nearest conjugate of a lower
one and averaged the two.
"""

import numpy as np

from bezquad.bezier import bernstein_to_monomial
from bezquad.errors import ValidationError


def reference_weight_poly_roots(weights) -> list[complex]:
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size < 1:
        raise ValidationError("weights must be a nonempty vector")
    if not np.all(np.isfinite(weights)) or np.all(weights == 0):
        raise ValidationError("weights must be finite and not all zero")
    mono = bernstein_to_monomial(weights)
    scale = np.max(np.abs(mono))
    keep = np.nonzero(np.abs(mono) > 1e-12 * scale)[0]
    if keep.size == 0 or keep[-1] == 0:
        return []
    mono = mono[: keep[-1] + 1]
    raw = np.roots(mono[::-1])

    reals: list[float] = []
    pos: list[complex] = []
    neg: list[complex] = []
    for r in raw:
        if abs(r.imag) <= 1e-10 * (1.0 + abs(r.real)):
            reals.append(r.real)
        elif r.imag > 0:
            pos.append(complex(r))
        else:
            neg.append(complex(r))
    # eigenvalue output is only approximately conjugate-symmetric
    pairs: list[complex] = []
    for p in pos:
        if neg:
            k = min(range(len(neg)), key=lambda i: abs(p - neg[i].conjugate()))
            pairs.append(0.5 * (p + neg.pop(k).conjugate()))
        else:
            reals.append(p.real)
    reals.extend(q.real for q in neg)

    def cluster(values, key):
        values = sorted(values, key=key)
        groups: list[list] = []
        for v in values:
            if groups and abs(v - groups[-1][-1]) <= 1e-6 * max(1.0, abs(v)):
                groups[-1].append(v)
            else:
                groups.append([v])
        out = []
        for g in groups:
            center = sum(g) / len(g)
            out.extend([center] * len(g))
        return out

    roots: list[complex] = [complex(v) for v in cluster(reals, key=float)]
    for v in cluster(pairs, key=lambda z: (z.real, z.imag)):
        roots.append(v)
        roots.append(v.conjugate())
    roots.sort(key=lambda z: (z.real, z.imag))
    return roots

