"""Volume quadrature over solids bounded by closed unions of patches.

The divergence theorem turns the volume integral of f into a surface
integral of its z antiderivative against the z-component of the outward
normal.  The solid's boundary rule is built in z-normal mode, and under
every surface point a Gauss segment drops from the fixed height P_z (the
lowest control z of the whole solid) up to the surface.  The volume rule
is the union of those segments; side patches with n_z = 0 contribute
nothing, and surface points at the bottom produce degenerate segments
with zero weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bezier import _adopt, _kind
from .errors import ValidationError
from .planar import Rule, _built, _lift
from .quad1d import _orders
from .surface import TrimmedPatch, _as_trimmed_patches, boundary_rule

__all__ = [
    "SolidModel",
    "Rule3D",
    "solid_constant_Pz",
    "volume_rule",
]


@dataclass(frozen=True)
class SolidModel:
    """Union of trimmed patches asserted to bound a volume.

    Patch normals must point out of the material.  ``closed``, a bool, is
    a caller assertion, not something verified here; the construction
    tolerates small gaps between adjacent patches.
    """

    patches: tuple[TrimmedPatch, ...]
    closed: bool = True

    def __post_init__(self):
        if not isinstance(self.closed, (bool, np.bool_)):
            raise ValidationError(f"must be true or false, got {self.closed!r}", path="closed")
        object.__setattr__(self, "closed", bool(self.closed))
        object.__setattr__(self, "patches", _as_trimmed_patches(self.patches))


def Rule3D(points, weights, provenance) -> Rule:
    """Volume rule with per-point provenance rows (patch, sigma, psi):
    the patch index, the surface-point index within that patch's surface
    rule, and the node index on the vertical segment under it."""
    return Rule(points, weights, provenance, ("x", "y", "z", "weight", "patch", "sigma", "psi"))


def solid_constant_Pz(solid: SolidModel) -> float:
    """Lowest control-point z of the solid; antiderivative segments start
    here, so they never leave the control bounding box."""
    _kind(solid, "solid", SolidModel)
    return min(float(tp.patch.points[..., 2].min()) for tp in solid.patches)


def volume_rule(
    solid: SolidModel, m_q: int, n_q: int, n_p: int | None = None, pz: float | None = None
) -> Rule:
    """Volume rule for a closed solid.

    The z-normal boundary_rule (per patch, m_q boundary nodes and n_q
    layer nodes per trim segment; untrimmed patches use the max(m_q, n_q)
    tensor shortcut), then an n_p-point Gauss segment under each surface
    point.  n_p defaults to m_q.  ``pz`` overrides the antiderivative
    base height; integrals of smooth f over a closed solid do not depend
    on it, only the individual points and weights do.
    """
    _kind(solid, "solid", SolidModel)
    if not solid.closed:
        raise ValidationError("volume rules need a solid asserted closed")
    m_q, n_q, n_p = _orders(m_q, n_q, m_q if n_p is None else n_p)
    base = solid_constant_Pz(solid) if pz is None else float(_adopt(pz, "pz", shape=()))
    srule = boundary_rule(solid.patches, m_q, n_q, "z-normal")
    return _built(Rule3D, *_lift(srule.points, srule.provenance[:, 0], base, n_p, srule.weights))

