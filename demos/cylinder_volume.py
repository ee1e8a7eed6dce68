"""Volumes from closed patch unions, including orientation and base height.

The volume rule only sees the boundary surface; flipping every patch
negates the result, and shifting the reference base height changes
nothing because the boundary is closed.
"""

import numpy as np

from bezquad import (
    apply,
    box_solid,
    bundled,
    cylinder_solid_fitted,
    flip_solid,
    load_solid,
    volume_rule,
)

one = lambda x, y, z: np.ones_like(x)

cube = box_solid()
print(f"unit cube volume     {apply(volume_rule(cube, 4, 4), one):.15f}")

cyl = load_solid(bundled("cylinder.solid.json"))
v = apply(volume_rule(cyl, 14, 14), one)
print(f"cylinder volume      {v:.15f}  error {abs(v - np.pi):.2e}")
v_flip = apply(volume_rule(flip_solid(cyl), 14, 14), one)
print(f"flipped orientation  {v_flip:.15f}")

# same closed boundary, different reference heights, same weights total
for pz in (0.0, -7.5):
    r = volume_rule(cyl, 10, 10, pz=pz)
    print(f"pz={pz:5.1f}  integral of cos(x)+y*z = "
          f"{apply(r, lambda x, y, z: np.cos(x) + y * z):.15f}")

print("\nfitted caps, volume error vs segments per quarter turn")
for segs in (4, 8, 16, 32):
    solid = cylinder_solid_fitted(segments=segs)
    err = abs(apply(volume_rule(solid, 12, 12), one) - np.pi)
    print(f"  {segs:3d} segments  error {err:.3e}")
