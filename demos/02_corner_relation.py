#!/usr/bin/env python3
"""The corner relation phi(1) = phi(e11) + phi(e22) as the exact gap
between multiplicative maps and ring homomorphisms on M2(R).

Run:  python demos/02_corner_relation.py
"""

from matsemi.maps import (
    corner_relation_holds,
    determinant_map,
    is_additive,
    is_multiplicative,
)
from matsemi.rings import make_matrix_ring, make_zmod
from matsemi.search import enumerate_multiplicative_maps
from matsemi.witness import extract_additivity

z2 = make_zmod(2)
view = make_matrix_ring(z2, 2)
m2 = view.ring

# The determinant is the classic multiplicative-but-not-additive map.
det = determinant_map(view)
print("det on M2(Z2):")
print("  multiplicative:", is_multiplicative(det).passed,
      f"({is_multiplicative(det).counts['checked']} pairs)")
print("  corner relation:", corner_relation_holds(det).passed,
      " (det e11 + det e22 = 0, det 1 = 1)")
print("  additive:", is_additive(det).passed)

# Exhaustive classification: every multiplicative map M2(Z2) -> Z2.
res = enumerate_multiplicative_maps(m2, z2)
print("\nall multiplicative maps M2(Z2) -> Z2:", len(res.maps))
for phi in res.maps:
    print("  img:", phi.img.tolist(),
          " corner:", corner_relation_holds(phi).passed,
          " additive:", is_additive(phi).passed)
print("corner relation and additivity select the same maps.")

# For a map passing both gates, the additivity certificate rebuilds the
# proof: entrywise decomposition plus additivity corner by corner.
passing = enumerate_multiplicative_maps(m2, z2, filters=("corner",)).maps
cert = extract_additivity(passing[0])
print("\ncertificate for", passing[0].img.tolist())
print("  decomposition over matrix units:", cert.decomposition.passed)
print("  per-corner additivity:", [c.passed for c in cert.corners])
print("  plain additivity confirmed:", cert.additive_confirmed)
