#!/usr/bin/env python3
"""Tour of the ring constructors: tables, axiom scans, units, decompositions.

Run:  python demos/01_build_rings.py
"""

from matsemi.rings import (
    make_gaussian,
    make_matrix_ring,
    make_zmod,
    parse_ring_spec,
    sum_of_units_decompose,
    unitaries,
    units,
    validate_matrix_view,
    validate_ring,
)

# Ground rings: integers mod n.  Element i is just the residue i.
z4 = make_zmod(4)
print("Z4:", z4)
print("  2 + 3 =", int(z4.add[2, 3]), "   2 * 2 =", int(z4.mul[2, 2]))
print("  units:", [int(u) for u in units(z4)])

# Every constructed ring passes the full axiom scan.
val = validate_ring(z4)
print("  axiom scan ok:", val.ok, " (checks:", len(val.checks), ")")

# Gaussian extension: pairs a + b*i with conjugation and an imaginary unit.
g3 = make_gaussian(3)
print("\nZ3[i]:", g3)
i = g3.i_elem
print("  i =", g3.render(i), "  i*i =", g3.render(int(g3.mul[i, i])),
      "  i* =", g3.render(int(g3.star[i])))
print("  (1+i)(1-i) =", g3.render(int(g3.mul[4, 7])))
print("  unitaries:", [g3.render(int(u)) for u in unitaries(g3)])

# Matrix rings: index <-> 2x2 entry arrays, row-major.
view = make_matrix_ring(z4, 2)
ring = view.ring
print("\nM2(Z4):", ring, " one =", ring.render(ring.one))
print("  matrix-unit relations + conjugate-transpose star verified:",
      validate_matrix_view(view).ok)
print("  |GL2(Z4)| =", len(units(ring)))

# The spec grammar builds the same rings, nested to taste.
big = parse_ring_spec("mat:2:gauss:2")
print("\nmat:2:gauss:2 has", big.size, "elements; valid:",
      validate_ring(big).ok)

# Shortest sums of units, breadth-first over sum length.
e11 = view.matrix_unit(0, 0)
dec = sum_of_units_decompose(ring, e11, kmax=4)
print("\ne11 in M2(Z4) as a shortest sum of units:",
      [ring.render(u) for u in dec])
