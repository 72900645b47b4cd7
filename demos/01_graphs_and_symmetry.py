"""Build the two graph families and inspect the symmetry the protocol needs.

The cross keeps Charlie's two sites on short stubs off the center, with
Alice and Bob at the far ends of the even- and odd-indexed arms. The loop
places the four special sites at quarter positions around a ring. In both
cases a reflection fixes Alice's and Bob's sites while exchanging
Charlie's, and that symmetry is what pins the heralded state to the Bell
combination.

The dynamics do not search for that reflection. They split the ordered pairs
|i,j> (+1 excitation at i, -1 at j) into cells by colour refinement, and every
state the protocols prepare has one amplitude per cell. Pairs that a symmetry
maps onto each other share a cell, so |A,B> and |B,A> sharing one is what
keeps the two Bell-channel amplitudes equal.
"""

from qutrit_bell import (bell_pairs_share_a_cell, build_cross, build_loop, pair_cells,
                         path_distance)

for name, g in (("cross N=9", build_cross(9)), ("loop N=8", build_loop(8))):
    print(f"== {name} ==")
    print("  edges:", sorted(g.edges))
    r = g.roles
    print(f"  roles: charlie +/- at {r.charlie_plus},{r.charlie_minus}, "
          f"alice at {r.alice}, bob at {r.bob}")
    print(f"  alice-bob separation: {path_distance(g, r.alice, r.bob)} edges")
    n, cells = g.n_vertices, pair_cells(g)
    print(f"  {n * (n - 1)} ordered pairs in {len(cells)} cells:")
    for cell in cells:
        print("    " + " ".join(f"{i},{j}" for i, j in cell))
    print(f"  |A,B> and |B,A> share a cell: {bell_pairs_share_a_cell(g)}")
    print()

# the headline configuration: a 35-site cross separates the entangled pair
# by a 33-site path (32 edges, endpoints included)
g = build_cross(35)
d = path_distance(g, g.roles.alice, g.roles.bob)
print(f"cross N=35: alice-bob path {d} edges long, i.e. {d + 1} sites including both ends")
