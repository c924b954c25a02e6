"""Maslov indices of loops of Lagrangian planes.

The basic cycles of an invariant torus each carry Maslov index 2, and the
index is unchanged when the whole loop is pushed forward by a linear
symplectic map.  Traversal count and orientation act additively.
"""

import numpy as np

from symcap import maslov_index, random_symplectic, torus_cycle_loop, transport_loop
from symcap.maslov import LagrangianLoop


def main():
    for n, radii in ((1, [1.0]), (2, [1.0, 2.0]), (3, [1.0, 0.5, 2.0])):
        indices = [maslov_index(torus_cycle_loop(radii, j)).index
                   for j in range(1, n + 1)]
        print(f"n = {n}: basic-cycle indices {indices}")

    loop = torus_cycle_loop([1.0, 2.0], 1)
    for seed in (3, 4):
        S = random_symplectic(2, seed, spread=0.8)
        moved = transport_loop(loop, S)
        print(f"after random symplectic transport (seed {seed}): "
              f"index {maslov_index(moved).index}")

    reversed_loop = LagrangianLoop(loop.frames[::-1], loop.ts)
    print("reversed orientation:", maslov_index(reversed_loop).index)

    frames = np.concatenate([loop.frames, loop.frames[1:]])
    ts = range(len(frames))
    print("double traversal:", maslov_index(LagrangianLoop(frames, ts)).index)


if __name__ == "__main__":
    main()
