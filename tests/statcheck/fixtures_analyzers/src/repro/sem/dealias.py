"""Fixture: the dealiased convection is in the hot-loop-allocation scope.

The module name deliberately shadows ``repro.sem.dealias`` -- the analyzer
matches hot *modules* exactly, so this file is linted under the real
module's rules without importing it.  The production idiom (block-sized
scratch taken from the space's workspace, updated in place) must stay
silent; a fresh fine-grid array per block must be flagged.  Linted by
tests, never imported.
"""

import numpy as np


def workspace_blocks_are_clean(ws, blocks, ud, c, metric, out):
    for blk in blocks:
        g = ws.get("dealias.g", ud[blk].shape)
        g[...] = ud[blk]
        g *= metric[blk]
        g *= c[blk]
        out[blk] += g
    return out


def fresh_block_is_flagged(blocks, ud, c, out):
    for blk in blocks:
        g = ud[blk].copy()  # fresh fine-grid block every iteration
        g *= c[blk]
        out[blk] += g
    return out


class Dealiaser:
    def __init__(self, nelv, lxd):
        # Setup methods may allocate freely: the fine-grid metrics live here.
        self.metrics = []
        for _ in range(9):
            # statcheck: ignore[backend-purity] -- setup-time loop
            self.metrics.append(np.zeros((nelv, lxd, lxd, lxd)))
