"""Tests for the per-thread scratch generator of ``repro.core.seeding``.

The simulator's traces stay bit-identical to building a new
``RandomState`` per seeded draw only if reseeding one generator gives
the same draws (cached Gaussian included) and array draws equal scalar
draws.
"""

import threading

import numpy as np

from repro.core.seeding import scratch_rng, stable_seed


class TestScratchGenerator:
    def test_reseeding_matches_a_new_generator(self):
        # Three normals leave the second Gaussian of a pair cached;
        # reseeding must drop it.
        scratch_rng("warm-up").normal(size=3)
        draws = scratch_rng("key", 1).normal(0.0, 2.0, size=5).tolist()
        fresh = np.random.RandomState(stable_seed("key", 1))
        assert draws == fresh.normal(0.0, 2.0, size=5).tolist()

    def test_array_draw_equals_scalar_draws(self):
        batched = scratch_rng("series").normal(0.0, 1.5, size=7).tolist()
        scalar = np.random.RandomState(stable_seed("series"))
        assert batched == [float(scalar.normal(0.0, 1.5)) for _ in range(7)]

    def test_one_generator_per_thread(self):
        mine = scratch_rng(0)
        theirs = []
        thread = threading.Thread(target=lambda: theirs.append(scratch_rng(0)))
        thread.start()
        thread.join()
        assert theirs[0] is not mine
        assert scratch_rng(1) is mine
