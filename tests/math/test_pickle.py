"""Backend-independent plain-int form of normalised curve coordinates.

``batch_to_affine`` must hand back canonical ``int`` coordinates under
every backend, never backend-native values, so anything serialised from
them (pickled, hashed, cached) is identical whichever backend produced it.
"""

import pickle
import random

import pytest

from repro.groups.curve import batch_to_affine
from repro.math.backend import available_backends, use_backend

BACKENDS = available_backends()


class TestPointPickle:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_raw_jacobian_coordinates_unlift_to_int(self, small_group, backend_name):
        """Normalising raw Jacobian triples under any backend yields
        coordinates whose ``int()`` coercion pickles identically."""
        rng = random.Random(11)
        points = [small_group.random_g(rng).point for _ in range(5)]
        q = small_group.q
        with use_backend(backend_name):
            jacobians = [(int(p.x), int(p.y), 1) for p in points]
            affine = batch_to_affine(jacobians, q)
            raw = [(int(p.x), int(p.y)) for p in affine]
        blob = pickle.dumps(raw)
        restored = pickle.loads(blob)
        assert restored == [(p.x, p.y) for p in points]
        for x, y in restored:
            assert type(x) is int and type(y) is int
