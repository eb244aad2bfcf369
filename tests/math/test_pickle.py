"""Plain-int form of normalised curve coordinates.

``batch_to_affine`` must hand back canonical ``int`` coordinates, so
anything serialised from them (pickled, hashed, cached) is stable.
"""

import pickle
import random

from repro.groups.curve import batch_to_affine


class TestPointPickle:
    def test_raw_jacobian_coordinates_unlift_to_int(self, small_group):
        """Normalising raw Jacobian triples yields plain ``int``
        coordinates that pickle and restore identically."""
        rng = random.Random(11)
        points = [small_group.random_g(rng).point for _ in range(5)]
        q = small_group.q
        jacobians = [(p.x, p.y, 1) for p in points]
        affine = batch_to_affine(jacobians, q)
        for point in affine:
            assert type(point.x) is int and type(point.y) is int
        raw = [(point.x, point.y) for point in affine]
        restored = pickle.loads(pickle.dumps(raw))
        assert restored == [(p.x, p.y) for p in points]
