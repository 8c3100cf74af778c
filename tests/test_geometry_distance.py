"""Unit tests for :mod:`repro.geometry.distance`."""

import numpy as np
import pytest

from repro.geometry.distance import euclidean, path_length, tour_length
from repro.geometry.distcache import DistanceCache
from repro.geometry.point import Point


class TestEuclidean:
    def test_pythagorean(self):
        assert euclidean((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_zero(self):
        assert euclidean((1, 1), (1, 1)) == 0.0

    def test_points_and_tuples(self):
        assert euclidean(Point(0, 0), (0, 2)) == pytest.approx(2.0)


class TestPairwiseDistances:
    """The dense pairwise matrix, :meth:`DistanceCache.dense_matrix`
    (labels first, the depot last): every entry is :func:`euclidean`."""

    @staticmethod
    def _matrix(points):
        labels = list(range(len(points)))
        cache = DistanceCache(dict(zip(labels, points)), depot=(0.0, 0.0))
        return cache.dense_matrix(labels)

    def test_shape(self):
        mat = self._matrix([Point(0, 0), Point(1, 0), Point(0, 1)])
        assert mat.shape == (4, 4)

    def test_symmetry_and_diagonal(self):
        mat = self._matrix([Point(0, 0), Point(3, 4), Point(-1, 2)])
        assert (mat == mat.T).all()
        assert (np.diag(mat) == 0.0).all()  # repro-lint: disable=float-eq

    def test_values(self):
        pts = [Point(1.2908828103117176, 2.3714176287701254), Point(3, 4)]
        mat = self._matrix(pts)
        assert mat[0, 1] == pytest.approx(2.3608, abs=1e-4)
        for i, a in enumerate(pts + [Point(0, 0)]):
            for j, b in enumerate(pts + [Point(0, 0)]):
                assert mat[i, j] == euclidean(a, b)  # repro-lint: disable=float-eq

    def test_empty(self):
        assert self._matrix([]).shape == (1, 1)


class TestPathLength:
    def test_empty_and_single(self):
        assert path_length([]) == 0.0
        assert path_length([Point(1, 1)]) == 0.0

    def test_two_points(self):
        assert path_length([Point(0, 0), Point(3, 4)]) == pytest.approx(5.0)

    def test_polyline(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1)]
        assert path_length(pts) == pytest.approx(2.0)


class TestTourLength:
    def test_degenerate(self):
        assert tour_length([]) == 0.0
        assert tour_length([Point(5, 5)]) == 0.0

    def test_closes_the_loop(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        assert tour_length(pts) == pytest.approx(4.0)

    def test_tour_at_least_path(self):
        pts = [Point(0, 0), Point(5, 0), Point(5, 5)]
        assert tour_length(pts) >= path_length(pts)
