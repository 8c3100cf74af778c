"""Unit tests for :mod:`repro.geometry.disk_index`.

Every query goes through :meth:`DiskIndex.within_bulk`, the one
"within ``r``" of the repo, and is checked against a brute-force
:func:`euclidean` reference.
"""

import numpy as np
import pytest

from repro.geometry.disk_index import DiskIndex
from repro.geometry.distance import euclidean
from repro.geometry.point import Point


@pytest.fixture
def random_points():
    rng = np.random.default_rng(0)
    return {
        i: Point(float(x), float(y))
        for i, (x, y) in enumerate(rng.uniform(0, 100, size=(300, 2)))
    }


def _within(index, center, radius):
    [row] = index.within_bulk([center], radius)
    return row


class TestGridIndex:
    def test_len_and_contains(self, random_points):
        index = DiskIndex(random_points)
        assert len(index) == 300
        assert 0 in index
        assert 999 not in index

    def test_position_roundtrip(self, random_points):
        index = DiskIndex(random_points)
        assert index.position(17) == random_points[17].as_tuple()

    def test_negative_radius_raises(self, random_points):
        index = DiskIndex(random_points)
        with pytest.raises(ValueError):
            index.within_bulk([(0, 0)], -1.0)

    @pytest.mark.parametrize("radius", [0.5, 2.7, 5.4, 20.0])
    def test_within_matches_brute_force(self, random_points, radius):
        index = DiskIndex(random_points)
        center = (50.0, 50.0)
        expected = {
            i
            for i, p in random_points.items()
            if euclidean(p, center) <= radius
        }
        assert set(_within(index, center, radius)) == expected

    def test_boundary_inclusive(self):
        index = DiskIndex({0: Point(0, 0), 1: Point(0, 3)})
        assert set(_within(index, (0, 0), 3.0)) == {0, 1}

    def test_neighbors_matches_brute_force(self, random_points):
        index = DiskIndex(random_points)
        labels = list(random_points)[:10]
        rows = index.within_bulk([random_points[lab] for lab in labels], 8.0)
        for label, row in zip(labels, rows):
            got = set(row) - {label}
            expected = {
                j
                for j, p in random_points.items()
                if j != label
                and euclidean(p, random_points[label]) <= 8.0
            }
            assert got == expected

    def test_query_radius_larger_than_cell(self):
        pts = {i: Point(float(i), 0.0) for i in range(50)}
        index = DiskIndex(pts)
        got = set(_within(index, (0, 0), 25.0))
        assert got == set(range(26))

    def test_empty_index(self):
        index = DiskIndex({})
        assert _within(index, (0, 0), 100.0) == []


class TestMinimalSpan:
    """Hits at exactly ``d == radius``: each must survive both the
    KD-tree superset query (its slack) and the ``math.hypot`` filter."""

    def test_hit_at_exact_radius_on_cell_edge(self):
        # An axis-aligned hit exactly radius away.
        index = DiskIndex({0: Point(6.0, 0.0)})
        assert _within(index, (0.0, 0.0), 6.0) == [0]

    def test_hit_at_exact_radius_diagonal_cell_corner(self):
        # A diagonal hit exactly radius away.
        index = DiskIndex({0: Point(9.0, 9.0)})
        center = (4.5, 4.5)
        radius = ((9.0 - 4.5) ** 2 * 2) ** 0.5
        assert _within(index, center, radius) == [0]

    def test_radius_exact_multiple_of_cell_size(self):
        # Unit-spaced points; the last hit sits exactly on the radius.
        pts = {i: Point(float(i), 0.0) for i in range(20)}
        index = DiskIndex(pts)
        got = set(_within(index, (0.0, 0.0), 10.0))
        assert got == set(range(11))

    def test_zero_radius_keeps_only_coincident_points(self):
        # The d <= 0 filter keeps co-located points only.
        index = DiskIndex({0: Point(1.0, 1.0), 1: Point(1.5, 1.0)})
        assert _within(index, (1.0, 1.0), 0.0) == [0]

    def test_negative_coordinates_cell_edges(self):
        # The axis-aligned case on the negative side.
        index = DiskIndex({0: Point(-6.0, 0.0)})
        assert _within(index, (0.0, 0.0), 6.0) == [0]

    @pytest.mark.parametrize("cell", [0.7, 1.0, 2.7, 9.0])
    def test_edge_grid_matches_brute_force(self, cell):
        # Points planted on a lattice of spacing ``cell``, queried with
        # radii that land hits exactly on the boundary.
        pts = {
            i * 10 + j: Point(i * cell, j * cell)
            for i in range(-3, 4)
            for j in range(-3, 4)
        }
        index = DiskIndex(pts)
        for radius in (0.0, cell, 2 * cell, 2.5 * cell):
            for center in ((0.0, 0.0), (cell / 2, cell / 2)):
                expected = {
                    lbl
                    for lbl, p in pts.items()
                    if euclidean(p, center) <= radius
                }
                got = set(_within(index, center, radius))
                assert got == expected, (cell, radius, center)
