"""Tests for geographic primitives."""

import math

import pytest

from repro.topology import geo


class TestGeoCoordinate:
    def test_valid_coordinate(self):
        point = geo.GeoCoordinate(47.37, 8.54)
        assert point.latitude == 47.37

    def test_invalid_latitude(self):
        with pytest.raises(ValueError):
            geo.GeoCoordinate(91.0, 0.0)

    def test_invalid_longitude(self):
        with pytest.raises(ValueError):
            geo.GeoCoordinate(0.0, -181.0)

    def test_distance_and_delay_methods(self):
        zurich = geo.GeoCoordinate(47.3769, 8.5417)
        london = geo.GeoCoordinate(51.5074, -0.1278)
        assert zurich.distance_km(london) == pytest.approx(776, rel=0.05)
        assert zurich.delay_ms(london) > 0.0


class TestGreatCircle:
    def test_zero_distance(self):
        point = geo.GeoCoordinate(10.0, 20.0)
        assert geo.great_circle_km(point, point) == 0.0

    def test_symmetry(self):
        a = geo.GeoCoordinate(40.7, -74.0)
        b = geo.GeoCoordinate(35.6, 139.6)
        assert geo.great_circle_km(a, b) == pytest.approx(geo.great_circle_km(b, a))

    def test_new_york_to_london(self):
        new_york = geo.GeoCoordinate(40.7128, -74.0060)
        london = geo.GeoCoordinate(51.5074, -0.1278)
        assert geo.great_circle_km(new_york, london) == pytest.approx(5570, rel=0.02)

    def test_antipodal_distance_near_half_circumference(self):
        a = geo.GeoCoordinate(0.0, 0.0)
        b = geo.GeoCoordinate(0.0, 180.0)
        assert geo.great_circle_km(a, b) == pytest.approx(3.14159 * geo.EARTH_RADIUS_KM, rel=0.01)

    def test_near_antipodal_distances_add_up_along_a_meridian(self):
        # (0, 180), (-1, 0) and (-1e-5, 0) lie on one great circle, so the
        # detour through (-1, 0) is exactly as long as the direct path;
        # plain haversine overshot the direct path by ~5 mm here.
        a = geo.GeoCoordinate(0.0, 180.0)
        b = geo.GeoCoordinate(-1.0, 0.0)
        c = geo.GeoCoordinate(-1e-5, 0.0)
        direct = geo.great_circle_km(a, c)
        detour = geo.great_circle_km(a, b) + geo.great_circle_km(b, c)
        assert direct == pytest.approx(detour, abs=1e-9)
        assert direct == pytest.approx(
            math.pi * geo.EARTH_RADIUS_KM * (1.0 - 1e-5 / 180.0), abs=1e-9
        )

    def test_delay_proportional_to_distance(self):
        a = geo.GeoCoordinate(0.0, 0.0)
        b = geo.GeoCoordinate(0.0, 10.0)
        c = geo.GeoCoordinate(0.0, 20.0)
        assert geo.propagation_delay_ms(a, c) == pytest.approx(
            2 * geo.propagation_delay_ms(a, b), rel=0.01
        )


class TestCentroidAndClustering:
    def test_centroid_of_single_point(self):
        point = geo.GeoCoordinate(10.0, 20.0)
        assert geo.centroid([point]) == point

    def test_centroid_average(self):
        a = geo.GeoCoordinate(0.0, 0.0)
        b = geo.GeoCoordinate(10.0, 20.0)
        mid = geo.centroid([a, b])
        assert mid.latitude == pytest.approx(5.0)
        assert mid.longitude == pytest.approx(10.0)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            geo.centroid([])

    def test_clustering_groups_nearby_points(self):
        zurich = geo.GeoCoordinate(47.3769, 8.5417)
        zurich_airport = geo.GeoCoordinate(47.4582, 8.5555)
        tokyo = geo.GeoCoordinate(35.6762, 139.6503)
        clusters = geo.cluster_by_distance(
            [("a", zurich), ("b", zurich_airport), ("c", tokyo)], radius_km=50.0
        )
        assert ["a", "b"] in clusters
        assert ["c"] in clusters

    def test_clustering_zero_radius_separates_distinct_points(self):
        a = geo.GeoCoordinate(0.0, 0.0)
        b = geo.GeoCoordinate(1.0, 1.0)
        clusters = geo.cluster_by_distance([("a", a), ("b", b)], radius_km=0.0)
        assert len(clusters) == 2

    def test_clustering_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            geo.cluster_by_distance([], radius_km=-1.0)


class TestCatalogue:
    def test_world_cities_have_valid_coordinates(self):
        for _name, coord in geo.WORLD_CITIES:
            assert -90 <= coord.latitude <= 90
            assert -180 <= coord.longitude <= 180
