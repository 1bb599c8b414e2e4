"""Bit-exact pins on the synthetic cities the suite and the daemon use.

Every served decision, golden replay and smoke baseline is a function
of these cities, so a change to how they are generated (the order or
grouping of random draws, float arithmetic, route choice) must show up
here first.  Each pin is a sha256 over every user's ``(x, y, t)``
reprs, in user order, and every commuter's LBQID rectangles.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.mobility.population import CityConfig, SyntheticCity
from repro.serve.loadgen import WorkloadConfig


def city_fingerprint(city: SyntheticCity) -> str:
    digest = hashlib.sha256()
    for user_id in city.all_user_ids:
        digest.update(f"user {user_id}\n".encode())
        for point in city.store.history(user_id):
            digest.update(f"{point.x!r} {point.y!r} {point.t!r}\n".encode())
    for commuter in city.commuters:
        digest.update(f"lbqid {commuter.user_id}\n".encode())
        for element in commuter.lbqid().elements:
            rect = element.area
            digest.update(
                f"{rect.x_min!r} {rect.y_min!r} "
                f"{rect.x_max!r} {rect.y_max!r}\n".encode()
            )
    return digest.hexdigest()


CITIES = {
    "default": (
        CityConfig(),
        "ba276fe90b09d15a6a86ee25f92cc27d9bb43302935dc2f0560cce996f137daa",
    ),
    "serving": (
        WorkloadConfig(seed=11).city_config(),
        "ac9039efccd42916bf62e3d1679f226cdeba8646540746b6df1992fe11b1447b",
    ),
    "golden-replay": (
        CityConfig(seed=11, n_commuters=12, n_wanderers=6),
        "eabdb3e526f67b3279df066868ffad627bd0bb81865b012cad39e36d2d0ca527",
    ),
}


@pytest.mark.parametrize("name", sorted(CITIES))
def test_city_is_bit_identical(name):
    config, expected = CITIES[name]
    assert city_fingerprint(SyntheticCity.generate(config)) == expected
