"""Encoder round-trip properties across the CSR differential families.

Every canonical encoder must satisfy two laws on every graph the CSR
property suite exercises (cycles, hypercubes, random regular, random
connected, colored cycles, port-scrambled cycles):

* **value round trip** — ``decode(encode(x))`` reproduces ``x`` (same
  classes, same views, same quotient structure);
* **byte idempotence** — ``encode(decode(payload)) == payload``, the
  property ``python -m repro.artifacts verify`` checks on live stores.
"""

from __future__ import annotations

import pytest

from repro.artifacts.encoders import (
    decode_quotient,
    decode_refinement,
    decode_views,
    encode_quotient,
    encode_refinement,
    encode_views,
    encoder_for,
)
from repro.exceptions import ArtifactError, ReproError
from repro.factor.quotient import infinite_view_graph
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.views.local_views import all_views
from repro.views.refinement import color_refinement
from repro.views.view_tree import clear_caches

from tests.views.test_csr_kernels_property import SEEDS, colored, family

_VIEW_DEPTH_CAP = 5


@pytest.mark.parametrize("seed", SEEDS)
def test_refinement_round_trip(seed):
    for g in family(seed):
        result = color_refinement(g)
        payload = encode_refinement(result)
        decoded = decode_refinement(payload)
        assert dict(decoded.classes) == dict(result.classes)
        assert decoded.rounds_to_stable == result.rounds_to_stable
        assert decoded.history == result.history
        assert decoded.stable == result.stable
        assert encode_refinement(decoded) == payload


@pytest.mark.parametrize("seed", SEEDS)
def test_views_round_trip(seed):
    for g in family(seed):
        depth = min(g.num_nodes, _VIEW_DEPTH_CAP)
        views = all_views(g, depth)
        payload = encode_views(views)
        decoded = decode_views(payload)
        # Interning makes equal views identical objects.
        assert decoded == dict(views)
        assert encode_views(decoded) == payload


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_quotient_round_trip(seed):
    for g in family(seed):
        try:
            result = infinite_view_graph(g)
        except ReproError:
            continue  # not factorizable; no quotient artifact exists
        payload = encode_quotient(result)
        decoded = decode_quotient(payload)
        assert set(decoded.graph.edges()) == set(result.graph.edges())
        assert decoded.map.as_dict() == result.map.as_dict()
        assert decoded.map.multiplicity == result.map.multiplicity
        assert encode_quotient(decoded) == payload


def test_round_trip_survives_an_interning_epoch():
    # Payload bytes are a pure function of content, not of the intern
    # tables that happened to exist when they were produced.
    g = colored(with_uniform_input(cycle_graph(9)))
    before = encode_views(all_views(g, 4))
    clear_caches()
    decoded = decode_views(before)
    assert encode_views(decoded) == before


def test_unknown_kind_rejected():
    with pytest.raises(ArtifactError):
        encoder_for("no-such-kind")


def test_wrong_kind_payload_rejected():
    g = with_uniform_input(cycle_graph(5))
    payload = encode_refinement(color_refinement(g))
    with pytest.raises(ArtifactError):
        decode_views(payload)


def test_malformed_payload_rejected():
    with pytest.raises(ArtifactError):
        decode_refinement(b"not json")
    with pytest.raises(ArtifactError):
        decode_refinement(b'{"kind": "refinement", "format": 999}')
