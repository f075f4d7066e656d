"""Tests for the ``dynamic-views`` artifact kind: the delta log as key
material, producer/encoder round-trips, and replay-based invalidation
semantics."""

from __future__ import annotations

from repro.artifacts.encoders import decode_dynamic_views, encoder_for
from repro.artifacts.keys import artifact_key
from repro.artifacts.producers import compute_artifact, compute_payload
from repro.artifacts.specs import dynamic_views_spec, views_spec
from repro.artifacts.store import ArtifactStore
from repro.dynamic import DynamicGraph, add_edge, relabel, replay_views
from repro.graphs.builders import cycle_graph, with_uniform_input
from repro.views.local_views import all_views

GRAPH = with_uniform_input(cycle_graph(8))
DELTAS = (add_edge(0, 4), relabel(1, "input", ("X",)))
DEPTH = 3


class TestKeying:
    def test_the_delta_log_is_key_material(self):
        empty = artifact_key(dynamic_views_spec(GRAPH, (), DEPTH))
        one = artifact_key(dynamic_views_spec(GRAPH, DELTAS[:1], DEPTH))
        two = artifact_key(dynamic_views_spec(GRAPH, DELTAS, DEPTH))
        assert len({empty, one, two}) == 3

    def test_key_is_a_pure_function_of_base_log_and_depth(self):
        a = artifact_key(dynamic_views_spec(GRAPH, DELTAS, DEPTH))
        b = artifact_key(dynamic_views_spec(GRAPH, list(DELTAS), DEPTH))
        assert a == b

    def test_distinct_from_the_plain_views_kind(self):
        assert artifact_key(dynamic_views_spec(GRAPH, (), DEPTH)) != artifact_key(
            views_spec(GRAPH, DEPTH)
        )


class TestProducerAndEncoder:
    def test_replay_views_matches_a_direct_rebuild(self):
        dynamic = DynamicGraph(GRAPH)
        dynamic.apply(DELTAS)
        direct = all_views(dynamic.graph, DEPTH)
        replayed = replay_views(GRAPH, DELTAS, DEPTH)
        assert all(replayed[v] is direct[v] for v in GRAPH.nodes)

    def test_payload_round_trips_and_reinterns(self):
        spec = dynamic_views_spec(GRAPH, DELTAS, DEPTH)
        payload = compute_payload(spec)
        decoded = decode_dynamic_views(payload)
        live = compute_artifact(spec)
        assert all(decoded[v] is live[v] for v in GRAPH.nodes)
        assert encoder_for("dynamic-views").encode(decoded) == payload

    def test_zero_delta_payload_matches_the_base_views(self):
        spec = dynamic_views_spec(GRAPH, (), DEPTH)
        decoded = decode_dynamic_views(compute_payload(spec))
        base = all_views(GRAPH, DEPTH)
        assert all(decoded[v] is base[v] for v in GRAPH.nodes)

    def test_store_serves_and_caches_the_kind(self):
        spec = dynamic_views_spec(GRAPH, DELTAS, DEPTH)
        store = ArtifactStore()
        first = store.fetch(spec)
        assert store.lookup(artifact_key(spec)) == first
        assert store.fetch(spec) == first
