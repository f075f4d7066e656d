"""Producers: the ``spec -> live object`` compute side of the store.

One producer per artifact kind, each a thin adapter from a spec (see
:mod:`repro.artifacts.specs`) onto the library function that actually
computes the object — so a cache miss runs exactly the code a direct
call would.

:func:`compute_payload` composes a producer with its canonical encoder;
it is the single compute entry point shared by
:meth:`~repro.artifacts.store.ArtifactStore.fetch` and the artifacts
gate's direct-computation reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.artifacts.encoders import encoder_for
from repro.exceptions import ArtifactError
from repro.factor.quotient import infinite_view_graph
from repro.graphs.io import graph_from_dict
from repro.views.local_views import all_views
from repro.views.refinement import color_refinement

__all__ = [
    "ArtifactProducer",
    "compute_artifact",
    "compute_payload",
    "producer_for",
]


@dataclass(frozen=True)
class ArtifactProducer:
    kind: str
    compute: "Callable[[dict[str, Any]], Any]"


def _graph_of(spec: "dict[str, Any]"):
    try:
        return graph_from_dict(spec["graph"])
    except KeyError:
        raise ArtifactError(f"spec for kind {spec.get('kind')!r} lacks a 'graph'") from None


def _compute_refinement(spec: "dict[str, Any]") -> Any:
    return color_refinement(_graph_of(spec))


def _compute_views(spec: "dict[str, Any]") -> Any:
    return all_views(_graph_of(spec), spec["depth"])


def _compute_quotient(spec: "dict[str, Any]") -> Any:
    return infinite_view_graph(_graph_of(spec), with_views=spec["with_views"])


def _compute_dynamic_views(spec: "dict[str, Any]") -> Any:
    # Lazy import: the dynamic subsystem sits above the artifact layer.
    from repro.dynamic.delta import Delta
    from repro.dynamic.maintain import replay_views

    try:
        base = graph_from_dict(spec["base"])
    except KeyError:
        raise ArtifactError("spec for kind 'dynamic-views' lacks a 'base'") from None
    deltas = [Delta.from_dict(payload) for payload in spec.get("deltas", ())]
    return replay_views(base, deltas, spec["depth"])


_PRODUCERS: "dict[str, ArtifactProducer]" = {
    "refinement": ArtifactProducer("refinement", _compute_refinement),
    "views": ArtifactProducer("views", _compute_views),
    "quotient": ArtifactProducer("quotient", _compute_quotient),
    "dynamic-views": ArtifactProducer("dynamic-views", _compute_dynamic_views),
}


def producer_for(kind: str) -> ArtifactProducer:
    try:
        return _PRODUCERS[kind]
    except KeyError:
        raise ArtifactError(
            f"no producer for artifact kind {kind!r}; known: "
            f"{', '.join(sorted(_PRODUCERS))}"
        ) from None


def compute_artifact(spec: "dict[str, Any]") -> Any:
    """The live object a spec describes (runs the library function)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ArtifactError(f"artifact spec must be a dict with a 'kind': {spec!r}")
    return producer_for(spec["kind"]).compute(spec)


def compute_payload(spec: "dict[str, Any]") -> bytes:
    """The canonical payload bytes for a spec: compute, then encode."""
    return encoder_for(spec["kind"]).encode(compute_artifact(spec))
