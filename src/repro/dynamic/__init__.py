"""Dynamic networks: deterministic, replayable topology churn.

The paper's model fixes the graph for the whole run; this package makes
topology *change* first-class — so the repro can measure how the
paper's objects (views, quotients, 2-hop colorings) degrade and recover
under churn:

* :class:`Delta` / :class:`ChurnPlan` / :class:`ChurnSchedule` —
  atomic change values and declarative churn specs whose every decision
  is SHA-256-derived from the plan seed and the decision's coordinates,
  so a churned run is byte-replayable (:mod:`repro.dynamic.delta`);
* :class:`DynamicGraph` / :class:`AppliedBatch` — the mutable overlay
  applying delta batches over the immutable graph core, tracking dirty
  node sets and the append-only delta log
  (:mod:`repro.dynamic.graph`);
* :class:`DynamicViewMaintainer` / :func:`differential_check` /
  :func:`replay_views` — incremental view maintenance inside the blast
  radius, with a from-scratch byte-identity oracle and the producer
  behind the ``dynamic-views`` artifact kind
  (:mod:`repro.dynamic.maintain`);
* :func:`apply_churn` / :class:`TopologyHook` — the ambient context
  that churns every ``execute()`` call between rounds, on the engine's
  one ambient stack (:mod:`repro.dynamic.context`);
* the ``churn`` gate of :mod:`repro.experiments.gates` — zero-churn
  identity and replay determinism (``make smoke``).

See ``docs/DYNAMIC.md`` for the delta model, the blast-radius rule and
the determinism contract.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dynamic.context import ActiveChurn, TopologyHook, apply_churn
    from repro.dynamic.delta import (
        ChurnPlan,
        ChurnSchedule,
        Delta,
        add_edge,
        relabel,
        remove_edge,
        reorder_ports,
    )
    from repro.dynamic.graph import AppliedBatch, DynamicGraph
    from repro.dynamic.maintain import (
        DynamicViewMaintainer,
        UpdateStats,
        differential_check,
        replay_views,
    )

_EXPORTS = {
    "ActiveChurn": "repro.dynamic.context",
    "TopologyHook": "repro.dynamic.context",
    "apply_churn": "repro.dynamic.context",
    "ChurnPlan": "repro.dynamic.delta",
    "ChurnSchedule": "repro.dynamic.delta",
    "Delta": "repro.dynamic.delta",
    "add_edge": "repro.dynamic.delta",
    "relabel": "repro.dynamic.delta",
    "remove_edge": "repro.dynamic.delta",
    "reorder_ports": "repro.dynamic.delta",
    "AppliedBatch": "repro.dynamic.graph",
    "DynamicGraph": "repro.dynamic.graph",
    "DynamicViewMaintainer": "repro.dynamic.maintain",
    "UpdateStats": "repro.dynamic.maintain",
    "differential_check": "repro.dynamic.maintain",
    "replay_views": "repro.dynamic.maintain",
}

__all__ = [
    "ActiveChurn",
    "AppliedBatch",
    "ChurnPlan",
    "ChurnSchedule",
    "Delta",
    "DynamicGraph",
    "DynamicViewMaintainer",
    "TopologyHook",
    "UpdateStats",
    "add_edge",
    "apply_churn",
    "differential_check",
    "relabel",
    "remove_edge",
    "reorder_ports",
    "replay_views",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
