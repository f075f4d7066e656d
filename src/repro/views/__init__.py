"""Local views, color refinement and the universal cover.

The *depth-d local view* ``L_d(v, G)`` (paper Section 1.1, Figure 1) is
the rooted marked tree a deterministic anonymous algorithm at ``v`` could
learn in ``d`` rounds.  This package builds views explicitly
(:mod:`repro.views.view_tree`, :mod:`repro.views.local_views`), computes
the view-equivalence partition efficiently by color refinement
(:mod:`repro.views.refinement` — the two are cross-checked in tests), and
exposes the universal cover (:mod:`repro.views.universal_cover`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.views.view_tree import ViewTree, clear_caches, intern_stats
    from repro.views.local_views import (
        ViewBuilder,
        all_views,
        view,
        view_partition,
    )
    from repro.views.refinement import (
        RefinementResult,
        color_refinement,
        refinement_partition,
        stabilization_depth,
    )
    from repro.views.universal_cover import universal_cover_ball, view_to_cover_ball

_EXPORTS = {
    "ViewTree": "repro.views.view_tree",
    "clear_caches": "repro.views.view_tree",
    "intern_stats": "repro.views.view_tree",
    "ViewBuilder": "repro.views.local_views",
    "all_views": "repro.views.local_views",
    "view": "repro.views.local_views",
    "view_partition": "repro.views.local_views",
    "RefinementResult": "repro.views.refinement",
    "color_refinement": "repro.views.refinement",
    "refinement_partition": "repro.views.refinement",
    "stabilization_depth": "repro.views.refinement",
    "universal_cover_ball": "repro.views.universal_cover",
    "view_to_cover_ball": "repro.views.universal_cover",
}

__all__ = [
    "ViewTree",
    "ViewBuilder",
    "view",
    "all_views",
    "view_partition",
    "clear_caches",
    "intern_stats",
    "RefinementResult",
    "color_refinement",
    "refinement_partition",
    "stabilization_depth",
    "universal_cover_ball",
    "view_to_cover_ball",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
