"""Differential test: the unified engine vs the pre-refactor runtime.

``golden/experiments_canonical.json`` was generated by the *old* runtime
(separate broadcast and port-numbering round loops)
immediately before the unified-kernel refactor, from the full
21-experiment registry run serially with ``base_seed=0`` (later
extended in place as new experiment families registered — the original
21 entries stayed byte-identical).  Every row and
check of every experiment — including every seeded randomized execution,
whose outputs depend on the exact per-node tape construction order — must
be byte-identical under the new engine.  A mismatch means the kernel
changed observable behavior, not just structure.

Regenerate (only when behavior is *intentionally* changed):

    PYTHONPATH=src python - <<'EOF'
    import json
    from pathlib import Path
    from repro.experiments.base import all_experiment_ids
    from repro.experiments.runner import (
        canonical_results, results_payload, run_experiments,
    )
    report = run_experiments(list(all_experiment_ids()), jobs=1, base_seed=0)
    canon = canonical_results(results_payload(report))
    target = Path("tests/runtime/golden/experiments_canonical.json")
    target.write_text(json.dumps(canon, indent=2, sort_keys=True) + "\n")
    EOF
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.base import all_experiment_ids
from repro.experiments.runner import (
    canonical_results,
    results_payload,
    run_experiments,
)

GOLDEN = Path(__file__).parent / "golden" / "experiments_canonical.json"


def test_full_registry_is_bit_identical_to_pre_refactor_golden():
    report = run_experiments(list(all_experiment_ids()), jobs=1, base_seed=0)
    assert report.all_passed
    canonical = canonical_results(results_payload(report))
    current = json.dumps(canonical, indent=2, sort_keys=True) + "\n"
    golden = GOLDEN.read_text()
    if current != golden:
        golden_entries = {e["experiment_id"]: e for e in json.loads(golden)}
        drifted = [
            entry["experiment_id"]
            for entry in canonical
            if entry != golden_entries.get(entry["experiment_id"])
        ]
        raise AssertionError(
            "engine outputs drifted from the pre-refactor golden for "
            f"experiments {drifted!r}; see the module docstring before "
            "regenerating"
        )


def test_golden_covers_the_whole_registry():
    golden_ids = [entry["experiment_id"] for entry in json.loads(GOLDEN.read_text())]
    assert sorted(golden_ids) == sorted(all_experiment_ids())
