#!/usr/bin/env python3
"""Record the expected output digest of every pipeline instance.

    python3 derandbench/record_digests.py

Runs every instance any workload seed can draw (all types x all
variants of ``reconstruct`` and ``search``) once, checks each output
against the problem definition and rewrites
``derandbench/expected_digests.json``.  Re-record only when the
program's outputs are meant to change; a speed-up must leave every
digest as it is.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    EXPECTED_DIGESTS,
    all_pipeline_instances,
    make_bundles,
    output_digest,
    solve,
)

from repro.views import clear_caches  # noqa: E402


def main() -> int:
    bundles = make_bundles()
    digests = {}
    for workload in ("reconstruct", "search"):
        for instance in all_pipeline_instances(workload):
            bundle = bundles[instance.bundle]
            clear_caches()
            start = time.perf_counter()
            result = solve(bundle, instance)
            wall = time.perf_counter() - start
            if not bundle.problem.is_valid_output(instance.graph, result.outputs):
                print(f"invalid output on {instance.key}", file=sys.stderr)
                return 1
            digests[instance.key] = output_digest(result)
            print(f"{instance.key} {wall:.3f}s", flush=True)
    EXPECTED_DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
