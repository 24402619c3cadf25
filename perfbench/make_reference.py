"""Write perfbench/reference.json from the current source tree.

    python3 perfbench/make_reference.py

Records, at the reference seed, the sha256 digest of each workload's
generated instances and the per-solve (variant, status, iterations)
signature of the paper workload.  run.py fails a run whose digest
differs and reports whether the paper signature still matches.  Only
regenerate it when a change is meant to alter the seeded streams.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFERENCE_SEED, WORKLOADS, SolveWorkload, instance_digest, timed  # noqa: E402


def main():
    paper = WORKLOADS["paper"]
    reference = {
        "seed": REFERENCE_SEED,
        "digests": {name: instance_digest(w.instances(REFERENCE_SEED))
                    for name, w in WORKLOADS.items()},
        "signatures": {
            "paper": SolveWorkload.signature(
                [timed(call) for call in paper.calls(paper.setup(REFERENCE_SEED))]),
        },
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
