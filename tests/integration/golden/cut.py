"""Cut ``matrix.json``: run every matrix cell under every variant.

    PYTHONHASHSEED=1 PYTHONPATH=src python -m tests.integration.golden.cut

Each variant is a set of engine overrides that must not change behaviour.
The file is written only if every variant produces the same entry for
every cell; otherwise the disagreeing cells are printed and the exit
status is 1.
"""

from __future__ import annotations

import json
import sys

from . import ALGORITHMS, GOLDEN_PATH, run, scenarios

#: name -> overrides; the first is the reference every other must match.
#: Opcode fusion is the one optimization that can still be switched off.
VARIANTS = {
    "all-on": {},
    "fuse_ops-off": dict(fuse_ops=False),
}


def cut():
    """``(matrix, disagreements)`` over every cell and variant."""
    matrix = {}
    disagreements = []
    for workload, scenario in scenarios().items():
        for algorithm in ALGORITHMS:
            key = f"{workload}/{algorithm}"
            entries = {
                name: run(scenario, algorithm, **overrides)[0]
                for name, overrides in VARIANTS.items()
            }
            reference = entries["all-on"]
            for name, entry in entries.items():
                if entry != reference:
                    disagreements.append((key, name, entry, reference))
            matrix[key] = reference
    return matrix, disagreements


def main() -> int:
    matrix, disagreements = cut()
    for key, name, entry, reference in disagreements:
        print(f"{key}: {name} gives {entry}, all-on gives {reference}")
    if disagreements:
        print(f"not written: {len(disagreements)} disagreement(s)")
        return 1
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(matrix, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(matrix)} entries x {len(VARIANTS)} variants agreeing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
