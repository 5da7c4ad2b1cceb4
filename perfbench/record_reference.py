"""Record the sphere values of the lattice_ladder checks at the current commit.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``.  The values are those of the unrotated
field bases; every seed uses a symmetry image of them, which leaves each value
unchanged, so one record serves all seeds.  Re-record only when a change is
meant to alter these values, and say so where the change is described.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import geodexp.haar as haar  # noqa: E402
import geodexp.manifolds as mf  # noqa: E402
import workloads  # noqa: E402


def main():
    bases = workloads.ladder_inputs(0)
    bases["sphere"] = (workloads.SPHERE_BASE1, workloads.SPHERE_BASE2)
    record = {}
    for label, thunk in workloads.ladder_values(haar, mf, bases):
        if label.startswith("sphere."):
            record[label] = workloads.recorded_fields(label, thunk())
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"lattice_ladder": record}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
