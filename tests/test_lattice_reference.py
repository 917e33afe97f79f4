"""Lattice reports against the reference values in reference/lattice_reports.json.

The file holds `verify_central_relation` and `verify_poincare_closure`
reports, each with the arguments that made it, floats written with repr.
The cases reach every route of `spectral_norm`:

- an empty block: the 1-d closure and H,P1, H,P2 and P1,P2 in 2-d;
- a first window: the 1-d central relation, certified from N = 16 on, the
  whole block at N = 8 and 10;
- a second window, the whole block: the central relation at N = 10, 16 and 24;
- a dense solve of a block that is no narrow band: the 2-d [J, H], whose
  seam rows alone are solved at spacing 0.5, and whose rounding residue at
  spacings 0.013 and 7.1 spreads over most rows.

Rewrite the file after a deliberate change of a reported value with

    PYTHONPATH=src python tests/test_lattice_reference.py
"""

import json
import math
from pathlib import Path

from platevac import lattice as lat

REFERENCE = Path(__file__).parent / "reference" / "lattice_reports.json"

CENTRAL_CASES = [
    {"sites": n, "physical_size": size, "masses": [mass * 8.0 / size for mass in masses]}
    for n in (8, 10, 16, 24, 80, 2560)
    for size in (8.0, 1e-4, 8e6)
    for masses in ((math.pi, math.pi / 2), (2.0, 0.5))
]
CLOSURE_CASES = [
    *({"dims": 1, "sites": n, "spacing": 0.5, "mass": 1.0} for n in (8, 17)),
    *({"dims": 2, "sites": n, "spacing": a, "mass": mass}
      for n in (4, 8, 16, 17, 24) for a in (0.5, 0.013, 7.1) for mass in (0.0, 1.0)),
    *({"dims": 2, "sites": 64, "spacing": 0.5, "mass": mass} for mass in (0.0, 1.0)),
]


def central_report(case):
    n, size = case["sites"], case["physical_size"]
    geom = lat.LatticeGeometry(1, n, size / n, "open")
    return lat.verify_central_relation(geom, tuple(case["masses"]))


def closure_report(case):
    geom = lat.LatticeGeometry(case["dims"], case["sites"], case["spacing"], "periodic")
    return lat.verify_poincare_closure(geom, case["mass"])


def _mismatches(got, want, path=""):
    """The paths at which `got` differs from `want`: floats by more than 1e-12 relative."""
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [bad for key in want for bad in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} items != {len(want)}"]
        return [bad for i, (g, w) in enumerate(zip(got, want)) for bad in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        # a relative discrepancy is itself a rounding residue of order eps:
        # 1e-12 of it would ask for equal bits, so it is held to 1e-12 absolute
        scale = 1.0 if path.endswith("_rel") else abs(want)
        return [] if abs(got - want) <= 1e-12 * scale else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def test_lattice_reports_match_the_reference():
    reference = json.loads(REFERENCE.read_text())
    bad = []
    for kind, report in (("central", central_report), ("closure", closure_report)):
        for i, entry in enumerate(reference[kind]):
            bad += _mismatches(report(entry["case"]), entry["report"], f"{kind}[{i}]")
    assert not bad, bad[:20]


def main():
    reference = {
        "central": [{"case": case, "report": central_report(case)} for case in CENTRAL_CASES],
        "closure": [{"case": case, "report": closure_report(case)} for case in CLOSURE_CASES],
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
