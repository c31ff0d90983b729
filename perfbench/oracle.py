"""Output checks: every CSV row against the values recorded at the seed, plus
physical checks that hold whatever the reference says.

A case is one mesh size of one invocation, i.e. one CSV row.  It fails when
its row is missing, a checked cell misses the reference, it fails a physical
check, or its invocation raised or exited non-zero.  ``reference.json`` also
records which cases already failed when it was made; those still count as
failed, but only a failure of a case that passed then is a regression.
"""

import json
import math
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

# Cells compared with the reference.  dofs must match exactly; the others to
# REL_TOL, which is tight enough to expose a solution that moves by more than
# the 1e-10 allowed for a faster but equivalent implementation.
FLOAT_CELLS = ("err_l2", "err_h1", "err_triple", "err_p_l2", "qoi", "beta_h",
               "korn_h")
REL_TOL = 1e-9

# Cook membrane at E=250, nu=0.4999: the tip deflection of the P1 n=128 mesh
# (weak boundary conditions) and the allowed relative distance from it.
COOK_TIP = 124.09
COOK_TIP_TOL = 0.2


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _number(cell):
    return float(cell) if cell != "" else None


def physical_problems(argv, row):
    """Physical checks on one CSV row; returns a list of problems."""
    problems = []
    for name in FLOAT_CELLS:
        value = _number(row.get(name, ""))
        if value is None:
            continue
        if not math.isfinite(value):
            problems.append(f"{name} is {value}")
        elif name != "qoi" and value <= 0.0:
            problems.append(f"{name} = {value} is not positive")
    if "nearly_incompressible" in argv:
        tip = _number(row.get("qoi", ""))
        if tip is None or not (tip > 0.0 and abs(tip - COOK_TIP) <= COOK_TIP_TOL * COOK_TIP):
            problems.append(f"Cook tip {tip} not positive and within "
                            f"{COOK_TIP_TOL:.0%} of {COOK_TIP}")
    return problems


def reference_problems(expected, row):
    problems = []
    if row.get("dofs", "") != expected["dofs"]:
        problems.append(f"dofs {row.get('dofs')!r} != {expected['dofs']!r}")
    for name in FLOAT_CELLS:
        got, want = _number(row.get(name, "")), _number(expected[name])
        if (got is None) != (want is None) or (
                want is not None and not abs(got - want) <= REL_TOL * abs(want)):
            problems.append(f"{name} {got!r} != reference {want!r}")
    return problems


def check_invocation(argv, result, expected_rows):
    """One verdict per expected case: ``(problems, failed_at_seed)``."""
    verdicts = []
    rows = result["rows"]
    for j, expected in enumerate(expected_rows):
        problems = []
        if result["code"] != 0:
            outcome = "raised" if result["code"] is None else f"exited {result['code']}"
            problems.append(f"invocation {outcome}: {result['error']}")
        if j >= len(rows):
            problems.append("row missing")
        else:
            problems += reference_problems(expected, rows[j])
            problems += physical_problems(argv, rows[j])
        verdicts.append((problems, expected["failed_at_seed"]))
    if len(rows) > len(expected_rows):
        verdicts.append(([f"{len(rows) - len(expected_rows)} unexpected rows"], False))
    return verdicts


def reference_rows(argv, result):
    """Reference entries for one invocation's rows, as recorded."""
    rows = []
    for row in result["rows"]:
        failed = result["code"] != 0 or bool(physical_problems(argv, row))
        rows.append({"dofs": row["dofs"],
                     **{name: row[name] for name in FLOAT_CELLS},
                     "failed_at_seed": failed})
    return rows
