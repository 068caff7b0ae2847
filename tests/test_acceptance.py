"""The acceptance gate: every criterion of the verification suite must
pass, one reported line per criterion, and keep its graphs and detail."""

import pytest

from bel.suite import CRITERIA, run_criterion
from test_decomp import NET_WITNESS

# each criterion's detail: its corpus sizes, mismatch counts and witness
DETAILS = {
    1: "797 graphs checked, 0 mismatches",
    2: "31 graphs checked, 0 mismatches",
    3: "772 graphs checked, 0 disagreements",
    4: "11 graphs at t=2,3, 0 inequalities",
    5: "14 caterpillars; all good",
    6: "witness " + NET_WITNESS,
    7: "17 graphs; all good",
    8: "208 atlas graphs, 0 mismatches; 0 corpus mismatches; net complement comparability: False",
    9: "all properties hold",
}


@pytest.mark.parametrize("cid", range(1, len(CRITERIA) + 1))
def test_criterion(cid, capsys):
    result = run_criterion(cid)
    with capsys.disabled():
        print(f"\n[{result.status}] {result.cid}: {result.name} "
              f"({result.seconds:.1f}s) - {result.detail}")
    assert result.passed, f"criterion {result.cid} failed: {result.detail}"
    assert result.detail == DETAILS[result.cid]
