from bel import suite
from bel.suite import CriterionResult


def test_quick_mode_skips_without_running(monkeypatch):
    calls = []

    def slow():
        """a slow criterion"""
        calls.append("slow")
        return True, ""

    def fast():
        """a fast criterion"""
        calls.append("fast")
        return True, ""

    monkeypatch.setattr(suite, "CRITERIA", (("slow", slow), ("fast", fast)))
    monkeypatch.setattr(suite, "QUICK_SKIP", {1})
    results = suite.run_suite(quick=True)
    assert calls == ["fast"]
    assert results[0].skipped and results[0].status == "SKIP"
    assert results[1].status == "PASS"
    full = suite.run_suite()
    assert calls == ["fast", "slow", "fast"]
    assert all(r.status == "PASS" for r in full)


def test_result_json_shape():
    r = CriterionResult(3, "name", False, 1.25, "detail")
    d = r.to_json()
    assert d == {"id": 3, "name": "name", "status": "FAIL",
                 "seconds": 1.25, "detail": "detail"}


def test_timed_catches_exceptions(monkeypatch):
    """run_criterion turns a crash into a failure that names its cause."""
    def boom():
        raise RuntimeError("kaput")

    monkeypatch.setattr(suite, "CRITERIA", (("explodes", boom),))
    r = suite.run_criterion(1)
    assert (r.cid, r.name, r.passed, r.detail) == (1, "explodes", False, "error: kaput")


def test_quick_skip_carries_the_full_run_name(monkeypatch):
    """A --quick run of the real table calls no check of QUICK_SKIP, so
    not criterion 6's net t=2 verdict, and its skipped entry carries the
    id and name that a full run of that row reports."""
    assert suite.QUICK_SKIP == {6} and suite.CRITERIA[5][1] is suite._net_negative
    called = []

    def stub_for(cid):
        return lambda: called.append(cid) or (True, "")

    monkeypatch.setattr(suite, "CRITERIA", tuple(
        (name, stub_for(cid)) for cid, (name, _) in enumerate(suite.CRITERIA, start=1)))
    quick = suite.run_suite(quick=True)
    assert called == [1, 2, 3, 4, 5, 7, 8, 9]
    assert [r.skipped for r in quick] == [cid == 6 for cid in range(1, 10)]
    full = suite.run_criterion(6)
    assert (quick[5].cid, quick[5].name) == (full.cid, full.name) == (
        6, "net graph: powers differ at t=2 with verified witness")
