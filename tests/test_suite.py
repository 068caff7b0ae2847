from bel import suite
from bel.suite import CriterionResult


def test_quick_mode_skips_without_running(monkeypatch):
    calls = []

    def slow():
        """a slow criterion"""
        calls.append("slow")
        return CriterionResult(1, "slow", True, 0.0)

    def fast():
        """a fast criterion"""
        calls.append("fast")
        return CriterionResult(2, "fast", True, 0.0)

    monkeypatch.setattr(suite, "ALL_CRITERIA", [slow, fast])
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


def test_timed_catches_exceptions():
    def boom():
        raise RuntimeError("kaput")

    r = suite._timed(9, "explodes", boom)
    assert not r.passed and "kaput" in r.detail


def test_quick_skip_carries_the_full_run_name(monkeypatch):
    """A --quick skip carries the id and name that criterion 6 hands to
    _timed, read without running the net's t=2 verdict."""
    handed = []
    monkeypatch.setattr(suite, "_timed", lambda cid, name, fn: handed.append((cid, name)))
    suite.criterion_net_negative()

    def stub():
        return CriterionResult(0, "stub", True, 0.0)

    monkeypatch.setattr(suite, "ALL_CRITERIA",
                        [fn if fn is suite.criterion_net_negative else stub
                         for fn in suite.ALL_CRITERIA])
    quick = suite.run_suite(quick=True)
    assert quick[5].skipped
    assert handed == [(6, quick[5].name)]
    assert quick[5].name == "net graph: powers differ at t=2 with verified witness"
