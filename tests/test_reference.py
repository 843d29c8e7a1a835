from weightpoly import reference
from weightpoly.reference import reference_battery


def test_battery_all_pass():
    report = reference_battery()
    assert report.all_pass
    assert len(report.claims) == 13
    ids = [c.claim_id for c in report.claims]
    assert len(ids) == len(set(ids))


def test_battery_detects_tampered_input(monkeypatch):
    _, expected = reference._VERTEX_CLAIMS["pentagon-vertices"]
    monkeypatch.setitem(reference._VERTEX_CLAIMS, "pentagon-vertices",
                        ((3, 3, 3, 3, 5), expected))
    report = reference_battery()
    failing = [c.claim_id for c in report.claims if not c.passed]
    assert failing == ["pentagon-vertices"]
    assert not report.all_pass


def test_battery_json_shape():
    d = reference_battery().to_json_dict()
    assert {"claim", "expected", "computed", "pass"} <= set(d["claims"][0])
