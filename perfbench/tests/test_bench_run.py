"""End-to-end metric arithmetic of the harness."""

import pytest

import run


def _op(wall, ok=True, rss=90.0):
    return {"wall_s": wall, "ok": ok, "max_rss_mb": rss}


def test_end_to_end_medians_and_op_count():
    passes = [{"wall_s": 10.0, "ops": [_op(1.0), _op(3.0), _op(8.0, ok=False)]},
              {"wall_s": 14.0, "ops": [_op(2.0), _op(4.0, rss=120.0), _op(9.0)]}]
    m = run.end_to_end(0.9, passes)
    assert m["setup_s"] == 0.9
    assert m["wall_s"] == pytest.approx(12.0)      # median of pass walls
    assert m["op_p50_s"] == pytest.approx(3.5)     # median of all 6 ops
    assert m["ok_frac"] == pytest.approx(5 / 6)
    assert m["peak_rss_mb"] == 120.0


def test_invariants_flag_a_changed_quadrature_count():
    mw, cir = "variational.minimize_width", "variational.critical_intensity_ratio"
    ok = run.invariants({mw: [(400, False), (427, True), (427, True), (454, True)],
                         cir: [(5389, None)]})
    assert ok["minimize_width_quads"]["ok"] and ok["critical_ratio_quads"]["ok"]
    moved = run.invariants({mw: [(31, True), (31, True)], cir: [(5000, None)]})
    assert moved["minimize_width_quads"]["observed"] == 31
    assert not moved["minimize_width_quads"]["ok"]
    assert not moved["critical_ratio_quads"]["ok"]
    assert run.invariants({mw: [(400, False)], cir: []}) == {}
