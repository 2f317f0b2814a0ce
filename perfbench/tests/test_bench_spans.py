"""Span arithmetic and outside-in wrapping."""

import types

import pytest

import spans


def _span(sid, parent, name, start, end, **extra):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, **extra}


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(0, None, "cli.run", 0.0, 10.0),
        _span(1, 0, "variational.minimize_width", 1.0, 9.0),
        _span(2, 1, "variational.pair_interaction_integral", 2.0, 5.0),
        _span(3, 2, "interaction.kernel_shape", 2.5, 4.5),
        _span(4, 1, "variational.pair_interaction_integral", 6.0, 8.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 2.0, 1: 3.0, 2: 1.0, 3: 2.0, 4: 2.0})
    # self times of a tree add up to the root's duration
    assert sum(own.values()) == pytest.approx(10.0)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered(0.0, 10.0, [(1, 3), (2, 4), (6, 7)]) == pytest.approx(4.0)
    assert spans.covered(0.0, 10.0, [(-2, 1), (9, 12)]) == pytest.approx(2.0)
    assert spans.covered(0.0, 10.0, []) == 0.0


def test_quadratures_are_counted_under_every_enclosing_span():
    tree = [_span(0, None, "variational.critical_intensity_ratio", 0, 10)]
    for m in range(2):
        mid = len(tree)
        tree.append(_span(mid, 0, "variational.minimize_width", m * 5, m * 5 + 4,
                          bound=bool(m)))
        for q in range(3 + m):
            tree.append(_span(len(tree), mid,
                              "variational.pair_interaction_integral", 0, 0))
    counts = spans.quads_per_span(tree)
    assert counts["variational.minimize_width"] == [(3, False), (4, True)]
    assert counts["variational.critical_intensity_ratio"] == [(7, None)]


def _fake_package(monkeypatch):
    def kernel_shape(r_tilde):
        return [-1.0 / r for r in r_tilde]

    def total_energy(w):
        return sum(interaction.kernel_shape([w, 2 * w]))

    interaction = types.ModuleType("lasergrav.interaction")
    interaction.kernel_shape = kernel_shape
    variational = types.ModuleType("lasergrav.variational")
    variational.kernel_shape = kernel_shape   # bound by "from ... import"
    variational.total_energy = total_energy
    modules = {"lasergrav": types.ModuleType("lasergrav"),
               "lasergrav.interaction": interaction,
               "lasergrav.variational": variational,
               "numpy": types.ModuleType("numpy")}
    modules["numpy"].kernel_shape = kernel_shape  # not ours: left alone
    return modules


def test_install_wraps_every_binding_and_reports_missing_names(monkeypatch):
    modules = _fake_package(monkeypatch)
    recorder = spans.Recorder()
    missing = spans.install(recorder, modules, targets=(
        ("interaction", "kernel_shape"), ("variational", "total_energy"),
        ("variational", "minimize_width"), ("gpe", "solve_ground")))
    assert missing == ["variational.minimize_width", "gpe.solve_ground"]
    assert modules["lasergrav.variational"].kernel_shape \
        is modules["lasergrav.interaction"].kernel_shape
    assert modules["numpy"].kernel_shape.__name__ == "kernel_shape"
    assert not hasattr(modules["numpy"].kernel_shape, "__wrapped__")

    assert modules["lasergrav.variational"].total_energy(1.0) == -1.5
    names = [(s["name"], s["parent"], s.get("points")) for s in recorder.spans]
    assert names == [("variational.total_energy", None, None),
                     ("interaction.kernel_shape", 0, 2)]


def test_solve_ground_hook_counts_accepted_steps_and_chains_the_callers():
    def solve_ground(cfg, grid, w_init=None, on_step=None):
        for i in range(5):
            if i != 2:   # one rejected step
                on_step(i, 0.0, 0.0)
        return types.SimpleNamespace(iterations=5,
                                     grid=types.SimpleNamespace(n_points=512))

    seen = []
    recorder = spans.Recorder()
    wrapped = recorder.wrap("gpe.solve_ground", solve_ground)
    wrapped(types.SimpleNamespace(kernel="full"), "grid",
            on_step=lambda *a: seen.append(a[0]))
    span = recorder.spans[0]
    assert (span["iterations"], span["accepted"], span["n_points"]) == (5, 4, 512)
    assert seen == [0, 1, 3, 4]

    metrics, _ = spans.layer_metrics([{"import_s": 0.5, "spans": recorder.spans}])
    assert metrics["gpe.solve_ground.rejected_steps"] == 1
    assert metrics["gpe.solve_ground.iterations_n512"] == 5
    assert metrics["gpe.solve_ground.iterations_n1024"] == 0


def test_a_raising_call_still_closes_its_span():
    recorder = spans.Recorder()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("cli.run", boom)()
    assert recorder.spans[0]["error"] and recorder.spans[0]["end"] is not None


def test_import_time_reads_cumulative_microseconds():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        130 |   scipy.interpolate._fitpack\n"
            "import time:      2000 |     543210 | scipy.interpolate\n"
            "lasergrav: some error\n")
    assert spans.import_time(text, "scipy.interpolate") == pytest.approx(0.54321)
    assert spans.import_time(text, "lasergrav") == 0.0
