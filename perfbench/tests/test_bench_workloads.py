"""Seeded generator and oracle classification."""

import math

import oracles
import workloads


def test_same_seed_same_argv_and_other_seeds_differ():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7, "out")
        b = workloads.generate(name, 7, "out")
        c = workloads.generate(name, 8, "out")
        assert [op.argv for op in a] == [op.argv for op in b]
        assert [op.argv for op in a] != [op.argv for op in c]
        assert [op.name for op in a] == [op.name for op in c]


def test_var_sweep_draws_one_ratio_per_decade_up_to_the_known_defect():
    for seed in range(20):
        fig1b = workloads.generate("var_sweep", seed, "out")[0]
        ratios = fig1b.params["ratios"]
        decades = [math.floor(math.log10(r - 1.0)) for r in ratios]
        assert decades == list(range(-3, 4))
        assert ratios[-1] >= oracles.KNOWN_GRID_FLOOR_RATIO


def test_gpe_draws_stay_in_the_narrow_band():
    for seed in range(20):
        ops = workloads.generate("gpe_solve", seed, "out")
        argv = ops[1].argv
        ratio = float(argv[argv.index("--ratio") + 1])
        atoms = float(argv[argv.index("--atoms") + 1])
        assert 1.9 <= ratio <= 2.0 and 0.95e5 <= atoms <= 1.05e5
        assert [op.params.get("n") for op in ops] == [None, 512, 1024, 512]


def test_unbound_is_a_known_defect_only_above_the_grid_floor():
    assert oracles._unbound(600.0, "x").defect == oracles.ROADMAP_2
    assert oracles._unbound(100.0, "x").defect is None


def test_fig1b_oracle_on_parsed_values(tmp_path):
    op = workloads.Op("fig1b", (), params={"ratios": [1.5, 50.0, 300.0, 900.0],
                                          "out": "f.csv"})
    rows = ["ratio,w_star,bound",
            "1.5e+00,3.49e-01,true", "5.0e+01,3.3956e-02,true",
            "3.0e+02,1.4130e-02,true", "9.0e+02,nan,false"]
    (tmp_path / "f.csv").write_text("\n".join(rows) + "\n")
    ctx = {}
    problems = oracles.check(op, 0, tmp_path, ctx)
    assert [p.defect for p in problems] == [oracles.ROADMAP_2]
    assert set(ctx["tf_width"]) == {1.5, 50.0, 300.0}

    # a bound state lost below the grid floor is not a known defect
    (tmp_path / "f.csv").write_text("\n".join(rows[:2] + ["5.0e+01,nan,false"]) + "\n")
    op = workloads.Op("fig1b", (), params={"ratios": [1.5, 50.0], "out": "f.csv"})
    assert [p.defect for p in oracles.check(op, 0, tmp_path, {})] == [None]


def test_nonzero_exit_and_unreadable_output_are_failures(tmp_path):
    op = workloads.Op("critical_ratio", (), kind="lib",
                      params={"out": "missing.json"})
    assert oracles.check(op, 1, tmp_path, {})[0].message == "exit code 1"
    assert "unreadable" in oracles.check(op, 0, tmp_path, {})[0].message
