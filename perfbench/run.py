"""lasergrav benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload var_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; lasergrav is imported from ``src/``.  One
client runs the workload's ops one after another, each a fresh process
(closed loop), repeating whole passes until ``--seconds`` have passed, at
least ``workloads.MIN_PASSES`` of them.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
the run makes one untraced and one traced pass and carries the per-layer
metrics.  Outputs, span files and the full result (seed, argv, environment,
failures) go to ``.perfbench_out/``.  ``--workload all`` runs every
workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT = ".perfbench_out"
SETUP_REPEATS = 3
OP_TIMEOUT_S = 150.0
# invariants of the seed code (ROADMAP, "Baseline"); a change that moves
# them on purpose shows here as a flagged mismatch, not as a failure
INVARIANTS = {"minimize_width_quads": 427, "critical_ratio_quads": 5389}
DETERMINISTIC_COUNTS = ("interaction.kernel_shape.points",
                        "variational.pair_interaction_integral.calls",
                        "gpe.solve_ground.iterations",
                        "gpe.solve_ground.rejected_steps")


class BenchError(Exception):
    """The benchmark cannot run here (no sources, import failure)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv: list[str], stdout: Path, stderr: Path) -> dict:
    """Run one process to completion; wall time, exit code, CPU, peak RSS."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "returncode": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "max_rss_mb": usage.ru_maxrss / 1024.0}


def measure_setup(work: Path) -> float:
    """Median time from a fresh interpreter to ``import lasergrav.cli`` done."""
    probe = [sys.executable, "-c",
             "import lasergrav.cli, sys; sys.stdout.write(lasergrav.__file__)"]
    warm = run_process(probe, work / "setup.out", work / "setup.err")
    where = (work / "setup.out").read_text(encoding="utf-8", errors="replace")
    if warm["returncode"] != 0 \
            or not Path(where).resolve().is_relative_to(ROOT / "src"):
        raise BenchError("cannot import lasergrav from src/: "
                         + (work / "setup.err").read_text(errors="replace")[-500:])
    times = [run_process(probe, work / "setup.out", work / "setup.err")["wall_s"]
             for _ in range(SETUP_REPEATS)]
    return statistics.median(times)


def op_command(op: workloads.Op, span_path: Path | None) -> list[str]:
    if span_path is None and op.kind == "cli":
        return [sys.executable, "-m", "lasergrav.cli", *op.argv]
    cmd = [sys.executable]
    if span_path is not None:
        cmd += ["-X", "importtime"]
    cmd.append(str(HERE / "runop.py"))
    if span_path is not None:
        cmd += ["--spans", str(span_path)]
    if op.kind == "cli":
        cmd.append("cli")
    return cmd + list(op.argv)


def run_pass(ops, work: Path, traced: bool) -> dict:
    """One pass of the workload; every op checked by its oracle.  The pass
    wall time is the sum of the op wall times: the checks are untimed."""
    ctx, records, traces = {}, [], []
    for i, op in enumerate(ops):
        span_path = work / f"op{i}.spans.json" if traced else None
        stderr = work / f"op{i}.err"
        rec = run_process(op_command(op, span_path), work / f"op{i}.out", stderr)
        problems = oracles.check(op, rec["returncode"], ROOT, ctx)
        rec.update(op=op.name, ok=not problems,
                   problems=[{"defect": p.defect, "message": p.message}
                             for p in problems])
        records.append(rec)
        if traced and span_path.is_file():
            data = json.loads(span_path.read_text(encoding="utf-8"))
            data["op"] = op.name
            data["scipy_interpolate_s"] = spans.import_time(
                stderr.read_text(errors="replace"), "scipy.interpolate")
            traces.append(data)
            span_path.unlink()
    return {"wall_s": sum(rec["wall_s"] for rec in records), "ops": records,
            "traces": traces}


def end_to_end(setup_s: float, passes: list[dict]) -> dict:
    ops = [rec for p in passes for rec in p["ops"]]
    failed = sum(not rec["ok"] for rec in ops)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(rec["wall_s"] for rec in ops),
        "ok_frac": 1.0 - failed / len(ops),
        "peak_rss_mb": max(rec["max_rss_mb"] for rec in ops),
    }


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    traces = traced["traces"]
    if not traces:
        raise BenchError("the traced pass wrote no spans")
    m, quads = spans.layer_metrics(traces)
    m["setup.import_scipy_interpolate_s"] = statistics.median(
        t["scipy_interpolate_s"] for t in traces)
    m["proc.cpu_s"] = sum(rec["cpu_s"] for rec in traced["ops"])
    m["proc.max_rss_mb"] = max(rec["max_rss_mb"] for rec in traced["ops"])
    m["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return m, quads


def invariants(quads: dict) -> dict:
    """Check the trace against the ROADMAP quadrature counts: 427 per bound
    minimize_width (one candidate) and 5,389 per critical ratio."""
    out = {}
    bound = [q for q, ok in quads["variational.minimize_width"] if ok]
    if bound:
        mode = statistics.mode(bound)
        out["minimize_width_quads"] = {
            "expected": INVARIANTS["minimize_width_quads"], "observed": mode,
            "ok": mode == INVARIANTS["minimize_width_quads"]}
    crit = [q for q, _ in quads["variational.critical_intensity_ratio"]]
    if crit:
        out["critical_ratio_quads"] = {
            "expected": INVARIANTS["critical_ratio_quads"], "observed": crit,
            "ok": all(q == INVARIANTS["critical_ratio_quads"] for q in crit)}
    return out


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def determinism(workload: str, seed: int, metrics: dict) -> dict:
    """Compare the work counts with an earlier traced run of the same seed
    and sources, if one was recorded in this checkout."""
    counts = {k: metrics[k] for k in DETERMINISTIC_COUNTS}
    store = ROOT / OUT / f"counts-{workload}-seed{seed}.json"
    fingerprint = source_fingerprint()
    if store.is_file():
        before = json.loads(store.read_text(encoding="utf-8"))
        if before["fingerprint"] == fingerprint:
            diff = {k: [before["counts"][k], v] for k, v in counts.items()
                    if before["counts"].get(k) != v}
            return {"status": "mismatch" if diff else "match", "diff": diff}
    store.write_text(json.dumps({"fingerprint": fingerprint, "counts": counts}),
                     encoding="utf-8")
    return {"status": "first", "diff": {}}


def _openblas_threads():
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    """What a result depends on besides the code: machine and library builds."""
    import numpy
    import scipy
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "source_fingerprint": source_fingerprint(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 bench: dict) -> dict:
    work = ROOT / OUT / f"{workload}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.generate(workload, seed, work.relative_to(ROOT).as_posix())
    setup_s = measure_setup(work)
    passes = []
    min_passes = 1 if trace else workloads.MIN_PASSES[workload]
    t0 = time.perf_counter()
    while len(passes) < min_passes \
            or (not trace and time.perf_counter() - t0 < seconds):
        passes.append(run_pass(ops, work, traced=False))
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace),
              "argv": [{"op": op.name, "kind": op.kind, "argv": list(op.argv)}
                       for op in ops],
              "environment": environment()}
    if trace:
        traced = run_pass(ops, work, traced=True)
        values, quads = per_layer(passes[0], traced)
        passes.append(traced)
        result["missing_targets"] = sorted({m for t in traced["traces"]
                                            for m in t["missing"]})
        result["invariants"] = invariants(quads)
        result["determinism"] = determinism(workload, seed, values)
        span_file = ROOT / OUT / f"spans-{workload}-seed{seed}.jsonl"
        spans.write_spans(span_file, traced["traces"])
        result["span_file"] = span_file.relative_to(ROOT).as_posix()
        wanted = bench["per_layer"]
    else:
        values = end_to_end(setup_s, passes)
        wanted = bench["end_to_end"]
    records = [rec for p in passes for rec in p["ops"]]
    failures = [dict(op=r["op"], **p) for r in records for p in r["problems"]]
    result.update(
        passes=[{"wall_s": p["wall_s"], "ops": p["ops"]} for p in passes],
        failures=failures,
        correct=all(f["defect"] is not None for f in failures),
        attempted=len(records),
        failed=sum(not r["ok"] for r in records),
        metrics={m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                 for m in wanted})
    path = ROOT / OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict) -> None:
    """Human-readable lines; the JSON line follows separately."""
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {len(result['passes'])} pass(es), "
          f"{result['attempted']} ops")
    for entry in result["argv"]:
        print(f"  argv {entry['op']}: {' '.join(entry['argv'])}")
    for f in result["failures"]:
        kind = f"known {f['defect']}" if f["defect"] else "UNEXPECTED"
        print(f"  failed {f['op']} [{kind}]: {f['message']}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        print(f"  {'fail_frac':48s} {result['failed'] / result['attempted']:.6g} "
              f"frac ({result['failed']}/{result['attempted']} ops)")
    for key in ("missing_targets", "invariants", "determinism"):
        if key in result:
            print(f"  {key}: {json.dumps(result[key])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "lasergrav" / "__init__.py").is_file():
            raise BenchError("no lasergrav sources under src/; run from the "
                             "root of a lasergrav checkout")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), bench))
            report(results[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
