"""Output audit against another checkout, ``python tests/byte_audit.py PARENT``: the README
examples, the ``gpe`` case matrix (ROADMAP item 1's 30 Hz case among them), three commands
where the TF energy's terms cancel near threshold and every benchmark op at seeds 1 and 2,
each run in a fresh directory of both trees.  Prints ``same`` where exit code, streams and
files match byte for byte, else the moved numeric cells with their move relative to the
largest magnitude in their column (a CSV column, a JSON key) and to themselves: every cell
of a JSON output (a ``.json`` file or a stream holding JSON), then the 12 largest others."""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE / "perfbench"))
import workloads  # noqa: E402

README = """catalog|potential --samples 600 --out u.csv|threshold --species Na --static
threshold --species Na|fig1a --out fig1a.csv|fig1b --ratios 1.1:5:0.1 --out fig1b.csv
width-sweep --ratios 1.1:5:0.1|phase-map --out map.csv|fig2 --out fig2.csv
gpe --species Na --ratio 1.5 --atoms 1e4 --n 512 --profile prof.csv
losses --species Na --ratio 1.5 --n 40|atom-count --wavelength 589e-9 --rho-peak 1e21 --ratio 1.5
atom-count --wavelength 589e-9 --rho-peak 1e22 --ratio 1.5 --self-consistent"""
GPE = ["--ratio 1.34 --atoms 1000 --trap 188.49555921538757", "--ratio 1.01 --atoms 1e7",
       "--ratio 1.001 --atoms 1e8", "--ratio 1.0001 --atoms 1e9", "--ratio 100 --atoms 1e5",
       "--ratio 1.5 --atoms 1e4 --kernel newton", "--trap 100 --ratio 0.5 --atoms 1e4"]
NEAR = ["width-sweep --ratios 1.000000000001 --atoms 1e8",
        "width-sweep --no-tf --ratios 1.0000000000000002,1.000001 --atoms 1e30",
        "fig1a --ratios 1,1.00001 --wmin 100 --wmax 1e5 --samples 5"]
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def commands():
    yield from (("cli", line.split()) for line in README.replace("\n", "|").split("|"))
    yield from (("cli", ["gpe", "--species", "Na", *case.split()]) for case in GPE)
    yield from (("cli", case.split()) for case in NEAR)
    for seed in (1, 2):
        for workload in workloads.WORKLOADS:
            yield from ((op.kind, op.argv) for op in workloads.generate(workload, seed, "."))


def run(tree: Path, kind: str, argv) -> dict:
    """Every output of one command, by name: exit code, streams and files."""
    script = ["-m", "lasergrav.cli"] if kind == "cli" else [str(tree / "perfbench/runop.py")]
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, *script, *argv], cwd=cwd, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(tree / "src")})
        files = {p.name: p.read_text() for p in sorted(Path(cwd).iterdir())}
    return {"exit": str(proc.returncode), "stdout": proc.stdout, "stderr": proc.stderr, **files}


def moved_cells(old: dict, new: dict) -> list:
    """(where, old, new, move in its column, move of itself) per numeric cell
    that differs, largest first; ValueError where the text around differs."""
    cells, scale = [], {}
    for name in sorted(old.keys() | new.keys()):
        a_lines, b_lines = old.get(name, "").splitlines(), new.get(name, "").splitlines()
        if name not in old or name not in new or len(a_lines) != len(b_lines):
            raise ValueError(f"{name}: missing, or line counts differ")
        for i, (a, b) in enumerate(zip(a_lines, b_lines), 1):
            a, b = NUMBER.split(a), NUMBER.split(b)
            if a[::2] != b[::2]:
                raise ValueError(f"{name}:{i}: {''.join(a)!r} -> {''.join(b)!r}")
            for j, (x, y) in enumerate(zip(a[1::2], b[1::2])):
                key, fx, fy = (name, tuple(a[::2]), j), float(x), float(y)
                scale[key] = max(scale.get(key, 0.0), abs(fx), abs(fy))
                move = (abs(fx - fy), max(abs(fx), abs(fy)) or 1.0)
                cells += [(f"{name}:{i}", x, y, key, *move)] if x != y else []
    return sorted(((w, x, y, d / (scale[k] or 1.0), d / m) for w, x, y, k, d, m in cells),
                  key=lambda cell: -cell[3])


if __name__ == "__main__":  # not collected by pytest
    for kind, argv in commands():
        label, parent = " ".join(argv), Path(sys.argv[1]).resolve()
        old, new = run(parent, kind, argv), run(HERE, kind, argv)
        try:
            cells = moved_cells(old, new)
        except ValueError as exc:
            print(f"{label}: text differs: {exc}")
            continue
        print(f"{label}: {len(cells)} cells moved" if cells else f"{label}: same")
        # a profile's rounding-level cells cannot hide a moved iteration count or radius
        json_out = {name for name, text in new.items()
                    if name.endswith(".json") or text.startswith("{")}
        first = [cell for cell in cells if cell[0].rsplit(":", 1)[0] in json_out]
        rest = [cell for cell in cells if cell[0].rsplit(":", 1)[0] not in json_out]
        for where, x, y, column, itself in first + rest[:12]:
            print(f"    {where} {x} -> {y} (column {column:.2g}, itself {itself:.2g})")
