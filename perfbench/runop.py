"""Runs one lasergrav op in this process, for the benchmark harness.

    python perfbench/runop.py [--spans PATH] critical-ratio \\
        --species Na --wavelength M --atoms N --out PATH
    python perfbench/runop.py [--spans PATH] cli ARGV...

``critical-ratio`` calls the library-only ``critical_intensity_ratio`` and
writes ``{"ratio": ...}`` as JSON.  ``cli`` runs the lasergrav CLI on ARGV,
exactly as ``python -m lasergrav.cli ARGV``.  With ``--spans`` every
function in ``spans.TARGETS`` is wrapped before the op runs and the spans,
the import time of ``lasergrav.cli`` and any missing target names are
written to PATH as JSON.  The exit code is the op's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None)
    sub = parser.add_subparsers(dest="op", required=True)
    crit = sub.add_parser("critical-ratio")
    crit.add_argument("--species", required=True)
    crit.add_argument("--wavelength", type=float, required=True)
    crit.add_argument("--atoms", type=float, required=True)
    crit.add_argument("--out", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import lasergrav.cli
    import_s = time.perf_counter() - t0

    recorder, missing = None, []
    if args.spans:
        import spans
        recorder = spans.Recorder()
        missing = spans.install(recorder, sys.modules)
    try:
        if args.op == "cli":
            code = lasergrav.cli.run(args.argv)
        else:
            species = lasergrav.catalog_lookup(args.species)
            ratio = lasergrav.variational.critical_intensity_ratio(
                species, args.wavelength, n_atoms=args.atoms, use_detuned=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"ratio": ratio}, fh)
            code = 0
    except lasergrav.LaserGravError as exc:
        print(f"runop: {exc}", file=sys.stderr)
        code = 1
    finally:
        if recorder is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"import_s": import_s, "missing": missing,
                           "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
