"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 15 --trace 0

The command starts fresh interpreters one after another:
``SETUP_SAMPLES - 1`` set-up probes, then the worker that measures
(``perfbench/measure.py``). Each imports ``repro`` from ``src/``,
generates its inputs from the seed and makes one warm-up call on a small
instance of the same shape; the time from its start to that point is a
``setup_s`` sample. The worker then repeats the workload's public call,
one call in flight, until ``--seconds`` have passed, checking every
output row. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced calls and prints the per-layer metrics.
The last line of standard output is one JSON object.

Every child gets fresh temporary directories for the codegen cache and
for each catalog store, under ``.perfbench-out/`` in the checkout, and
they are removed before the command exits. Traced runs write their
spans to ``.perfbench-out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5
READY = "perfbench-ready"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "probe", "worker"),
                        default="main", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def spawn(args, role: str, scratch: Path):
    """Start one child; returns ``(process, setup seconds)`` once the
    child has printed its ready line."""
    child_scratch = Path(tempfile.mkdtemp(prefix=f"{role}-", dir=scratch))
    env = dict(os.environ)
    env.pop("REPRO_CODE_VERSION", None)
    env["REPRO_CODEGEN_CACHE"] = str(child_scratch / "codegen")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--role", role, "--scratch", str(child_scratch)]
    t0 = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               env=env, cwd=ROOT)
    line = process.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != READY:
        process.communicate()
        raise RuntimeError(f"{role} exited before set-up finished "
                           f"(code {process.returncode})")
    return process, setup_s


def orchestrate(args) -> int:
    """Collect set-up samples, run the worker, print the result line."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    process = None
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                process, seconds = spawn(args, "probe", scratch)
                process.communicate()
                if process.returncode != 0:
                    return 1
                setup.append(seconds)
        process, seconds = spawn(args, "worker", scratch)
        setup.append(seconds)
        lines = process.communicate()[0].splitlines()
        if process.returncode != 0 or not lines:
            return 1
        result = json.loads(lines[-1])
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if process is not None and process.poll() is None:
            process.kill()
            process.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
        print(f"setup samples (s): {[round(s, 4) for s in setup]}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<26} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    if args.role == "main":
        return orchestrate(args)
    from perfbench.measure import work
    return work(args, READY, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
