"""habiro benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --replay .perfbench-work/RUN/tasks.json ...

Run from a checkout of the repository; habiro is imported from its `src/`.
Each pass runs the whole seeded task list in a fresh interpreter with a fresh
empty `--cache-dir`, with tracing off; passes repeat while the `--seconds`
budget allows, and the run reports medians over its passes.  Set-up is the
median time to import `habiro.cli` over several further fresh interpreters.
Times are reported at a fixed reference machine speed (see speed.py); the
raw times are printed beside them and kept in result.json.  With `--trace 1`
the run makes one untraced and one traced pass and reports the per-layer
metrics instead.  Every task's output is checked after the passes end.  The
last line of stdout is the JSON result.

Scratch files (task lists, results, spans, bytecode, caches) go under
`.perfbench-work/` at the root of the checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
PYCACHE = WORK / "pycache"
sys.pycache_prefix = str(PYCACHE)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from checks import Reference, check_task  # noqa: E402
from speed import REFERENCE_S  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import TAIL_BEYOND, WORKLOADS, generate  # noqa: E402

SRC = ROOT / "src"
TABLES = ROOT / "tests" / "data" / "reference_tables.json"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 8
PASS_TIMEOUT_S = 150
REFUSED = 3  # the worker's exit code when its isolation guard trips

END_TO_END_UNITS = {"wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class Refused(Exception):
    """The run would not be isolated, so it must not start."""


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-I", str(WORKER), str(SRC), str(PYCACHE), *args],
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode == REFUSED:
        raise Refused(proc.stderr.strip())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def setup_probe() -> tuple[float, float]:
    """Raw and speed-normalized time to import habiro.cli in a fresh interpreter."""
    probe = json.loads(_worker(["--setup-only"], 60).stdout)
    raw = probe["setup_s"]
    return raw, raw * REFERENCE_S / statistics.median(probe["reference_s"])


def run_pass(run_dir: Path, index: int, traced: bool) -> dict:
    """One pass of the task list in a fresh interpreter with a fresh cache."""
    cache_dir = Path(tempfile.mkdtemp(prefix=f"cache-{index}-", dir=run_dir))
    spec = {"tasks": str(run_dir / "tasks.json"), "cache_dir": str(cache_dir),
            "result": str(run_dir / f"pass-{index}.json")}
    if traced:
        spec["spans"] = str(run_dir / f"spans-{index}.jsonl")
    spec_path = run_dir / f"pass-{index}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        _worker([str(spec_path)], PASS_TIMEOUT_S)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["traced"] = traced
    return result


def tail(times: list[float]) -> float:
    """The task time with exactly TAIL_BEYOND tasks above it."""
    return sorted(times)[len(times) - 1 - TAIL_BEYOND]


def import_habiro() -> None:
    sys.path.insert(0, str(SRC))
    import habiro

    if SRC.resolve() / "habiro" not in Path(habiro.__file__).resolve().parents:
        raise Refused(f"habiro was imported from {habiro.__file__}, not from {SRC}")


def check_passes(tasks: list[dict], passes: list[dict]) -> tuple[int, list[str]]:
    """Number of failed task runs over all passes, and what went wrong."""
    import_habiro()
    ref = Reference(TABLES)
    failed, messages = 0, []
    for i, p in enumerate(passes):
        for task, outputs in zip(tasks, p["outputs"]):
            problems = check_task(task, outputs, ref)
            failed += bool(problems)
            messages += [f"pass {i} task {task['id']} ({' '.join(task['argv'][0])}): {problem}"
                         for problem in problems]
    return failed, messages


def _metric(name: str, value: float) -> dict:
    if name in END_TO_END_UNITS:
        unit = END_TO_END_UNITS[name]
    elif name.endswith("_s"):
        unit = "s"
    elif name.endswith("_bits"):
        unit = "bits"
    elif name.endswith(("share", "ratio")):
        unit = "ratio"
    else:
        unit = "count"
    return {"value": value, "unit": unit}


def normalized(p: dict) -> list[float]:
    """Task times at reference speed: each scaled by REFERENCE_S over the
    mean reference-loop time sampled while it ran (see speed.py)."""
    return [t * REFERENCE_S / r for t, r in zip(p["task_s"], p["reference_s"])]


def pass_figures(times: list[float]) -> dict[str, float]:
    return {"wall_s": sum(times), "task_p50_s": statistics.median(times), "task_tail_s": tail(times)}


def end_to_end(passes: list[dict], setups: list[tuple[float, float]],
               norm: bool = True) -> dict[str, float]:
    """Medians over passes; with norm False, the raw times."""
    figures = [pass_figures(normalized(p) if norm else p["task_s"]) for p in passes]
    out = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    out["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    out["setup_s"] = statistics.median(s[1] if norm else s[0] for s in setups)
    return out


def measure(args, run_dir: Path) -> tuple[list[dict], list[tuple[float, float]]]:
    """Set-up probes, then passes until the budget is spent (at least one)."""
    start = time.perf_counter()
    setup_probe()  # untimed: fills the bytecode cache so every probe reads it
    setups = [setup_probe() for _ in range(SETUP_PROBES // 2)]
    if args.trace:
        passes = [run_pass(run_dir, 0, False), run_pass(run_dir, 1, True)]
    else:
        passes, took = [], []
        while True:
            began = time.perf_counter()
            passes.append(run_pass(run_dir, len(passes), False))
            took.append(time.perf_counter() - began)
            if time.perf_counter() + max(took) > start + args.seconds:
                break
    setups += [setup_probe() for _ in range(SETUP_PROBES - len(setups))]
    return passes, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=Path, default=None,
                        help="run a recorded tasks.json instead of generating from --seed")
    args = parser.parse_args(argv)

    try:
        if not (SRC / "habiro" / "cli.py").is_file() or not TABLES.is_file():
            raise Refused(f"no habiro sources under {SRC} or no reference tables at {TABLES}")
        if args.replay is not None:
            tasks = json.loads(args.replay.read_text(encoding="utf-8"))
        else:
            tasks = generate(args.workload, args.seed)
        run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        (run_dir / "tasks.json").write_text(json.dumps(tasks, indent=1), encoding="utf-8")
        passes, setups = measure(args, run_dir)
        failed, failures = check_passes(tasks, passes)
    except Refused as err:
        print(f"perfbench: refused: {err}", file=sys.stderr)
        return 2

    timed = [p for p in passes if not p["traced"]]
    e2e = end_to_end(timed, setups)
    raw = end_to_end(timed, setups, norm=False)
    attempted = len(tasks) * len(passes)
    fail_rate = failed / attempted

    print(f"{args.workload} seed {args.seed}: {len(timed)} timed pass(es) of {len(tasks)} tasks"
          f" (times at reference speed; raw in brackets)")
    pct = 100 * (len(tasks) - TAIL_BEYOND) / len(tasks)
    notes = {"task_tail_s": f"p{pct:g} of {len(tasks)} tasks per pass",
             "setup_s": f"median of {len(setups)} fresh imports of habiro.cli"}
    for name, value in e2e.items():
        print(f"  {name:<12} {value:10.4f} {END_TO_END_UNITS[name]:<3} [{raw[name]:10.4f}] {notes.get(name, '')}")
    print(f"  {'fail_rate':<12} {fail_rate:10.4f} {'':<3} {failed} of {attempted} tasks failed")
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)

    if args.trace:
        traced = next(p for p in passes if p["traced"])
        metrics = layer_metrics(traced["trace"])
        metrics["trace.overhead_ratio"] = (sum(normalized(traced)) / sum(normalized(timed[0]))) - 1.0
        for name, value in sorted(metrics.items()):
            print(f"  {name:<30} {value:.6g}")
    else:
        metrics = e2e
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "passes": [{k: p[k] for k in ("task_s", "reference_s", "samples", "peak_rss_mb", "setup_s", "traced")}
                    for p in passes],
         "setup_probes": setups, "failures": failures, "raw": raw, "metrics": metrics}, indent=1),
        encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: _metric(k, v) for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
