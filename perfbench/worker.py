"""One pass of a task list in a fresh interpreter.

    python3 -I worker.py SRC PYCACHE_DIR PASS_JSON
    python3 -I worker.py SRC PYCACHE_DIR --setup-only

PASS_JSON names the task file, the pass's fresh cache directory, the result
file and, for a traced pass, the span file.  Bytecode goes to PYCACHE_DIR, so
nothing is written next to the sources.

The worker times `import habiro.cli` (set-up) between reference-loop samples,
refuses to run unless habiro comes from SRC and every command's cache resolves
to the fresh directory, then runs each task through `habiro.cli.main(argv)`
with stdout and stderr captured while a SpeedSampler records the machine's
speed.  It writes the outputs, each task's time and the reference-loop time
during it to the result file; the caller normalizes the times and checks the
outputs.  With `--setup-only` it prints the set-up figures instead.
"""

import os
import sys
import time

SRC = sys.argv[1]
sys.path.insert(0, SRC)
sys.pycache_prefix = sys.argv[2]
sys.path.append(os.path.dirname(os.path.abspath(__file__)))
from speed import REFERENCE_S, SpeedSampler, reference_loop_s  # noqa: E402

# The import is timed between reference-loop samples, so its time can be
# scaled to the machine speed of the moment.
SETUP_REFERENCE_S = [reference_loop_s() for _ in range(6)]
_t0 = time.perf_counter()
import habiro.cli as cli  # noqa: E402  (the timed set-up)
SETUP_S = time.perf_counter() - _t0
SETUP_REFERENCE_S += [reference_loop_s() for _ in range(5)]

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

REFUSED = 3


def refuse(message: str) -> None:
    print(f"perfbench worker: refused: {message}", file=sys.stderr)
    sys.exit(REFUSED)


def guard_import(src: Path) -> None:
    origin = Path(cli.__file__).resolve()
    if src.resolve() / "habiro" not in origin.parents:
        refuse(f"habiro was imported from {origin}, not from {src}")


def guard_cache(argv: list[str], cache_dir: Path) -> None:
    """The command's cache must resolve to this pass's fresh directory.

    That rules out ~/.cache/habiro and an inherited HABIRO_CACHE_DIR.
    """
    resolved = cli._cache_dir(cli._build_parser().parse_args(argv)).resolve()
    if resolved != cache_dir.resolve():
        refuse(f"cache for {' '.join(argv)} resolves to {resolved}")


def run_command(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed task, not a failed pass
            error = f"{type(exc).__name__}: {exc}"
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def run_pass(spec: dict) -> dict:
    cache_dir = Path(spec["cache_dir"])
    with open(spec["tasks"], encoding="utf-8") as fh:
        tasks = json.load(fh)
    argvs = [[argv + ["--cache-dir", str(cache_dir)] for argv in task["argv"]] for task in tasks]
    for task_argvs in argvs:
        for argv in task_argvs:
            guard_cache(argv, cache_dir)

    tracer = None
    if spec.get("spans"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    def one_task(task_argvs):
        return [run_command(argv) for argv in task_argvs]

    results, intervals = [], []
    with SpeedSampler(tracer) as sampler:
        for task, task_argvs in zip(tasks, argvs):
            start = time.perf_counter()
            if tracer is None:
                outputs = one_task(task_argvs)
            else:
                outputs = tracer.run_task(task["id"], one_task, task_argvs)
            intervals.append((start, time.perf_counter()))
            results.append(outputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    task_s, reference_s = sampler.figures(intervals)

    out = {"setup_s": SETUP_S, "task_s": task_s, "reference_s": reference_s,
           "samples": len(sampler.samples), "peak_rss_mb": peak_rss_mb, "outputs": results}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spec["spans"])
        out["trace"] = tracer.summary([REFERENCE_S / r for r in reference_s])
    return out


def main() -> None:
    guard_import(Path(SRC))
    if sys.argv[3] == "--setup-only":
        # the first sample is a warm-up
        print(json.dumps({"setup_s": SETUP_S, "reference_s": SETUP_REFERENCE_S[1:]}))
        return
    with open(sys.argv[3], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_pass(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
