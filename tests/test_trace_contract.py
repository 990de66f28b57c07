"""The names the benchmark tracer wraps still reach every traced layer.

perfbench/tracing.py replaces functions by name on the modules that bind
them.  A renamed function makes install() fail, and a reference captured
before install() lets calls bypass the wrapper, blanking that layer's time in
a traced benchmark run.  This runs one small task of each command kind under
the tracer and requires time in each layer the benchmark reports, and a
torus2 sweep whose traced sign tests must match the checks it prints.
"""

import importlib.util
import json
from pathlib import Path

from habiro.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_all_record_time(tmp_path, capsys):
    tracing = _load_tracing()
    cache = ["--cache-dir", str(tmp_path)]
    tasks = [
        *(["expand", "--family", "fishburn", "-N", "6", "--transform", t, *cache]
          for t in ("one-minus-q", "inv-one-plus-q", "ratio")),
        ["crosscheck", "--family", "torus2", "--m", "2", "--ell", "1", "-N", "6", *cache],
        ["asym", "--family", "fishburn", "--samples", "10", *cache],
        ["verify", "--family", "torus32t", "--t", "1:3"],
    ]
    sweep = ["verify", "--family", "torus2", "--m", "1:12", "--format", "json"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [main(argv) for argv in tasks]
        capsys.readouterr()
        before = tracing.layer_metrics(tracer.summary())
        codes.append(main(sweep))
    finally:
        tracer.uninstall()
    rows = json.loads(capsys.readouterr().out)
    assert codes == [0] * (len(tasks) + 1)
    metrics = tracing.layer_metrics(tracer.summary())
    # one bernoulli_sign_test call per sign test printed, and one per zero sign
    tests = sum(r["N_used"] for r in rows)
    zeros = sum(sign == 0 for r in rows for _, sign, _ in r["checks"])
    assert tests > 0
    assert metrics["signcheck.sign_tests"] - before["signcheck.sign_tests"] == tests
    assert metrics["signcheck.zero_sign_tests"] - before["signcheck.zero_sign_tests"] == zeros
    for name in ("families.expand_s", "qseries.kernel_s", "qseries.transform_s",
                 "thetaside.c_s", "exact.bernoulli_s", "asym.profile_s",
                 "signcheck.sign_test_s"):
        assert metrics[name] > 0, name
