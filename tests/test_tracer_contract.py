"""The benchmark's per-layer spans must all stay on the analysis call path.

``perfbench/tracing.py`` wraps niverify functions by module attribute.  A
refactor that stops calling one of them through that attribute leaves its
span empty and zeroes a per-layer metric without failing anything else;
this test fails instead.
"""

import importlib.util
from pathlib import Path

from niverify.driver import run_corpus

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_called_by_a_corpus_run():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_task("corpus", lambda: run_corpus(ROOT / "corpus"))
    finally:
        tracer.remove()
    spans = tracer.summary()["spans"]
    missing = sorted({name for _, _, name in tracing.WRAPPED if spans.get(name, {}).get("calls", 0) == 0})
    assert not missing, f"wrapped names never called: {missing}"
