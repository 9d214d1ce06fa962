"""One checked pass of each benchmark workload, in-process: the parts that
bench/run.py combines into a workload are built from one seed, run once
through `common.Pass`, and every reference check the benchmark makes must
pass, so an output the benchmark would count as failed fails here first.
bench/run.py itself is not imported: it sets the BLAS thread variables
of the process at import."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _parts(workload: str, seed: int, workdir: str) -> list:
    import cli_registry
    import ensemble
    import orbit_trace
    import return_words

    if workload == "products":
        return [orbit_trace.Workload(seed), ensemble.Workload(seed)]
    return [return_words.Workload(seed), cli_registry.Workload(seed, workdir)]


@pytest.mark.parametrize("workload", ["products", "analysis"])
def test_one_benchmark_pass_meets_every_reference_check(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from common import Pass

    parts = _parts(workload, 1, str(tmp_path))
    p = Pass(0, traced=False, spans=[])
    for part in parts:
        part.run_pass(p)
    p.close()
    checks = [c for part in parts for c in part.check(p.results)]
    assert checks
    assert [f"{c.key}: {c.detail}" for c in checks if not c.ok] == []
    # an op that raised fails unless a check judged it (as bench/run.py counts it)
    judged = {max((k for k in p.results if c.key == k or c.key.startswith(k + ".")), key=len)
              for c in checks}
    assert [k for k, v in p.results.items() if isinstance(v, Exception) and k not in judged] == []
