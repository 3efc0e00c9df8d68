"""Self tests of the benchmark: span arithmetic, hooks, and a tiny-grid smoke run.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.import_program(HERE.parent)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    S = tracing.Span
    spans = [
        S("cli.main", "cli", 0.0, 10.0, None, "e1"),
        S("verify.run", "verify", 1.0, 4.0, 0, "e1"),
        S("singular.commutator", "singular", 2.0, 3.0, 1, "e1"),
        S("young.modular_inf", "young", 5.0, 9.0, 0, "e1"),
        S("grid.flatten", "grid", 5.0, 6.0, 3, "e1"),
        S("grid.flatten", "grid", 7.0, 8.0, 3, "e1"),
        S("young.luxemburg_norm", "young", 11.0, 12.5, None, "e2"),
    ]
    got = tracing.self_times(spans)
    want = {"cli": 3.0, "verify": 2.0, "singular": 1.0, "young": 3.5, "grid": 2.0}
    assert got == pytest.approx({layer: want.get(layer, 0.0) for layer in tracing.LAYERS})
    # self times partition the time covered by root spans
    assert sum(got.values()) == pytest.approx(10.0 + 1.5)


def test_every_hook_resolves_and_uninstall_restores_it():
    assert tracing.check_hooks() == []
    before = [tracing._resolve(h)[0] for h in tracing.HOOKS]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert [tracing._resolve(h)[0] for h in tracing.HOOKS] == before


def test_a_renamed_binding_stops_the_benchmark(monkeypatch):
    import mixedweak.verify

    monkeypatch.delattr(mixedweak.verify, "commutator")
    assert any("mixedweak.verify.commutator" in m for m in tracing.check_hooks())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_self_times_fit_in_the_pass(name, tmp_path):
    wl = workloads.build(name, 3, tmp_path, workloads.SMOKE)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        times, results = run.run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    assert run.check(wl, results, None, 3) == []
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
    assert sum(tracing.self_times(tracer.spans).values()) <= sum(times)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    result = run.main(["--workload", name, "--seed", "5", "--seconds", "0.01",
                       "--trace", str(trace)], size=workloads.SMOKE)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_query_check_allows_rounding_at_an_exact_bound(tmp_path):
    # on this seed query-96 is a power r = 2 query, whose modular_inf / norm
    # is 2 exactly and computes as 2 + 1.6e-14
    seed = 1529571017
    wl = workloads.build("diagnostics", seed, tmp_path)
    wl.experiments = [e for e in wl.experiments if e.id == "query-96"]
    times, results = run.run_pass(wl)
    assert run.check(wl, results, run.load_reference("diagnostics"), seed) == []
