"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

CHEAP_POOL = (("5.2", "1.1", 2, 7), ("1.1", "7.2", 1, 8), ("3.2", "19.18", 1, 8))


def bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in layers.LAYER_METRICS]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_completes_at_tiny_size(name, monkeypatch):
    golden = workloads.load_golden()
    if name == "search-grid":
        monkeypatch.setattr(workloads, "SEARCH_POOL", CHEAP_POOL)
    wl = workloads.WORKLOADS[name](golden)
    ops = wl.pass_ops(random.Random(1))[:3]
    if name == "cusp-constants":
        ops = [("gauss", "5.2"), ("gauss", "13.2")] + [op for op in ops if op[0] == "cusp"][:1]
    for op in ops:
        assert wl.check(op, wl.run(op)) is None, op


def test_end_to_end_one_pass_prints_the_contract():
    res = bench("--workload", "qexp-identities", "--seed", "3", "--seconds", "0",
                "--trace", "0")
    wl = workloads.QexpIdentities(workloads.load_golden())
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == len(wl.pass_ops(random.Random(0)))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in res["metrics"].values())
    full = json.loads((run.RESULTS / "qexp-identities-seed3-trace0.json").read_text())
    raw, scale = full["raw_metrics"], full["scale"]
    assert scale["ops_reference"] == "compute"
    assert res["metrics"]["op_p50_s"]["value"] == pytest.approx(raw["op_p50_s"] * scale["ops"])
    assert res["metrics"]["ops_per_s"]["value"] == pytest.approx(raw["ops_per_s"] / scale["ops"])
    assert res["metrics"]["setup_s"]["value"] == pytest.approx(raw["setup_s"] * scale["setup"])


def test_scale_is_nominal_over_the_geometric_mean():
    assert calibrate.scale("compute", [calibrate.NOMINAL_S["compute"]] * 3) == pytest.approx(1)
    assert calibrate.scale("startup", [0.05, 0.2]) == \
        pytest.approx(calibrate.NOMINAL_S["startup"] / 0.1)
    assert calibrate.timed(calibrate.WORK["compute"]) > 0


def test_corrupted_golden_entry_is_a_failed_op(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SEARCH_POOL", CHEAP_POOL)
    golden = copy.deepcopy(workloads.load_golden())
    variants = workloads.galois_variants("5.2", "1.1")
    for psi, phi in variants:
        golden["search-grid"][workloads.search_key(psi, phi, 2, 7)][0]["ell"] += 2
    monkeypatch.setattr(workloads, "load_golden", lambda: golden)
    worker.main(["--workload", "search-grid", "--seed", "1", "--mode", "timed"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["attempted"] == 3
    assert len(out["failures"]) == 1
    assert out["failures"][0]["op"] in [repr((psi, phi, 2, 7)) for psi, phi in variants]
    assert len(out["latencies"]) == 2


def test_ops_left_by_the_run_budget_are_failed_ops(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SEARCH_POOL", CHEAP_POOL)
    monkeypatch.setattr(worker, "RUN_BUDGET_S", 0.0)
    worker.main(["--workload", "search-grid", "--seed", "1", "--mode", "timed"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["attempted"] == 3
    assert len(out["failures"]) == 3 and out["latencies"] == []
    assert "run budget" in out["failures"][0]["error"]


def test_traced_and_untraced_results_identical(monkeypatch):
    monkeypatch.setattr(workloads, "SEARCH_POOL", CHEAP_POOL)
    golden = workloads.load_golden()
    for name in ("search-grid", "qexp-identities", "cusp-constants"):
        wl = workloads.WORKLOADS[name](golden)
        ops = [op for op in wl.pass_ops(random.Random(7))
               if op[0] != "gauss" or op[1] in ("5.2", "7.3")][:6]
        plain = [wl.digest(op, wl.run(op)) for op in ops]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [wl.digest(op, wl.run(op)) for op in ops]
        finally:
            tracer.uninstall()
        assert plain == traced, name
        assert len(tracer.name) > 0


def test_trace_summary_self_time_excludes_children(tmp_path):
    t = Tracer()
    outer, inner = t.name_id("outer"), t.name_id("inner")
    i = t.enter(outer)
    j = t.enter(inner)
    t.exit(j)
    t.exit(i)
    t.start[0], t.end[0], t.start[1], t.end[1] = 0.0, 3.0, 1.0, 2.0
    t.dump(tmp_path / "s.spans")
    s = summarize(tmp_path / "s.spans")
    assert s["layers"]["outer"] == [1, 2.0, 3.0]
    assert s["layers"]["inner"] == [1, 1.0, 1.0]


def test_traced_counts_repeat_exactly():
    args = ("--workload", "qexp-identities", "--seed", "4", "--trace", "1")
    first, second = bench(*args), bench(*args)
    assert first["correct"] and second["correct"]
    names = [n for n, unit, _, _ in layers.LAYER_METRICS if unit != "s"
             and n != "trace.overhead_ratio"]
    assert [first["metrics"][n]["value"] for n in names] == \
        [second["metrics"][n]["value"] for n in names]
    assert first["metrics"]["eisenstein.sigma_power_div.calls"]["value"] > 0
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search-grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
