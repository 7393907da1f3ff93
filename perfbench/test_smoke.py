"""Tests of the benchmark itself, on tiny grids: python3 -m pytest perfbench"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import workloads
from tracer import Tracer, digest

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Self times of every span kind, plus the time outside all spans.
SELF_TIMES = ["operator.assemble_s", "controls.materialize_s", "solver.linear_s",
              "solver.nonlinear_s", "solver.csv_write_s", "dnmap.matrix_self_s",
              "inversion.background_self_s", "inversion.synthesize_s",
              "inversion.recover_self_s", "trace.hook_s", "harness.self_s"]


def _bench(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    info_line, result_line = out.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert math.isclose(sum(values[k] for k in SELF_TIMES),
                            values["trace.wall_s"], rel_tol=1e-6)
    record = json.loads((run.ROOT / json.loads(info_line)["results_file"]).read_text())
    assert record["result"] == result
    assert record["machine"]["nproc"] >= 1


def test_traced_counts_on_smoke_static():
    out = _bench("--workload", "invert-linear-static", "--seed", "0",
                 "--seconds", "0.5", "--trace", "1", "--smoke")
    assert out.returncode == 0, out.stderr
    m = {k: v["value"] for k, v in json.loads(out.stdout.splitlines()[-1])["metrics"].items()}
    n_basis = m["solver.linear_calls"] // 4  # data, background, and two windows
    assert m["solver.linear_calls"] == m["solver.lu_factor_calls"] == 4 * n_basis
    # the q=0 responses on w1 are solved twice, once per consumer
    assert m["solver.linear_unique"] == 3 * n_basis
    assert m["solver.lu_factor_unique"] == 2
    assert m["inversion.cho_factor_unique"] == 3


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""


def test_tracer_restores_every_binding():
    harness = run.import_package()
    import viscowave.dnmap as dnmap
    import viscowave.inversion as inversion
    import viscowave.solver as solver

    bindings = [(harness, "solve_linear"), (dnmap, "solve_linear"),
                (inversion, "solve_linear"), (solver, "solve_linear"),
                (harness, "dn_matrix_linear"), (solver, "lu_factor"),
                (inversion, "cho_factor"),
                (inversion.BackgroundStates, "__init__"),
                (inversion.BackgroundStates, "synthesize")]
    before = [getattr(owner, attr) for owner, attr in bindings]
    with Tracer().installed():
        during = [getattr(owner, attr) for owner, attr in bindings]
    assert all(a is not b for a, b in zip(before, during))
    assert all(getattr(owner, attr) is orig
               for (owner, attr), orig in zip(bindings, before))


def test_output_check_tolerance():
    ref = {"max_abs_u": 1.25, "rhs_norm": 0.04, "relative_l2_error": 0.02,
           "frame": "direct", "newton_iterations_total": 893}
    near = {"max_abs_u": 1.25 * (1 + 1e-9), "rhs_norm": 0.04 * (1 + 1e-3),
            "relative_l2_error": 0.06, "frame": "direct",
            "newton_iterations_total": 894}
    assert workloads.compare_metrics(near, ref) == []
    assert len(workloads.compare_metrics(dict(near, max_abs_u=1.26), ref)) == 1
    assert len(workloads.compare_metrics(dict(near, rhs_norm=0.041), ref)) == 1
    assert workloads.compare_metrics(dict(ref, frame="reversed"), ref)
    assert workloads.compare_metrics({"max_abs_u": 1.25}, ref)


def test_seed_perturbs_parameters_not_sizes():
    for name in WORKLOADS:
        base, other = workloads.scenario(name, 0), workloads.scenario(name, 5)
        assert base == workloads.BASE[name]
        assert other != base
        assert workloads.scenario(name, 5) == other
        for key in ("grid", "dt"):
            assert other[key] == base[key]
        assert other["experiment"].get("basis_segments") == \
            base["experiment"].get("basis_segments")


def test_digest_is_content_based():
    import numpy as np

    a = np.arange(6.0).reshape(2, 3)
    assert digest({"q": a, "dt": 0.1}) == digest({"dt": 0.1, "q": a.copy()})
    assert digest(a) != digest(a.T)



def test_hostspeed_kernel_runs_for_the_time_asked():
    passes, elapsed = hostspeed.run_for(0.05, min_passes=2)
    assert passes >= 2 and elapsed >= 0.05
