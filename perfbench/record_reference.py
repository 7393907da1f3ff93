"""Record the reference report metrics that the benchmark's output check uses.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py --seeds 0-15 --commit <sha>

It runs each workload once per seed through the same scenario files as
``run.py`` and writes ``perfbench/reference.json``.  Re-recording after a
change to the package would make the check compare the package with itself,
so the file is only rewritten on purpose, for a new workload or seed range.
"""

import argparse
import json
import tempfile
from pathlib import Path

import yaml

import run
import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range a-b")
    parser.add_argument("--commit", required=True,
                        help="commit the package source was taken from")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    harness = run.import_package()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out = {"source_commit": args.commit, "rtol": workloads.RTOL, "metrics": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for entry in spec["workloads"]:
            name = entry["name"]
            out["metrics"][name] = {}
            for seed in range(lo, hi + 1):
                path = Path(tmp) / "scenario.yaml"
                path.write_text(yaml.safe_dump(workloads.scenario(name, seed)))
                cfg = harness.load_config(str(path))
                out_dir = str(Path(tmp) / "out")
                report = harness.run_scenario(cfg, out_dir)
                problems = workloads.check_report(report, cfg, out_dir)
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                out["metrics"][name][str(seed)] = report["metrics"]
                print(name, seed, report["runtime_seconds"], flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
