"""Quick self-check of the harness: every workload at a tiny size.

    python3 perfbench/selfcheck.py

Runs each workload untraced and traced on TINY inputs and asserts that the
result carries every metric named in BENCHMARK.json, with its unit, and
that the harness's metric tables agree with that file.
"""

import json
import math
import os
import sys

import run  # sets the BLAS thread variables before numpy is imported
import workloads


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.PER_LAYER.items()}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            record = run.run_workload(name, seed=0, seconds=0.0, trace=bool(trace), sizes=workloads.TINY)
            emitted = {m: v["unit"] for m, v in record["metrics"].items()}
            assert emitted == declared[trace], f"{name} trace={trace}: {emitted} != {declared[trace]}"
            for metric, value in record["metrics"].items():
                assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"]), (
                    f"{name} trace={trace}: {metric} = {value['value']!r}")
            assert record["attempted"] >= 1 and record["correct"], (
                f"{name} trace={trace}: {record['problems']} {record['failures']}")
            print(f"ok  {name:<9} trace={trace}  {len(emitted)} metrics, "
                  f"{record['attempted']} attempted, {record['failed']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
