"""Short self-test of the benchmark.

    python3 bench/selftest.py [WORKLOAD ...]

1. Runs every workload (or the named ones) for one second, untraced and
   traced, and checks that the last line names exactly the metrics of
   BENCHMARK.json, each with its unit, and that no operation failed.
2. Flips the sign of one value in the lifted file of a study-pipeline
   chain and checks that the chain counts it as a failed operation.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(spec, workload, trace) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics/units differ: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[k for k in expected if got.get(k) != expected[k]]}")
    for name, value in result["metrics"].items():
        if not isinstance(value.get("value"), (int, float)):
            problems.append(f"{where}: {name} is not a number")
    return problems


def check_corrupt_lift() -> list[str]:
    """A lifted file with one flipped value is a failed operation."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    class Corrupting(workloads.StudyPipeline):
        def check_lift(self, cmd, est, doc):
            raw = bytearray(est.read_bytes())
            data = memoryview(raw)[workloads.BFSM_HEADER.size:].cast("d")
            k = next(i for i, v in enumerate(data) if v != 0.0)
            data.release()
            offset = workloads.BFSM_HEADER.size + 8 * k
            value = struct.unpack_from("<d", raw, offset)[0]
            struct.pack_into("<d", raw, offset, -value)
            est.write_bytes(bytes(raw))
            return super().check_lift(cmd, est, doc)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        good = workloads.StudyPipeline(Path(tmp), seed=7)
        good.setup()
        good.prepare()
        clean = good.op(cold=False)
        bad = Corrupting(Path(tmp), seed=7)
        bad.setup()
        bad.prepare()
        corrupt = bad.op(cold=False)
    problems = []
    if clean.failed:
        problems.append(f"clean chain reported {clean.failed} failures")
    if corrupt.failed != 1:
        problems.append(f"corrupted lift counted {corrupt.failed} failures, expected 1")
    return problems


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = argv or [w["name"] for w in spec["workloads"]]
    problems = check_corrupt_lift()
    for name in names:
        for trace in (0, 1):
            problems += check_run(spec, name, trace)
            print(f"checked {name} --trace {trace}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
