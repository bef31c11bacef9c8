"""Check that the correctness gate counts faults instead of crashing.

    python3 perfbench/selfcheck.py

Runs one pass of four cheap items at the reference seed: a clean one, one
whose recorded reference value is perturbed, one that raises, and one
whose output breaks an invariant.  Exits 0 when exactly the three faulty
operations are counted as failed and the run still completes.
"""

import os

os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import copy  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import gate
    import workloads

    reference = copy.deepcopy(gate.load_reference())
    perturbed = reference["items"]["gsm_lower"]["values"][0]
    perturbed["mean_risk"] *= 1.0 + 1e3 * reference["items"]["gsm_lower"]["rtol"]

    def boom(seed):
        raise RuntimeError("injected failure")

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        items = {item.name: item for item in workloads.build("sweeps", ROOT, Path(tmp))}
        clean, shifted = items["trunc_curve"], items["gsm_lower"]
        raising = dataclasses.replace(clean, name="raises", run=boom)
        # gsm_rate's table with its first mean negated breaks "every mean is positive"
        broken_table = json.loads(json.dumps(reference["items"]["gsm_rate"]["values"]))
        broken_table[0]["mean_risk"] = -broken_table[0]["mean_risk"]
        invalid = dataclasses.replace(
            items["gsm_rate"], name="invalid", run=lambda seed: json.dumps(broken_table)
        )
        reference["items"]["invalid"] = reference["items"]["gsm_rate"]
        result = gate.run_passes(
            [clean, shifted, raising, invalid], reference["seed"], time.perf_counter(), reference=reference
        )

    failed = {r.name: len(r.failures) for r in result.items}
    expected = {"trunc_curve": 0, "gsm_lower": 1, "raises": 1, "invalid": 1}
    print(f"attempted {result.attempted}  failed {result.failed}  error_rate {result.failed / result.attempted:.2f}")
    for r in result.items:
        for failure in r.failures:
            print(f"{r.name}: {failure.strip().splitlines()[-1]}")
    if failed != expected or result.attempted != 4:
        print(f"self-check FAILED: per-item failures {failed}, expected {expected}", file=sys.stderr)
        return 1
    print("self-check passed: each injected fault raised error_rate and the run completed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
