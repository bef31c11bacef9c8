"""Record perfbench/reference.json: every item's output at the reference seed.

    python3 perfbench/record_reference.py

Run it from the root of a vblab checkout when a change is meant to alter
emitted numbers; the diff of reference.json then shows what moved.
"""

import os

os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_SEED = 20250810


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import gate
    import workloads

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    reference = {"seed": REFERENCE_SEED, "items": {}}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for workload in workloads.WORKLOADS:
            items = workloads.build(workload, ROOT, Path(tmp))
            for item in items:
                text = item.run(REFERENCE_SEED)
                problems = item.check(text, REFERENCE_SEED)
                if problems:
                    print(f"error: {item.name} fails its invariants: {problems}", file=sys.stderr)
                    return 1
                reference["items"][item.name] = {
                    "rtol": item.rtol,
                    "digest": workloads.sha256(text.encode()),
                    "config_sha256": item.config_sha256,
                    "replications": item.replications,
                    "values": json.loads(text),
                }
                print(f"recorded {item.name}", file=sys.stderr)
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
