"""Write bench/reference.json: a digest of the exact coefficients of every
critical polynomial the exact-scale workload can build.

The digests were recorded from the commit that introduced the benchmark;
any later construction must reproduce them exactly. Re-record only when the
set of drawable (family, param, n) keys changes, never to make a changed
construction pass:

    python3 bench/record_reference.py
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    rounds = workloads.WORKLOADS["exact-scale"].max_rounds
    out = {}
    for _, family, param, n in workloads.exact_keys(rounds):
        key = workloads.reference_key(family, param, n)
        if key not in out:
            out[key] = workloads.digest(workloads.build(family, param, n).poly)
            print(key, out[key], flush=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(out.items())), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
