"""Regenerate the golden digests under ``perfbench/golden/``.

Usage (from the root of a checkout)::

    python3 perfbench/make_golden.py --seeds 1-10 --workloads compile-x10,edit-x10

For each workload and seed it runs the first ops of the seeded input
stream serially, with no timing, and records each op's timing-free
output digest (the same digests ``run.py`` computes). The served
requests of ``serve-mix`` are digested on the direct path
(``load_model`` + ``generate_configuration`` + ``bundle_bytes``), so a
served payload that matches its golden digest equals the direct
path's bytes. Existing seeds of other workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from workloads import WORKLOADS, direct_payload  # noqa: E402

#: ops per seed with a golden digest: well past what a window completes
GOLDEN_OPS = {"compile-x10": 1, "edit-x10": 240, "serve-mix": 160}


def serve_digests(seed: int, count: int) -> list[str]:
    workload = WORKLOADS["serve-mix"](seed, 10, HERE)
    workload.streams = [inputs.RequestStream(seed, client)
                        for client in range(inputs.CLIENTS)]
    digests: dict[int, str] = {}
    for op in range(count):
        origin = workload.origin(op)
        digests[op] = digests[origin] if origin != op else checks.digest(
            direct_payload(workload.request(op)))
    return [digests[op] for op in range(count)]


def op_digests(name: str, seed: int, count: int, workdir: Path
               ) -> list[str]:
    workload = WORKLOADS[name](seed, 10, workdir)
    workload.min_ops = count
    workload.setup()
    window = workload.run(0.0, None)
    errors = window.errors + window.failures + workload.check(window)
    if errors:
        raise SystemExit(f"{name} seed {seed}: {errors[:3]}")
    return [window.digests[index] for index in range(len(window.digests))]


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10,1009")
    parser.add_argument("--workloads", default=",".join(GOLDEN_OPS))
    args = parser.parse_args(argv)
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in args.workloads.split(","):
        path = checks.GOLDEN_DIR / f"{name}.json"
        data = json.loads(path.read_text()) if path.is_file() else {
            "workload": name, "scale": 10, "seeds": {}}
        for seed in parse_seeds(args.seeds):
            if name == "serve-mix":
                digests = serve_digests(seed, GOLDEN_OPS[name])
            else:
                digests = op_digests(name, seed, GOLDEN_OPS[name], HERE)
            data["seeds"][str(seed)] = digests
            data["seeds"] = dict(sorted(data["seeds"].items(),
                                        key=lambda item: int(item[0])))
            path.write_text(json.dumps(data, indent=1) + "\n")
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
