#!/usr/bin/env python3
"""Write perfbench/pins.json: the digests of the first requests at the pinned seeds.

    python3 perfbench/pin.py

For each workload and each seed in run.PINNED_SEEDS this runs the first
run.PINNED_REQUESTS requests untimed and records each request's digest: the
RMSE bits of an mc request, the design file of a design-cli request; for
an mc workload also the digest of its memory request.
run.py compares against these, so rerun this only on purpose, from a
commit whose outputs are known to be right.
"""

import json
import sys

import run


def main() -> int:
    lib = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    pins = {}
    for name in run.WORKLOADS:
        for seed in run.PINNED_SEEDS:
            workload = run.make_workload(lib, name, seed)
            digests = []
            for i in range(run.PINNED_REQUESTS):
                digest, problems = workload.check(i, workload.run(i), None)
                if problems:
                    # Pinned all the same: the digest is the program's output,
                    # and run.py reports these problems on every run.
                    print(f"{name} seed {seed} request {i}: {problems}", file=sys.stderr)
                digests.append(digest)
            pins.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
        if name in run.MC:
            digest, problems = workload.memory_request(None)
            if problems:
                print(f"{name} memory request: {problems}", file=sys.stderr)
            pins[name]["memory"] = digest
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
