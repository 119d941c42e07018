#!/usr/bin/env python3
"""Check that the benchmark's correctness gate catches planted faults.

    python3 perfbench/check_checker.py

Runs short benchmark loops with one fault planted in one request's output
and requires each run to come back with correct=false and failed > 0:

  rmse-bit     one RMSE's lowest bit flipped (mc-f1-fail, pinned seed)
  design-level one level of a design file moved onto another row's level,
               after validate has passed it (design-cli, unpinned seed, so
               only the brute-force bin counter can catch it)

It also feeds the bin counter a design holding NaN, which validate_sliced
passes. Exits 0 when every fault is caught.
"""

import struct
import sys

import run


def once(fault):
    state = {"done": False}

    def mutate(target):
        if not state["done"]:
            state["done"] = True
            fault(target)

    return mutate


def flip_rmse_bit(rmse: dict) -> None:
    method = next(iter(rmse))
    bits = struct.unpack("<q", struct.pack("<d", rmse[method]))[0] ^ 1
    rmse[method] = struct.unpack("<d", struct.pack("<q", bits))[0]


def move_design_level(path) -> None:
    lines = path.read_text().splitlines()
    rows = [k for k, line in enumerate(lines) if line and not line.startswith("#")]
    first, second = lines[rows[0]].split(), lines[rows[1]].split()
    first[0] = second[0]  # two rows now share a whole-grid bin in column 0
    lines[rows[0]] = " ".join(first)
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    cases = [
        ("rmse-bit", "mc-f1-fail", run.PINNED_SEEDS[0], flip_rmse_bit),
        ("design-level", "design-cli", 12345, move_design_level),
    ]
    ok = True
    for label, workload, seed, fault in cases:
        result = run.run_workload(workload, seed, 1.0, False, mutate=once(fault))
        result.pop("_provenance")
        caught = not result["correct"] and result["failed"] > 0
        ok &= caught
        print(f"{label}: failed {result['failed']} of {result['attempted']} -> "
              f"{'caught' if caught else 'MISSED'}")
    header = "".join(f"# {k}: {v}\n" for k, v in (
        ("sizes", "1,1"), ("n", 2), ("dim", 2), ("seed", 0), ("decorrelated", "no"), ("format", "levels")))
    clean = run.bin_counter_problems(header + "1 3\n3 1\n", (1, 1), 2, 0, False)
    problems = run.bin_counter_problems(header + "1 nan\n3 1\n", (1, 1), 2, 0, False)
    caught = not clean and bool(problems)
    ok &= caught
    print(f"nan-entry: {problems} -> {'caught' if caught else 'MISSED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
