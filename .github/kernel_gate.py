#!/usr/bin/env python3
"""Kernel-speed gate over one batch_matrix benchmark run.

    python3 perfbench/run.py --workload batch_matrix --seed 1 --seconds 25 --trace 1 > run.out
    python3 .github/kernel_gate.py run.out

The file's last line is the run's result JSON. Each pinned cell (E1/E4 x
adaptive/bitset x plain/compressed) is read as its speed relative to the
paper-faithful kernel of the same method and layout in the same run,
ns_per_op(paper) / ns_per_op(kernel), so drift of the whole machine cancels.
A ratio below FLOOR x its committed value, or a missing cell, fails (exit 1).
"""

import json
import sys

FLOOR = 0.60
# median of 6 runs of the command above (seed 1, n = 3*10^4, one thread,
# 9-11 cycles per run) on a 2-vCPU x86-64 host; 8 runs read 0.89-1.17x
# of these. At --seconds 5 a run has 1-2 cycles: 13 such runs read 0.42-1.33x
# of their own medians and fell below the floor twice.
COMMITTED = {
    "E1.adaptive.plain": 1.43, "E1.bitset.plain": 1.44,
    "E1.adaptive.compressed": 1.61, "E1.bitset.compressed": 1.59,
    "E4.adaptive.plain": 1.32, "E4.bitset.plain": 1.31,
    "E4.adaptive.compressed": 0.94, "E4.bitset.compressed": 0.96,
}


def main(path):
    with open(path) as f:
        metrics = json.loads(f.read().strip().splitlines()[-1])["metrics"]
    failed = 0
    for cell, committed in COMMITTED.items():
        method, _, layout = cell.split(".")
        paper = metrics.get(f"kernel.ns_per_op.{method}.paper.{layout}")
        kernel = metrics.get(f"kernel.ns_per_op.{cell}")
        if paper is None or kernel is None:
            print(f"{cell}: missing from the run")
            failed += 1
            continue
        ratio = paper["value"] / max(kernel["value"], 1e-12)
        ok = ratio >= FLOOR * committed
        failed += not ok
        print(f"{cell}: {ratio:.2f}x paper, committed {committed:.2f}x "
              f"({ratio / committed:.0%}){'' if ok else f'  FAIL: below {FLOOR:.0%}'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
