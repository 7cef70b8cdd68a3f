#!/usr/bin/env python3
"""Gate perfbench results on CI's performance budgets.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 8 --trace 0 > perf-suite.out
    python3 perfbench/run.py --workload serve-cold --seed 2 --seconds 8 --trace 1 > perf-cold.out
    python3 .github/perfgate.py perf-suite.out perf-cold.out

The last non-empty line of each file is one perfbench result. The gate
fails when a result is not correct, when any of its operations failed,
when a budgeted metric is missing from every result, or when a metric
is over its ceiling or under its floor.
"""

import json
import sys

# metric -> (comparison, limit): "<=" is a ceiling, ">=" a floor. The
# untraced suite run reports the end-to-end metrics; the traced
# serve-cold run reports the per-experiment renders, layer grids and
# tail latencies.
BUDGETS = {
    "setup_s": ("<=", 0.5),  # contains one fresh-process full-suite rep
    "suite_p90_s": ("<=", 0.5),
    "fleet_s": ("<=", 0.5),
    # 24.9-25.8K (8 s runs) + ext-fleet-recovery's old 9.6K slack. Mailboxes
    # are built only when World.Run starts ranks and timing-only OpenMP
    # loops keep no chunk lists; per-rank mailboxes or per-loop chunk
    # lists on priced points put ~200K back and trip it.
    "suite_mallocs": ("<=", 35_500),
    "simfleet.run_mallocs": ("<=", 10_000),
    # ~2x the 346 ns median of five traced serve-cold runs (270-390 ns,
    # 2-vCPU VM) with the arrival slot; fleet_s alone has ~13x headroom.
    "simfleet.ns_per_arrival": ("<=", 700),
    "hot_max_rps": (">=", 500),
    "cold_p99_ms": ("<=", 100),
    "fleet_p99_ms": ("<=", 250),
    "harness.render.fig5_ms": ("<=", 100),
    # fig5's two curves read ~0.02 ms with the O(binades) latency sum and
    # ~3.5 ms with one float add per access (traced serve-cold, 2-vCPU
    # VM); fig5_ms's budget cannot see that fallback, this one trips on it.
    "memsim.latency_curve_ms": ("<=", 1),
    # fig6 takes a few ms in closed form, 400-600 ms per access
    # (MAIA_NO_FASTPATH=1): a trip means memsim's closed form stopped engaging.
    "harness.render.fig6_ms": ("<=", 100),
    "harness.render.fig20_ms": ("<=", 100),
    # ext-stride's grid, unmemoized: its render hits the StrideDerate memo.
    "memsim.strided_ms": ("<=", 100),
    "harness.render.fig12_ms": ("<=", 25),
    "harness.render.fig13_ms": ("<=", 25),
    "harness.render.fig14_ms": ("<=", 25),
    "harness.render.fig22_ms": ("<=", 25),
}


def last_result(path):
    with open(path) as f:
        lines = [line for line in f if line.strip()]
    if not lines:
        raise ValueError("%s: no result line" % path)
    return json.loads(lines[-1])


def main(paths):
    if not paths:
        sys.stderr.write(__doc__)
        return 2
    problems, values = [], {}
    for path in paths:
        result = last_result(path)
        if result.get("correct") is not True:
            problems.append("%s: correct is %r" % (path, result.get("correct")))
        if result.get("failed", 1) != 0:
            problems.append("%s: %r of %r operations failed" % (path, result.get("failed"), result.get("attempted")))
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
    for name, (sign, limit) in BUDGETS.items():
        if name not in values:
            problems.append("%s: missing" % name)
            continue
        for value in values[name]:
            ok = value <= limit if sign == "<=" else value >= limit
            print("%-26s %12.4g  budget %s %g  %s" % (name, value, sign, limit, "ok" if ok else "FAIL"))
            if not ok:
                problems.append("%s = %g, budget %s %g" % (name, value, sign, limit))
    for p in problems:
        print("perfgate: FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
