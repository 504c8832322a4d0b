#!/usr/bin/env python3
"""Check perfbench result lines: correct, no failed request, every metric.

    python3 scripts/check_bench.py RESULT [RESULT ...]
    python3 scripts/check_bench.py --self-test

Each RESULT is a file holding the output of one `perfbench/run.py` run;
its last non-empty line is the JSON result. A result passes when
`correct` is true, `failed` is 0 and every `end_to_end` metric named in
BENCHMARK.json is present. perfbench/run.py exits 0 even when requests
failed, so this check is what fails CI on a failed request.

No timing is checked: absolute numbers do not transfer between hosts.
The timing gate is the benchmark's parent/change comparison against
the bounds in BENCHMARK.json.

--self-test requires a result carrying every end_to_end metric to pass
and each of three breaks injected into a copy of it to fail: correct
false, failed 1, one metric dropped.
"""

import copy
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BREAKS = {
    "correct false": lambda r: r.update(correct=False),
    "failed 1": lambda r: r.update(failed=1),
    "metric dropped": lambda r: r["metrics"].popitem(),
}


def end_to_end_names():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)["end_to_end"]]


def last_result(path):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else "no output"


def problems(result, names):
    if not isinstance(result, dict):
        return ["unreadable: %s" % result]
    found = []
    if result.get("correct") is not True:
        found.append("correct is %r, not true" % result.get("correct"))
    if result.get("failed") != 0:
        found.append("failed is %r, not 0" % result.get("failed"))
    metrics = result.get("metrics") or {}
    found += ["metric %s is missing" % n for n in names if n not in metrics]
    return found


def self_test(names):
    good = {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {n: {"value": 1.0} for n in names}}
    ok = not problems(good, names)
    for what, inject in BREAKS.items():
        broken = copy.deepcopy(good)
        inject(broken)
        if not problems(broken, names):
            print("self-test: FAILED: a result with %s passes" % what)
            ok = False
    print("self-test ok: a full result passes, each of %d breaks fails"
          % len(BREAKS) if ok else "self-test: FAILED")
    return 0 if ok else 1


def main(argv):
    names = end_to_end_names()
    if argv == ["--self-test"]:
        return self_test(names)
    if not argv or any(a.startswith("-") for a in argv):
        print("usage: check_bench.py RESULT [RESULT ...] | --self-test")
        return 2
    failures = 0
    for path in argv:
        try:
            result = last_result(path)
        except (OSError, ValueError) as e:
            result = e
        for p in problems(result, names):
            print("FAIL: %s: %s" % (path, p))
            failures += 1
    print("check_bench: %d result(s), %s" % (
        len(argv), "%d problem(s)" % failures if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
