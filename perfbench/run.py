#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds perfbench/perfbench.exe with dune from the checkout
this file lives in, runs it, and passes its output and exit status
through: the last line of standard output is the result object.  The
second form runs every workload of BENCHMARK.json at tiny sizes and
checks the benchmark itself (see perfbench/README.md).
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from a checkout of the repository" % need)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam found on PATH")
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            dune + ["build", "--root", ".", "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0 or not os.path.exists(EXE):
        fail("build failed", 1)


def run(args, quiet=False):
    """Run the benchmark executable; returns (exit status, stdout)."""
    try:
        p = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL if quiet else None,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out: %s" % " ".join(args), 1)
    return p.returncode, p.stdout


def last_json(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, catalogue in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            code, out = run(["--workload", name, "--seed", "3", "--seconds", "1",
                             "--trace", trace, "--tiny"])
            res = last_json(out)
            where = "%s trace=%s" % (name, trace)
            if code != 0 or res is None or res.get("correct") is not True:
                problems.append("%s: exit %d, result %r" % (where, code, res))
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(res)))
            if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
                    and res["failed"] == 0):
                problems.append("%s: attempted/failed %r/%r"
                                % (where, res["attempted"], res["failed"]))
            got = res["metrics"]
            for m in catalogue:
                v = got.get(m["name"])
                if v is None:
                    problems.append("%s: metric %s missing" % (where, m["name"]))
                elif v.get("unit") != m["unit"] or not isinstance(v.get("value"), (int, float)):
                    problems.append("%s: metric %s reads %r, declared unit %s"
                                    % (where, m["name"], v, m["unit"]))
                elif trace == "0" and not v["value"] > 0:
                    problems.append("%s: end-to-end metric %s is %r"
                                    % (where, m["name"], v["value"]))
            extra = set(got) - {m["name"] for m in catalogue}
            if extra:
                problems.append("%s: undeclared metrics %s" % (where, sorted(extra)))
            if trace == "1":
                path = os.path.join(ROOT, "perfbench", "out", "trace-%s-3.json" % name)
                try:
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    if not events:
                        problems.append("%s: empty trace %s" % (where, path))
                except (OSError, ValueError, KeyError) as e:
                    problems.append("%s: bad trace file %s: %s" % (where, path, e))
    # a deliberately wrong pinned schedule count must trip the gate
    code, out = run(["--workload", "sct-mesi", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--tiny", "--break-pin"], quiet=True)
    res = last_json(out)
    if code == 0 or res is None or res.get("correct") is not False or res.get("failed", 0) < 1:
        problems.append("--break-pin did not trip the gate: exit %d, result %r" % (code, res))
    for p in problems:
        print("SELF-TEST FAIL: " + p)
    print("self-test: %d workloads, %s" % (len(bench["workloads"]),
                                           "ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        build()
        sys.exit(self_test())
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or sorted(opts) != ["--seconds", "--seed", "--trace", "--workload"]:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1 | --self-test")
    build()
    code, out = run(["--workload", opts["--workload"], "--seed", opts["--seed"],
                     "--seconds", opts["--seconds"], "--trace", opts["--trace"]])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
