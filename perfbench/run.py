"""chowmot benchmark: one workload per run, every output checked exactly.

    python3 perfbench/run.py --workload kernel-cli --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout; chowmot is imported from `src/`.
A run builds its inputs in fresh set-up processes (`setup_s`), then runs
passes of the workload, one worker process at a time, until `--seconds`
have passed.  After the timed region every output is checked exactly,
compared with its golden digest and across passes, and negative controls
show that a corrupted, failed or timed-out op counts as failed.  The last
line of standard output is the JSON result: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`.  The exit code is 0 only
when every op and every control behaved.

`--write-golden` regenerates `golden.json` from the default seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60.0
CONTROL_TIMEOUT_S = 0.2  # far below the heaviest op of every workload
REFERENCE_S = 0.025  # nominal time of worker.reference_loop; timings are adjusted to it


@dataclass
class Call:
    rc: int | None
    wall_s: float  # without the worker's probes and trace bookkeeping
    data: dict | None
    timed_out: bool
    speed: float = 1.0  # REFERENCE_S over the worker's median probe: adjusted = wall_s * speed


class Runner:
    """Starts one worker process at a time and waits for it to end."""

    def __init__(self, work: Path):
        self.work = work
        self.n = 0
        self.probes: list[float] = []  # reference loop times reported by the workers
        (work / "trace").mkdir(parents=True, exist_ok=True)

    def call(self, request: dict, traced: bool, timeout: float) -> Call:
        self.n += 1
        out = self.work / f"result-{self.n}.json"
        req_path = self.work / f"request-{self.n}.json"
        req = dict(request, src=str(SRC), work=str(self.work), trace=traced, out=str(out),
                   trace_path=str(self.work / "trace" / f"spans-{self.n}.json.gz"))
        req_path.write_text(json.dumps(req))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(req_path)],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            return Call(None, time.perf_counter() - t0, None, True)
        wall = time.perf_counter() - t0
        data = json.loads(out.read_text()) if out.exists() else None
        req_path.unlink()
        out.unlink(missing_ok=True)
        if data is None:
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
            return Call(proc.returncode, wall, None, False)
        self.probes += data["probes"]
        return Call(proc.returncode, wall - data["overhead_s"], data, False,
                    REFERENCE_S / statistics.median(data["probes"]))


class Judge:
    """Says why an op failed, or None.  Content checks are cached by output
    digest, since equal bytes get equal verdicts."""

    def __init__(self, workload):
        self.workload = workload
        self.verdicts: dict = {}

    def __call__(self, op) -> str | None:
        if op.timed_out:
            return "timed out"
        if op.rc != 0:
            return f"exit code {op.rc}"
        k = (op.kind, op.key, op.digest)
        if k not in self.verdicts:
            try:
                self.verdicts[k] = self.workload.check(op)
            except Exception as exc:  # noqa: BLE001 - an unreadable output is a failed op
                self.verdicts[k] = f"unreadable output: {type(exc).__name__}: {exc}"
        return self.verdicts[k]


def judge_passes(passes, judge, golden: dict) -> list[str]:
    """Mark failed ops, compare golden units with golden.json and with the
    same unit in other passes, traced or not."""
    for p in passes:
        for op in p.ops:
            op.failure = judge(op)
    digests: dict = {}
    modes: dict = {}
    compared = 0
    for p in passes:
        for key, digest, ops in p.units:
            if any(op.failure for op in ops):
                continue
            digests.setdefault(key, set()).add(digest)
            modes.setdefault(key, set()).add(p.traced)
            if key in golden:
                compared += 1
                if golden[key] != digest:
                    for op in ops:
                        op.failure = "output differs from its golden digest"
    for p in passes:
        for key, _digest, ops in p.units:
            if len(digests.get(key, ())) > 1:
                for op in ops:
                    op.failure = op.failure or "output differs between passes"
    both = [k for k, m in modes.items() if len(m) == 2]
    differing = sum(len(d) > 1 for d in digests.values())
    return [
        f"golden digests: {compared} outputs compared with golden.json",
        f"determinism: {len(digests)} distinct inputs, {differing} with differing outputs",
        f"traced vs untraced: {sum(len(digests[k]) == 1 for k in both)} of {len(both)} inputs "
        "run both ways have equal digests",
    ]


def negative_controls(workload, runner, judge, passes) -> list:
    """Feed every checker one corrupted output, one nonzero exit and one
    timed-out call; each must come out failed."""
    from workloads import corrupt

    argv = ["sqrt-todd", "--variety", "[-1]", "--format", "json"]
    bad_exit = runner.call({"mode": "cli", "argv": argv}, False, SETUP_TIMEOUT_S)
    slow = runner.call(workload.heavy_request(), False, CONTROL_TIMEOUT_S)
    tally = []
    for kind in workload.kinds:
        good = next((op for p in passes for op in p.ops if op.kind == kind and not op.failure), None)
        if good is None:
            continue
        faults = {
            "corrupted output": dataclasses.replace(good, output=corrupt(good.output)),
            "nonzero exit": dataclasses.replace(
                good, rc=bad_exit.rc, output=(bad_exit.data or {}).get("stdout", "")),
            "timed-out call": dataclasses.replace(good, rc=slow.rc, timed_out=slow.timed_out, output=""),
        }
        tally += [(kind, fault, judge(op) is not None) for fault, op in faults.items()]
    return tally


def environment() -> dict:
    import chowmot

    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    src_loc = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "chowmot").rglob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git_commit": commit,
            "src_loc": src_loc, "api_exports": len(chowmot.__all__)}


def setup(workload, runner, for_golden=False) -> list[Call]:
    request = {"mode": "setup", "workload": workload.name, "plan": workload.plan(for_golden)}
    calls = []
    for _ in range(1 if for_golden else SETUP_REPEATS):
        calls.append(runner.call(request, False, SETUP_TIMEOUT_S))
        if calls[-1].rc != 0:
            sys.exit(f"set-up of {workload.name} failed (exit code {calls[-1].rc})")
    workload.load()
    return calls


def measure(workload, runner, seconds: float, trace: bool) -> list:
    """Passes until `seconds` have passed.  In a traced run each pass is run
    traced and then untraced on the same inputs, which gives the tracing
    overhead and lets the two runs' outputs be compared."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds or (trace and len(passes) % 2 == 1):
        i = len(passes)
        passes.append(workload.run_pass(runner, i // 2 if trace else i, trace and i % 2 == 0))
    return passes


def summary(workload, passes, setup_times, tally, env) -> list[str]:
    """The README's metric names for this workload, each with its unit."""
    from metrics import describe

    lines = [f"environment: {json.dumps(env)}"]
    untraced = [p for p in passes if not p.traced] or passes
    ops = [op for p in passes for op in p.ops]
    failed = sum(op.failure is not None for op in ops)
    named = {"setup_s": setup_times}
    if workload.name == "kernel-cli":
        named["ladder_pass_s"] = [p.pass_s for p in untraced]
    for p in untraced:
        for name, value in p.parts.items():
            named.setdefault(name, []).append(value)
    for name, values in named.items():
        lines.append(f"{name} {statistics.median(values):.6f} s ({describe(values)})")
    lines.append(f"peak_rss_mb {max(op.rss_mb for p in untraced for op in p.ops):.1f} MB")
    lines.append(f"fail_ratio {failed / len(ops):.6f} ratio ({failed} of {len(ops)} ops)")
    by_label: dict = {}
    for p in untraced:
        for op in p.ops:
            by_label.setdefault(op.label, []).append(op)
    for label, group in by_label.items():
        walls = [op.wall_s for op in group]
        terms = statistics.mean(sum(op.in_terms) for op in group)
        lines.append(f"op {label}: {statistics.median(walls):.6f} s ({describe(walls)}); "
                     f"working ring {group[0].ring_size or 'n/a'} monomials, input terms {terms:g}")
    counted = sum(hit for _, _, hit in tally)
    lines.append(f"negative controls: {counted} of {len(tally)} injected faults counted as failed "
                 f"(fail_ratio {counted / len(tally) if tally else 0:.3f})")
    lines += [f"control {kind}: {fault} {'counted' if hit else 'NOT COUNTED'}" for kind, fault, hit in tally]
    return lines


def run(args) -> int:
    import metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, WORK)
    runner = Runner(WORK)
    setup_calls = setup(workload, runner)
    setup_times = [c.wall_s for c in setup_calls]
    passes = measure(workload, runner, args.seconds, bool(args.trace))
    judge = Judge(workload)
    golden = json.loads(GOLDEN.read_text()).get(workload.name, {})
    checks = judge_passes(passes, judge, golden)
    tally = negative_controls(workload, runner, judge, passes)
    env = environment()

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.failure]
    probe = statistics.median(runner.probes)
    checks.append(f"reference loop: median {probe * 1000:.3f} ms over {len(runner.probes)} probes; the JSON "
                  f"timings scale each worker's raw seconds by {REFERENCE_S * 1000:g} ms over its own probes")
    for line in summary(workload, passes, setup_times, tally, env) + checks:
        print(line)
    for op in failed[:5]:
        print(f"FAILED {op.label} ({op.key}): {op.failure}")
    record = {"workload": workload.name, "seed": args.seed, "environment": env, "setup_s": setup_times,
              "passes": [{"traced": p.traced, "pass_s": p.pass_s, "large_s": p.large_s, "parts": p.parts}
                         for p in passes],
              "ops": [{"label": op.label, "key": op.key, "ring_size": op.ring_size, "in_terms": op.in_terms,
                       "wall_s": op.wall_s, "traced": p.traced, "failure": op.failure}
                      for p in passes for op in p.ops]}
    (WORK / "record.json").write_text(json.dumps(record))

    untraced = [p for p in passes if not p.traced]
    if args.trace:
        traced = [p for p in passes if p.traced]
        per_pass = [metrics.layer_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_ratio"] = (statistics.median(p.pass_adj for p in traced)
                                          / statistics.median(p.pass_adj for p in untraced) - 1)
        values["repo.src_loc"] = env["src_loc"]
        values["repo.api_exports"] = env["api_exports"]
        table = metrics.PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(c.wall_s * c.speed for c in setup_calls),
            "pass_s": statistics.median(p.pass_adj for p in untraced),
            "large_s": statistics.median(p.large_adj for p in untraced),
            "peak_rss_mb": max(op.rss_mb for p in untraced for op in p.ops),
        }
        table = metrics.END_TO_END
    correct = not failed and bool(tally) and all(hit for _, _, hit in tally)
    result = {"correct": correct, "attempted": len(ops), "failed": len(failed),
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table}}
    print(json.dumps(result))
    return 0 if correct else 1


def write_golden() -> int:
    """Digest every output of the default seed, and for kernel-cli of every
    twist, after checking it exactly."""
    from workloads import WORKLOADS, run_cli_op

    golden = {}
    for name, cls in WORKLOADS.items():
        work = WORK / name
        runner = Runner(work)
        workload = cls(DEFAULT_SEED, work)
        setup(workload, runner, for_golden=True)
        ops = workload.golden_ops()
        if ops is None:
            units = workload.run_pass(runner, 0, False).units
        else:
            units = [(op.key, run_cli_op(runner, op, False).digest, [op]) for op in ops]
        judge = Judge(workload)
        golden[name] = {}
        for key, digest, unit_ops in units:
            failures = [f for f in map(judge, unit_ops) if f]
            if failures or golden[name].setdefault(key, digest) != digest:
                sys.exit(f"{name} {key}: {failures or 'outputs differ'}; golden.json not written")
        print(f"{name}: {len(golden[name])} golden digests")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["verify-suite", "kernel-cli", "compose-large"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()
    if not (SRC / "chowmot" / "__init__.py").is_file():
        print(f"error: no chowmot sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")
    sys.path.insert(1, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    return write_golden() if args.write_golden else run(args)


if __name__ == "__main__":
    sys.exit(main())
