"""One fresh interpreter per benchmark op: `python3 worker.py REQUEST.json`.

Modes: `setup` builds a workload's inputs through the library; `cli` calls
`chowmot.cli.main(argv)` with its output captured, as `python -m chowmot`
would; `compose` times `compose_graded` on batches of operands.  With
`trace` set the tracer is installed before the first call into the engine.
The result goes to the request's `out` path as JSON, and the exit code is
the CLI's, so a failing call exits nonzero as it would at a shell.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

_perf = time.perf_counter
_dumps = json.dumps  # bound before tracing wraps json.dumps
PROBES = 3
PROBE_EVERY = 500


def reference_loop() -> float:
    """Time a fixed loop of Fraction and dict work that does not use chowmot.

    On a virtual machine whose host cores are shared, the same computation
    drifts by up to 30% within a minute; this loop, timed in the same
    process just before and after the op, drifts with it.  run.py scales
    the op's time by a nominal loop time over the median of these probes."""
    t0 = _perf()
    acc: dict = {}
    for i in range(1, 6000):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i, i % 11 + 1)
    return _perf() - t0


def run_setup(req, tracer):
    import inputs

    inputs.build(req["workload"], req["plan"], Path(req["work"]))
    return {"rc": 0}


def run_cli(req, tracer):
    from chowmot import cli

    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.recording = True
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = _perf()
        rc = cli.main(req["argv"])
        main_s = _perf() - t0
    if tracer is not None:
        tracer.recording = False
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "main_s": main_s}


def run_compose(req, tracer):
    """Time each compose_graded call; probe the machine's speed between the
    dense ops and every PROBE_EVERY sparse ops, since a batch runs for
    seconds."""
    from chowmot import GradedCorrespondence, compose_graded

    batches, probes = {}, []
    op = 0
    for batch, pairs in json.loads(Path(req["inputs"]).read_text()).items():
        parsed = [(GradedCorrespondence.from_json(f), GradedCorrespondence.from_json(g)) for f, g in pairs]
        times, results = [], []
        for j, (f, g) in enumerate(parsed):
            if j % PROBE_EVERY == 0 or batch == "dense":
                probes.append(reference_loop())
            if tracer is not None:
                tracer.op, tracer.recording = op, True
            t0 = _perf()
            h = compose_graded(f, g)
            times.append(_perf() - t0)
            if tracer is not None:
                tracer.recording = False
            results.append(h)
            op += 1
        outputs = [_dumps(h.to_json(), separators=(",", ":")) for h in results]
        batches[batch] = {"times": times, "outputs": outputs}
    return {"rc": 0, "batches": batches, "probes": probes}


MODES = {"setup": run_setup, "cli": run_cli, "compose": run_compose}


def main() -> int:
    t0 = _perf()
    probes = [reference_loop() for _ in range(PROBES)]
    overhead_s = _perf() - t0
    req = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, req["src"])
    tracer = None
    if req.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = MODES[req["mode"]](req, tracer)
    t_post = _perf()
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        tracer.dump(req["trace_path"])
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["probes"] = probes + result.pop("probes", []) + [reference_loop() for _ in range(PROBES)]
    result["overhead_s"] = overhead_s + _perf() - t_post
    Path(req["out"]).write_text(_dumps(result))
    if tracer is not None:
        os._exit(result["rc"])  # freeing the spans would add to the traced wall time
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
