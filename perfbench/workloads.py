"""The three workloads: what one pass runs, and how each output is checked.

verify-suite  fresh `chowmot verify --samples 200 --format json` processes;
              many tiny cycles on repeated varieties, so `ring`
              construction and `motives` validation dominate.
kernel-cli    fresh CLI calls of sqrt-todd, identity-kernel, k-compose and
              orlov on the ladder [1], [2], [1,1], [2,2], [3,3]; dense
              classes on X x X, so `chern` dominates.
compose-large `compose_graded` batches inside one fresh worker per pass:
              dense operands on [4,4] and [2,2,2], then many 8-term
              operands on [3,3,3] and [2,2,2,2]; only `corr` and
              `ring.intersect` work.

A pass reports `pass_s` (all of it) and `large_s` (its part on the
largest inputs), plus the per-op timings the README names.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import chowmot
import inputs
import oracles

OP_TIMEOUT_S = 60.0


@dataclass
class Op:
    kind: str  # which checker judges the output
    label: str  # what the op is, e.g. "k-compose x33"
    key: str  # what fixes the correct output; golden digests are keyed by it
    argv: list | None = None
    ring_size: int | None = None  # prod(n_i + 1) of the working ring
    in_terms: tuple = ()
    output: str = ""
    wall_s: float = 0.0
    speed: float = 1.0  # see run.Call.speed
    rc: int | None = 0
    timed_out: bool = False
    rss_mb: float = 0.0
    trace: dict | None = None
    index: tuple | None = None  # (batch, position) of an in-process op
    failure: str | None = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.output.encode()).hexdigest()


@dataclass
class Pass:
    traced: bool
    ops: list
    pass_s: float  # raw seconds
    large_s: float
    pass_adj: float  # adjusted seconds, see run.REFERENCE_S
    large_adj: float
    parts: dict = field(default_factory=dict)  # README-named timings of this pass
    units: list = field(default_factory=list)  # golden units: (key, digest, ops)
    worker_trace: dict | None = None  # compose-large traces one worker per pass


def ring_size(factors) -> int:
    return math.prod(n + 1 for n in factors)


def run_cli_op(runner, op: Op, traced: bool) -> Op:
    call = runner.call({"mode": "cli", "argv": op.argv}, traced, OP_TIMEOUT_S)
    op.rc, op.timed_out, op.wall_s, op.speed = call.rc, call.timed_out, call.wall_s, call.speed
    if call.data is not None:
        op.output = call.data["stdout"]
        op.rss_mb = call.data["rss_mb"]
        op.trace = call.data.get("trace")
    return op


def reemit_failure(output: str, data) -> str | None:
    """The CLI prints `json.dumps(value, indent=2)`; re-emitting must give the same bytes."""
    return None if json.dumps(data, indent=2) + "\n" == output else "re-emitted JSON differs from the output"


_COEFF = re.compile(r'("coeff":\s*")([^"]+)(")')


def corrupt(output: str) -> str:
    """The output with one coefficient changed (or, for verify, one check
    marked failed)."""
    if _COEFF.search(output):
        return _COEFF.sub(lambda m: m[1] + str(Fraction(m[2]) + 1) + m[3], output, count=1)
    return output.replace('"passed": true', '"passed": false', 1)


class Workload:
    """Inputs, passes and checks of one workload for one seed."""

    name: str
    kinds: tuple  # the checkers its ops use

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def plan(self, for_golden: bool = False):
        """What the set-up process builds."""
        return None

    def load(self) -> None:
        """Read what set-up built, for the checks."""

    def golden_ops(self):
        """The ops whose outputs golden.json records, or None for one pass."""
        return None


class CliWorkload(Workload):
    """A workload whose ops are fresh `chowmot` CLI processes."""

    def run_pass(self, runner, i: int, traced: bool) -> Pass:
        ops = [run_cli_op(runner, op, traced) for op in self.pass_ops(i)]
        large = [op for op in ops if self.is_large(op)]
        p = Pass(traced, ops, sum(op.wall_s for op in ops), sum(op.wall_s for op in large),
                 sum(op.wall_s * op.speed for op in ops), sum(op.wall_s * op.speed for op in large))
        p.parts = self.parts(ops)
        p.units = [(op.key, op.digest, [op]) for op in ops]
        return p

    def heavy_request(self):
        op = max(self.pass_ops(0), key=lambda o: o.ring_size or 0)
        return {"mode": "cli", "argv": op.argv}


class VerifySuite(CliWorkload):
    name = "verify-suite"
    kinds = ("verify",)

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.seeds = inputs.verify_seeds(seed)

    def op_for(self, s: int) -> Op:
        argv = ["verify", "--seed", str(s), "--samples", "200", "--format", "json"]
        return Op("verify", "verify", f"verify seed={s}", argv)

    def pass_ops(self, i: int) -> list:
        return [self.op_for(self.seeds[i % len(self.seeds)])]

    def golden_ops(self) -> list:
        return [self.op_for(s) for s in range(inputs.VERIFY_POOL)]

    def is_large(self, op: Op) -> bool:
        return True

    def parts(self, ops) -> dict:
        return {"verify_suite_s": ops[0].wall_s}

    def check(self, op: Op) -> str | None:
        data = json.loads(op.output)
        failed = [c["name"] for c in data if not c["passed"]]
        if failed or not data:
            return f"checks failed: {failed}"
        return reemit_failure(op.output, data)


class KernelCli(CliWorkload):
    name = "kernel-cli"
    kinds = ("sqrt-todd", "identity-kernel", "k-compose", "orlov")

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.twists = inputs.twists(seed)

    def plan(self, for_golden: bool = False):
        return [[list(f), list(inputs.TWISTS) if for_golden else [d, -d]] for f, d in self.twists.items()]

    def kernel_terms(self, factors, d) -> int:
        return len(json.loads(inputs.kernel_file(self.work, factors, d).read_text())["ch"]["terms"])

    def rung_ops(self, factors, d: int, with_plain: bool = True) -> list:
        x = list(factors)
        r = inputs.rung(factors)
        e, f = (str(inputs.kernel_file(self.work, factors, t)) for t in (d, -d))
        pair = (self.kernel_terms(factors, d), self.kernel_terms(factors, -d))
        square, triple = ring_size(factors * 2), ring_size(factors * 3)
        ops = []
        if with_plain:
            ops += [
                Op("sqrt-todd", f"sqrt-todd {r}", f"sqrt-todd {r}",
                   ["sqrt-todd", "--variety", json.dumps(x + x), "--format", "json"], square),
                Op("identity-kernel", f"identity-kernel {r}", f"identity-kernel {r}",
                   ["identity-kernel", "--variety", json.dumps(x), "--format", "json"], square),
            ]
        return ops + [
            Op("k-compose", f"k-compose {r}", f"k-compose {r}",
               ["k-compose", e, f, "--format", "json"], triple, pair),
            Op("orlov", f"orlov {r}", f"orlov {r} d={d}", ["orlov", e, f, "--format", "json"], triple, pair),
        ]

    def pass_ops(self, i: int) -> list:
        return [op for factors, d in self.twists.items() for op in self.rung_ops(factors, d)]

    def golden_ops(self) -> list:
        return [op for factors in inputs.LADDER for k, d in enumerate(inputs.TWISTS)
                for op in self.rung_ops(factors, d, with_plain=k == 0)]

    def is_large(self, op: Op) -> bool:
        return op.label.endswith(inputs.rung(inputs.LADDER[-1]))

    def parts(self, ops) -> dict:
        top = inputs.rung(inputs.LADDER[-1])
        return {f"{op.kind.replace('-', '_')}_{top}_s": op.wall_s for op in ops if op.label.endswith(top)}

    def check(self, op: Op) -> str | None:
        data = json.loads(op.output)
        if op.kind == "sqrt-todd":
            factors, terms = oracles.cycle_terms(data)
            if oracles.product(terms, terms, factors) != oracles.todd(factors):
                return "square is not the Todd class of X x X"
            reparsed = chowmot.Cycle.from_json(data).to_json()
        elif op.kind in ("identity-kernel", "k-compose"):
            if not oracles.is_identity_kernel(data):
                return "not the identity kernel of X"
            reparsed = chowmot.KKernel.from_json(data).to_json()
        else:
            if data["verdict"] != "exact-isomorphism" or "degree_zero_forward" not in data:
                return f"verdict {data['verdict']} without a degree-zero pair"
            fwd, bwd = data["degree_zero_forward"], data["degree_zero_backward"]
            x = tuple(fwd["source"]["factors"])
            mf, mb = oracles.action(fwd), oracles.action(bwd)
            ident = oracles.identity_action(x)
            if oracles.then(mf, mb, x) != ident or oracles.then(mb, mf, x) != ident:
                return "degree-zero pair is not mutually inverse"
            gc = chowmot.GradedCorrespondence
            reparsed = dict(data, degree_zero_forward=gc.from_json(fwd).to_json(),
                            degree_zero_backward=gc.from_json(bwd).to_json())
        return reemit_failure(op.output, reparsed)


class ComposeLarge(Workload):
    name = "compose-large"
    kinds = ("compose",)

    def plan(self, for_golden: bool = False):
        return {"seed": self.seed}

    def load(self) -> None:
        """Operands and op descriptions, in the order the worker runs them."""
        batches = json.loads((self.work / inputs.COMPOSE_FILE).read_text())
        self.operands = {}
        self.templates = {}
        for batch, pairs in batches.items():
            self.operands[batch] = pairs
            self.templates[batch] = []
            for j, (f, g) in enumerate(pairs):
                shape = tuple(f["source"]["factors"])
                self.templates[batch].append((
                    f"{batch} {inputs.rung(shape)}", f"{batch} seed={self.seed} #{j}",
                    ring_size(shape * 3), (len(f["cycle"]["terms"]), len(g["cycle"]["terms"]))))

    def run_pass(self, runner, i: int, traced: bool) -> Pass:
        request = {"mode": "compose", "inputs": str(self.work / inputs.COMPOSE_FILE)}
        call = runner.call(request, traced, OP_TIMEOUT_S)
        ops, parts, units = [], {}, []
        for batch, templates in self.templates.items():
            got = call.data["batches"][batch] if call.data is not None else None
            batch_ops = []
            for j, (label, key, size, terms) in enumerate(templates):
                op = Op("compose", label, key, None, size, terms, speed=call.speed,
                        rc=call.rc, timed_out=call.timed_out)
                if got is not None:
                    op.output, op.wall_s, op.rss_mb = got["outputs"][j], got["times"][j], call.data["rss_mb"]
                op.index = (batch, j)
                batch_ops.append(op)
            parts[f"compose_{batch}_s"] = sum(op.wall_s for op in batch_ops)
            digest = hashlib.sha256("\n".join(op.output for op in batch_ops).encode()).hexdigest()
            units.append((f"{batch} seed={self.seed}", digest, batch_ops))
            ops += batch_ops
        raw = sum(parts.values())
        dense = parts["compose_dense_s"]
        p = Pass(traced, ops, raw, dense, raw * call.speed, dense * call.speed, parts, units)
        p.worker_trace = call.data.get("trace") if call.data is not None else None
        return p

    def heavy_request(self):
        return {"mode": "compose", "inputs": str(self.work / inputs.COMPOSE_FILE)}

    def check(self, op: Op) -> str | None:
        data = json.loads(op.output)
        batch, j = op.index
        f, g = self.operands[batch][j]
        x = tuple(f["source"]["factors"])
        if oracles.then(oracles.action(f), oracles.action(g), x) != oracles.action(data):
            return "composite does not act as g_*(f_*(a)) on every monomial a"
        reparsed = chowmot.GradedCorrespondence.from_json(data).to_json()
        return None if json.dumps(reparsed, separators=(",", ":")) == op.output else "re-emitted JSON differs"


WORKLOADS = {w.name: w for w in (VerifySuite, KernelCli, ComposeLarge)}
