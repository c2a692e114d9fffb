"""A cold CLI call loads only the layers its subcommand uses and neither
`dataclasses` nor `inspect`, nor, unless it asks for help or makes a usage
error, `argparse` with its `gettext` and `locale`; `cli` reaches the engine
through the package exports, and those resolve on first access to the
objects of their home modules."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chowmot

SRC = str(Path(chowmot.__file__).resolve().parent.parent)
CYCLE = json.dumps({"variety": {"factors": [1]}, "terms": [{"exps": [1], "coeff": "1"}]})
KERNEL = json.dumps({
    "source": {"factors": [1]},
    "target": {"factors": [1]},
    "ch": {"variety": {"factors": [1, 1]},
           "terms": [{"exps": [1, 0], "coeff": "1"}, {"exps": [0, 1], "coeff": "1"}]},
})
DIAGONAL = json.dumps({"source": {"factors": [1]}, "target": {"factors": [1]},
                       "cycle": json.loads(KERNEL)["ch"]})
MOTIVE = {"variety": {"factors": [1]}, "twist": 0, "idempotent": json.loads(KERNEL)["ch"]}
PROJECTOR = json.dumps({"variety": {"factors": [1, 1]}, "terms": [{"exps": [0, 1], "coeff": "1"}]})
ORBIT = json.dumps({"source": MOTIVE, "target": MOTIVE, "components": {"0": json.loads(DIAGONAL)}})
LINE_BUNDLE = ["--variety", "[1]", "--line-bundle", "[1]"]
CYCLE_ONE = {"variety": {"factors": [1]}, "terms": [{"exps": [0], "coeff": "1"}]}
LOADED = """
import contextlib, io, json, sys
from chowmot.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("chowmot")
                                or m in ("dataclasses", "inspect", "argparse", "gettext", "locale"))]))
"""
ARGPARSE = {"argparse", "gettext", "locale"}
BASE = ["chowmot", "chowmot.cli", "chowmot.errors", "chowmot.ring"]
KERNELS = ["chowmot.chern", "chowmot.corr", "chowmot.kshadow"]


def loaded_by(*argv, code=0):
    """The modules of interest that a fresh interpreter has loaded after
    `main(argv)`, which must return `code`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    returned, modules = json.loads(proc.stdout)
    assert returned == code
    return set(modules)


# one row per subcommand of the README table of layers
SUBCOMMAND_LAYERS = [
    (["ring", "degree", CYCLE], []),
    (["compose", DIAGONAL, DIAGONAL], ["chowmot.corr"]),
    (["transpose", DIAGONAL], ["chowmot.corr"]),
    (["diagonal", "--variety", "[1]"], ["chowmot.corr"]),
    (["sqrt-todd", "--variety", "[1]"], ["chowmot.chern"]),
    (["tangent", "--variety", "[1]"], ["chowmot.chern"]),
    (["todd", *LINE_BUNDLE], ["chowmot.chern"]),
    (["chern-character", *LINE_BUNDLE], ["chowmot.chern"]),
    (["euler", *LINE_BUNDLE], KERNELS),
    (["mu", KERNEL], KERNELS),
    (["identity-kernel", "--variety", "[1]"], KERNELS),
    (["k-compose", KERNEL, KERNEL], KERNELS),
    (["motive", "--variety", "[1]"], KERNELS + ["chowmot.motives"]),
    (["split", json.dumps(MOTIVE), PROJECTOR], KERNELS + ["chowmot.motives"]),
    (["orbit-compose", ORBIT, ORBIT], KERNELS + ["chowmot.motives"]),
    (["orlov", KERNEL, KERNEL], KERNELS + ["chowmot.motives"]),
    (["compat", KERNEL, KERNEL], KERNELS + ["chowmot.motives"]),
    (["verify", "--seed", "1", "--samples", "2"], KERNELS + ["chowmot.motives", "chowmot.verify"]),
]


class TestCliLayers:
    @pytest.mark.parametrize("argv, layers", SUBCOMMAND_LAYERS, ids=[argv[0] for argv, _ in SUBCOMMAND_LAYERS])
    def test_subcommand_loads_only_its_layers(self, argv, layers):
        """Besides the layers, the values' base builds no class at start-up
        through `dataclasses`, whose import brings in `inspect`."""
        assert loaded_by(*argv) == set(BASE + layers)

    @pytest.mark.parametrize("argv", [
        ["ring", "--format", "json", "scale", "-3/4", CYCLE],
        ["todd", "--format", "json", json.dumps({"variety": {"factors": [1]}, "rank": 1, "total_chern": CYCLE_ONE})],
        ["euler", json.dumps({"variety": {"factors": [1]}, "ch": json.loads(CYCLE)})],
        ["verify", "--samples", "1", "--timings", "--seed", "3", "--format", "text"],
    ], ids=["ring-scale", "todd-bundle", "euler-kclass", "verify-flags"])
    def test_plain_call_loads_no_argparse(self, argv):
        """Negative operands, a given `?` operand and flags in any order are
        read from the table too."""
        assert not loaded_by(*argv) & ARGPARSE

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["sqrt-todd", "--help"], 0), (["sqrt-todd"], 2),
        (["ring", "frobnicate", CYCLE], 2), (["verify", "--seed", "x"], 2),
    ], ids=["help", "row-help", "missing-flag", "bad-choice", "bad-int"])
    def test_help_and_usage_errors_reach_argparse(self, argv, code):
        assert loaded_by(*argv, code=code) >= ARGPARSE


class TestCliImports:
    def test_cli_reads_engine_names_through_the_package(self):
        """`cli` imports `errors` and `ring` up front and `verify` only inside
        `_verify`, and uses no `importlib`: every other engine name it reads
        is a package export, so `_HOMES` is the one map from name to layer."""
        tree = ast.parse((Path(chowmot.__file__).parent / "cli.py").read_text(encoding="utf-8"))
        relative = set()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ImportFrom) and child.level:
                    relative.add((scope, child.module))
                inner = isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef)
                visit(child, child.name if inner else scope)

        visit(tree, None)
        assert relative == {(None, "errors"), (None, "ring"), ("_verify", "verify")}
        absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        absolute += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level]
        assert "importlib" not in {name.partition(".")[0] for name in absolute}
        assert "__import__" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


class TestPackageExports:
    def test_names_resolve_to_their_home_objects(self):
        assert len(chowmot.__all__) == 51 == len(set(chowmot.__all__))
        for name in chowmot.__all__:
            obj = getattr(chowmot, name)
            home = sys.modules[obj.__module__]
            assert home.__name__.startswith("chowmot.") and getattr(home, name) is obj

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from chowmot import *", namespace)
        assert set(chowmot.__all__) <= set(namespace)
        assert all(namespace[name] is getattr(chowmot, name) for name in chowmot.__all__)

    def test_dir_lists_the_exports(self):
        assert set(chowmot.__all__) <= set(dir(chowmot))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            chowmot.no_such_name
        assert not hasattr(chowmot, "no_such_name")
