"""The table of negative controls in `tools/negative_controls.py`: every
row's passages are in the engine as it stands, exactly once and inside the
named method, so a refactor that moves one fails here and not only in CI;
every named row is a check of `verify`; and the verdict, run here on cheap
`-c` commands in place of the real ones, calls a mutant killed only when
its command exits 1 and, for a `verify` row, prints that row as FAIL."""

import importlib.util
from pathlib import Path

import pytest

from chowmot.verify import CHECKS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("negative_controls", ROOT / "tools" / "negative_controls.py")
controls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(controls)
Mutant = controls.Mutant

STORES = "d[a], d[b], d[c] = x, y, z"


def marked(command, row=None):
    """A control on ring.py whose edit only appends a comment, so the copy
    still imports, run with `command`."""
    return Mutant("a marked copy", "chowmot/ring.py", {STORES: STORES + "  # MUTATED"}, command, row)


def exits(code, printed=""):
    return ("-c", f"import sys; print({printed!r}); sys.exit({code})")


@pytest.mark.parametrize("mutant", controls.MUTANTS, ids=lambda m: m.description.split()[6])
def test_each_passage_occurs_once_at_head(mutant):
    text = (ROOT / "src" / mutant.path).read_text()
    assert controls.mutate(text, mutant) != text


def test_every_named_row_is_a_verify_check():
    rows = {m.row for m in controls.MUTANTS if m.row}
    assert rows and rows <= {name for name, _ in CHECKS}


def test_the_table_holds_the_nine_controls():
    assert len(controls.MUTANTS) == 9
    assert [m.row for m in controls.MUTANTS if m.command == controls.VERIFY] == [
        "orbit-rigidification", "correspondence-algebra", "identity-kernel", "hrr-line-bundles"]


def run(monkeypatch, capsys, *mutants) -> tuple[int, str]:
    monkeypatch.setattr(controls, "MUTANTS", list(mutants))
    status = controls.main()
    return status, capsys.readouterr().out


def test_a_command_exiting_1_kills_and_the_runner_exits_0(monkeypatch, capsys):
    status, out = run(monkeypatch, capsys, marked(exits(1)))
    assert status == 0 and out.startswith("killed") and "1 of 1 mutants killed" in out


def test_the_command_runs_on_the_mutated_copy(monkeypatch, capsys):
    probe = ("-c", "import sys, chowmot.ring; sys.exit(1 if 'MUTATED' in open(chowmot.ring.__file__).read() else 0)")
    status, out = run(monkeypatch, capsys, marked(probe))
    assert status == 0 and out.startswith("killed")


@pytest.mark.parametrize("command", [exits(0), exits(2), exits(2, "identity-kernel  FAIL  x")])
def test_a_command_not_exiting_1_survives(monkeypatch, capsys, command):
    status, out = run(monkeypatch, capsys, marked(command, "identity-kernel"))
    assert status == 1 and "SURVIVED  a marked copy" in out and "0 of 1 mutants killed" in out


def test_a_verify_row_must_read_fail(monkeypatch, capsys):
    status, out = run(monkeypatch, capsys, marked(exits(1, "identity-kernel  PASS  x"), "identity-kernel"),
                      marked(exits(1, "orlov-pipeline  FAIL  x"), "identity-kernel"),
                      marked(exits(1, "identity-kernel  FAIL  x"), "identity-kernel"))
    assert status == 1
    assert [line.split()[0] for line in out.splitlines() if "a marked copy" in line] == [
        "SURVIVED", "SURVIVED", "killed"]


RING = (ROOT / "src" / "chowmot" / "ring.py").read_text()


@pytest.mark.parametrize("edits, scope, found", [
    ({"a passage the engine does not hold": ""}, None, 0),
    ({STORES: ""}, "_total", 0),  # in ring.py, but outside the method `_total`
    ({"return obj": ""}, None, RING.count("return obj")),
])
def test_a_passage_not_found_once_stops_the_run(monkeypatch, capsys, edits, scope, found):
    assert found != 1
    mutant = Mutant("a bad passage", "chowmot/ring.py", edits, exits(1), scope=scope)
    with pytest.raises(SystemExit, match=f"once, found it {found} times"):
        run(monkeypatch, capsys, marked(exits(1)), mutant)

