"""One writer per artifact format: ``errors.write_json`` writes every JSON
artifact and ``pipeline``'s CSV writer every CSV artifact, so no other
module of the package writes a file."""

import ast
from pathlib import Path

from climbgen.errors import write_json

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "climbgen"
WRITERS = ("errors.py", "pipeline.py")


def _writes(call: ast.Call) -> bool:
    """Whether a call writes a file: ``write_text``, ``write_bytes``,
    ``json.dump``, or ``open`` with a mode that is not a constant read mode
    (``open(path, mode)`` and ``path.open(mode)``)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name == "dump":
        return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json"
    if name != "open":
        return False
    positional = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    modes = positional + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                    and not set(m.value) & set("wax+")) for m in modes)


def _write_calls(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _writes(node)]


def test_only_the_artifact_writers_write_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {p.name for p in modules} >= {"cli.py", "evaluation.py", "generative.py", *WRITERS}
    assert [call for p in modules if p.name not in WRITERS for call in _write_calls(p)] == []
    # the check sees the writes the two writer modules do make
    assert all(_write_calls(PACKAGE / name) for name in WRITERS)


def test_the_check_sees_every_way_of_writing():
    calls = ["p.write_text(s)", "p.write_bytes(b)", "json.dump(doc, fh)",
             "open(p, 'w')", "open(p, mode='a')", "p.open('wb')", "open(p, 'r+')", "open(p, m)"]
    reads = ["open(p)", "open(p, 'rb')", "p.open()", "p.read_text()", "json.dumps(doc)"]
    for source, writes in [(c, True) for c in calls] + [(r, False) for r in reads]:
        assert _writes(ast.parse(source).body[0].value) is writes, source


def test_write_json_format(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": 1, "a": [0.5, None]})
    assert path.read_bytes() == b'{\n "a": [\n  0.5,\n  null\n ],\n "b": 1\n}\n'
