"""The library computes, the command line writes: no module of the package
but `cli` writes a file, makes a directory or opens one.  The source is
read with `ast`, so every call counts, not only those a test reaches."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "extinction"
FILE_IO = {"write_text", "write_bytes", "mkdir", "open"}


def test_only_cli_does_file_io():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")
    assert len(modules) >= 6
    calls = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name in FILE_IO:
                calls.append(f"{path.name}:{node.lineno} {name}")
    assert not calls
