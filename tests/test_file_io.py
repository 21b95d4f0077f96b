"""The library computes, the command line writes: no module of the package
but `cli` writes a file, makes a directory or opens one, or prints.  The
source is read with `ast`, so every call counts, not only those a test
reaches."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "extinction"
FILE_IO = {"write_text", "write_bytes", "mkdir", "open"}


def calls_outside_cli(names):
    """`file:line name` of every call to one of `names` (a bare name or an
    attribute) in the package's modules but `cli`."""
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
            if name in names:
                calls.append(f"{path.name}:{node.lineno} {name}")
    return calls


def test_only_cli_does_file_io():
    assert not calls_outside_cli(FILE_IO)


def test_only_cli_prints():
    # a library message reaches the user through a return value that cli
    # reports (as `warning: ...` on stderr), never as a raw Python warning
    assert not calls_outside_cli({"print", "warn"})
