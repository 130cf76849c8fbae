"""No src/gtail module imports, or reads as an attribute, a _name of another
gtail module: each module's private names are its own."""

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parents[1] / "src" / "gtail"


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_cross_module_use():
    # parsed, not grepped, so that a docstring naming such a function does not count
    modules = {p.stem for p in PKG.glob("*.py")}
    assert modules
    bad = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = {}  # local name -> the gtail module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gtail")):
                source = (node.module or "").removeprefix("gtail").lstrip(".")
                for a in node.names:
                    if not source and a.name in modules:
                        aliases[a.asname or a.name] = a.name
                    if private(a.name) and source != path.stem:
                        bad.append(f"{path.name}:{node.lineno}: imports {a.name} from gtail.{source or a.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and aliases.get(node.value.id, path.stem) != path.stem and private(node.attr)):
                bad.append(f"{path.name}:{node.lineno}: reads {node.value.id}.{node.attr}")
    assert not bad, "\n".join(bad)
