"""Every public function, class and method of ``src/dsfusion`` has a caller: its name occurs
in package code outside its own definition and outside ``__init__.py``, or in code under
``bench/``. A name that only the tests reach is a claim about the package that no command,
classifier or benchmark runs. Reads source text only; nothing is imported."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "dsfusion").glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))

# The public names that need no caller, each with its reason.
UNCALLED = {
    "train_binary": "the documented single-model trainer of the binary classifiers",
    "train_three_class": "the documented single-model trainer of the three-class classifier",
}


def public_definitions(tree):
    """(name, node) of each public module-level function and class, and of each public
    method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def names_in(tree, strings):
    """How often each name is read in ``tree``: as a name, as an attribute, and with
    ``strings`` as a whole string constant that is not a dict key (``data.TASKS`` names each
    classifier by string; a key such as the report's ``"conflict"`` names a field)."""
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict) for key in node.keys}
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in keys):
            counts[node.value] += 1
    return counts


def uncalled_names():
    """``module:name`` of each public definition whose name is read nowhere else."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    # bench/tracing.py names builders that no longer exist as strings, so only code that
    # reads a name counts there.
    used = sum((names_in(tree, strings=True) for tree in trees.values()), Counter())
    used += sum((names_in(ast.parse(p.read_text(encoding="utf-8")), strings=False)
                 for p in BENCH), Counter())
    return {f"{module}:{name}" for module, tree in trees.items()
            for name, node in public_definitions(tree)
            if used[name] == names_in(node, strings=True)[name]}


def test_every_public_name_has_a_caller_in_src_or_bench():
    uncalled = {entry.partition(":")[2]: entry for entry in uncalled_names()}
    missing = sorted(entry for name, entry in uncalled.items() if name not in UNCALLED)
    assert not missing, f"no command, classifier or benchmark reads {missing}"
    # An exception whose name has gained a caller is no longer needed.
    assert set(UNCALLED) <= set(uncalled)
