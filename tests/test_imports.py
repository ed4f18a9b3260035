"""No module of the package reaches into numpy's or scipy's private names
(ROADMAP item 12), apart from the imports listed in KNOWN, each with the
item that removes it. A private name is a dotted part that starts with an
underscore and is not a dunder such as `__version__`."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mvmdp"
ROOTS = ("numpy", "scipy")

# module -> private numpy/scipy names it imports, and the ROADMAP item that removes each
KNOWN = {
    "evaluation": {"numpy.linalg._umath_linalg": "item 4"},
    "model": {"scipy.sparse.csgraph._traversal._connected_components_directed": "item 12"},
}


def _private(part: str) -> bool:
    return part.startswith("_") and not (part.startswith("__") and part.endswith("__"))


def private_names(source: str) -> set:
    """The private numpy/scipy names `source` uses: each absolute import
    of one, and each attribute chain that reaches one from a name bound to
    a numpy or scipy module (`np.linalg._umath_linalg`), up to its first
    private part."""
    tree = ast.parse(source)
    aliases, found = {}, set()

    def bind(name, local, target):
        if name.split(".")[0] in ROOTS:
            aliases[local] = target
            if any(map(_private, name.split("."))):
                found.add(name)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                # `import a.b` binds a to a, and `import a.b as c` binds c to a.b
                top = a.name.split(".")[0]
                bind(a.name, a.asname or top, a.name if a.asname else top)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for a in node.names:
                name = f"{node.module}.{a.name}"
                bind(name, a.asname or a.name, name)
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases:
            first = next((k for k, attr in enumerate(attrs) if _private(attr)), None)
            if first is not None:
                found.add(".".join([aliases[node.id], *attrs[: first + 1]]))
    return found


def test_only_the_known_private_imports():
    got = {}
    for path in sorted(SRC.glob("*.py")):
        names = private_names(path.read_text(encoding="utf-8"))
        if names:
            got[path.stem] = names
    assert got == {module: set(names) for module, names in KNOWN.items()}, (
        "a module imports a private numpy or scipy name; use the public API, or "
        "drop an entry of KNOWN once its item removes the import"
    )


@pytest.mark.parametrize("source, want", [
    ("import numpy._core", {"numpy._core"}),
    ("import numpy._core as core", {"numpy._core"}),
    ("from scipy.linalg import _flapack", {"scipy.linalg._flapack"}),
    ("from scipy.sparse.csgraph._traversal import connected_components",
     {"scipy.sparse.csgraph._traversal.connected_components"}),
    ("import numpy as np\nx = np.linalg._umath_linalg.__file__", {"numpy.linalg._umath_linalg"}),
    ("def f():\n    from scipy import sparse\n    return sparse._sputils",
     {"scipy.sparse._sputils"}),
    ("import numpy as np\nfrom numpy.linalg import LinAlgError\nv = np.__version__", set()),
    ("from ._private import x\nimport _thread\nimport numpy\nnumpy.linalg.solve", set()),
])
def test_private_names_finds_each_kind(source, want):
    assert private_names(source) == want
