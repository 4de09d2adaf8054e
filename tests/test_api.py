"""The public surface: its settable values, counted, its exception classes,
listed, the size of the package source, counted, and the README's library
quick start, run.

Every parameter of a public callable is a value a caller can set, and each
one must be tested and documented. The count below makes a new keyword, a
new dataclass field or a new public method's parameter a deliberate edit of
this file; removing one lowers the expected total. The class list and the
code-line count do the same for new exception classes and for growing the
source.
"""

import ast
import builtins
import importlib
import inspect
import io
import tokenize
from pathlib import Path

from bifidelity import errors
from bifidelity.models import DiffusionConfig, diffusion_pair, draw_diffusion_samples

MODULES = ["bifidelity", "bifidelity.bound", "bifidelity.linalg", "bifidelity.snapio",
           "bifidelity.snapshots", "bifidelity.interp", "bifidelity.lifting",
           "bifidelity.models"]

PUBLIC_PARAMETERS = 84

#: Code lines of ``src/bifidelity/*.py``, counted by :func:`code_lines`.
SRC_CODE_LINES = 1351

SRC = Path(__file__).resolve().parents[1] / "src" / "bifidelity"

#: Each class of ``bifidelity.errors`` and its bases: the two branches the
#: CLI maps to exit 2 and 3, and the classes the README names.
ERROR_CLASSES = {
    "DataError": ("ValueError",),
    "NumericalError": ("ArithmeticError",),
    "NonFiniteInput": ("DataError",),
    "DimensionMismatch": ("DataError",),
    "OutOfBounds": ("DataError",),
    "NoConvergence": ("NumericalError",),
    "ToleranceUnreachable": ("NumericalError",),
    "AllCombinationsInvalid": ("NumericalError",),
    "DegenerateError": ("NumericalError",),
}


def _parameter_names(name, obj):
    """``name(param)`` for every parameter of a function, or of a class's
    constructor and its public methods, classmethods and staticmethods."""
    names = [f"{name}({p})" for p in inspect.signature(obj).parameters]
    if not inspect.isclass(obj):
        return names
    for attr, member in vars(obj).items():
        func = getattr(member, "__func__", member)  # unwrap class/staticmethods
        if attr.startswith("_") or not inspect.isfunction(func):
            continue  # private names, properties and constants
        params = list(inspect.signature(func).parameters)
        if not isinstance(member, staticmethod):
            params = params[1:]  # self or cls
        names += [f"{name}.{attr}({p})" for p in params]
    return names


def public_parameters():
    seen = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            seen.setdefault((obj.__module__, obj.__qualname__),
                            _parameter_names(name, obj))
    return [p for names in seen.values() for p in names]


def test_public_parameter_count_is_pinned():
    params = public_parameters()
    assert len(params) == len(set(params))
    assert len(params) == PUBLIC_PARAMETERS, params


def test_exception_classes_are_pinned():
    defined = {name: tuple(base.__name__ for base in cls.__bases__)
               for name, cls in vars(errors).items()
               if isinstance(cls, type) and cls.__module__ == errors.__name__}
    assert defined == ERROR_CLASSES


def _raised_names():
    """The name of the class each ``raise`` in the package source raises
    (a bare ``raise`` re-raises and names none)."""
    names = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.append(exc.id if isinstance(exc, ast.Name) else ast.unparse(exc))
    return names


def test_every_raise_names_a_package_or_builtin_exception():
    raised = _raised_names()
    for name in raised:
        assert name in ERROR_CLASSES or (
            isinstance(getattr(builtins, name, None), type)
            and issubclass(getattr(builtins, name), BaseException)), name
    # a class nothing raises is one no caller can act on
    assert set(ERROR_CLASSES) - {"DataError", "NumericalError"} <= set(raised)


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text):
    """The physical lines of ``text`` that a token other than a comment, a
    line end, an indent, a dedent or the end marker touches, outside the
    docstring of the module and of every class and function."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    touched = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            touched.update(range(tok.start[0], tok.end[0] + 1))
    return len(touched - docstrings)


def test_code_line_count_is_pinned():
    assert code_lines('"""doc"""\n\n# note\ndef f():\n    """doc\n    """\n'
                      '    return (1,\n            2)  # two lines\n') == 3
    files = sorted(SRC.glob("*.py"))
    assert len(files) == 10
    assert sum(code_lines(f.read_text("utf-8")) for f in files) == SRC_CODE_LINES



def readme_python_block(heading):
    """The first python block of the README section under ``heading``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_quick_start_runs(capsys):
    high, low = diffusion_pair(draw_diffusion_samples(200, seed=1),
                               DiffusionConfig(mesh_high=64))
    namespace = {"low_data": low.data, "high_data": high.data}
    exec(compile(readme_python_block("Library quick start"), "README.md", "exec"),
         namespace)
    report = namespace["report"]
    assert len(namespace["need"]) == 10
    assert namespace["estimate"].shape == high.data.shape
    assert capsys.readouterr().out == \
        f"{report.best_rho} {report.best_tau} {report.best_k}\n"
