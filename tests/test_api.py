"""The public surface's settable values, counted.

Every parameter of a public callable is a value a caller can set, and each
one must be tested and documented. The count below makes a new keyword, a
new dataclass field or a new public method's parameter a deliberate edit of
this file; removing one lowers the expected total.
"""

import importlib
import inspect

MODULES = ["bifidelity", "bifidelity.bound", "bifidelity.linalg", "bifidelity.snapio",
           "bifidelity.snapshots", "bifidelity.interp", "bifidelity.lifting",
           "bifidelity.models"]

PUBLIC_PARAMETERS = 149


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

