import importlib
import inspect
import pkgutil

import csq


def test_all_lists_exactly_the_public_names_defined():
    """Every csq module with an ``__all__`` lists each public function and
    class it defines, once, and nothing else, so a deleted or new name
    cannot leave the export list stale."""
    checked = 0
    for info in pkgutil.iter_modules(csq.__path__):
        module = importlib.import_module(f"csq.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        assert sorted(module.__all__) == sorted(defined), module.__name__
        checked += 1
    assert checked >= 4
