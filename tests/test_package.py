"""The package namespace: each module lists its public names once, and the
package re-exports exactly those."""

import re
from pathlib import Path

import propersplit
from propersplit import comparison, core, double, errors, matrixfile, solvers, splitting

MODULES = (core, splitting, double, solvers, comparison, matrixfile, errors)


def test_package_all_is_the_union_of_module_lists():
    names = [name for mod in MODULES for name in mod.__all__]
    assert len(names) == len(set(names))
    assert len(propersplit.__all__) == len(set(propersplit.__all__))
    assert set(propersplit.__all__) == {"__version__", *names}
    assert "annotations" not in propersplit.__all__


def test_each_name_is_the_modules_own_object():
    for mod in MODULES:
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert getattr(propersplit, name) is obj
            # functions and classes are defined where they are listed
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__, name


# the README's code runs as written, so it cannot name a removed function
def test_readme_python_blocks_run():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
