"""The package namespace: the qutrit layer and numpy load on first use."""

import json
import os
import subprocess
import sys

import pytest

import kshg
import kshg.linalg3

LINALG3_NAMES = ("EigenDecomposition", "Hermitian3", "Ray", "eigensystem", "overlap",
                 "projector", "projector_sum")


def fresh_interpreter(script: str, cwd) -> dict:
    """The JSON object that `script` prints, run in a new interpreter that
    imports kshg from this checkout."""
    src = os.path.dirname(os.path.dirname(kshg.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


NUMPY_PER_COMMAND = """
import contextlib, io, json, sys
import kshg, kshg.cli
seen = {"import": "numpy" in sys.modules}
commands = [
    ["gen", "torus-lattice", "--mx", "3", "--my", "4", "-o", "t.hg"],
    ["bound", "t.hg"],
    ["mis", "t.hg", "--max-vertices", "1000"],
    ["expand", "t.hg", "--dot", "t.dot"],
    ["demo", "clifton", "--n", "3"],
    ["check", "decomposition", "--trials", "20"],
    ["gen", "wheel7", "--rays-out", "w7.rays", "-o", "w7.hg"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = kshg.cli.main(argv)
    seen[" ".join(argv[:2])] = (code, "numpy" in sys.modules)
print(json.dumps(seen))
"""


def test_integer_commands_run_without_numpy(tmp_path):
    seen = fresh_interpreter(NUMPY_PER_COMMAND, tmp_path)
    assert seen == {
        "import": False,
        "gen torus-lattice": [0, False],
        "bound t.hg": [0, False],
        "mis t.hg": [0, False],
        "expand t.hg": [0, False],
        "demo clifton": [0, False],
        "check decomposition": [0, False],
        # the demo rays are the first complex vectors, and load numpy
        "gen wheel7": [0, True],
    }


LAZY_NAMES = """
import json, sys
import kshg
before = {"dir": sorted(set(dir(kshg)) & set(kshg.__all__)),
          "bound": sorted(set(vars(kshg)) & set(kshg.__all__)),
          "numpy": "numpy" in sys.modules}
ray = kshg.Ray
after = {"bound": sorted(set(vars(kshg)) & set(kshg.__all__)),
         "numpy": "numpy" in sys.modules,
         "same": ray is sys.modules["kshg.linalg3"].Ray}
print(json.dumps({"all": sorted(kshg.__all__), "before": before, "after": after}))
"""


def test_lazy_names_are_listed_before_and_bound_after_first_use(tmp_path):
    seen = fresh_interpreter(LAZY_NAMES, tmp_path)
    everything = seen["all"]
    assert seen["before"] == {
        "dir": everything,
        "bound": sorted(set(everything) - set(LINALG3_NAMES)),
        "numpy": False,
    }
    # one read binds all seven, so later reads are plain attribute reads
    assert seen["after"] == {"bound": everything, "numpy": True, "same": True}


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from kshg import *", namespace)
    assert set(kshg.__all__) <= set(namespace)
    for name in kshg.__all__:
        assert namespace[name] is getattr(kshg, name)
    assert kshg.Ray is kshg.linalg3.Ray
    for name in LINALG3_NAMES:
        assert getattr(kshg, name) is getattr(kshg.linalg3, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'kshg' has no attribute 'no_such_name'$"):
        kshg.no_such_name
    assert not hasattr(kshg, "no_such_name")
