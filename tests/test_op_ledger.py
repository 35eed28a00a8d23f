"""The per-package call ledger behind ``scripts/ci_smoke.py op-ledger``.

The ledger buckets a cProfile run's calls by package.  Its counts are
exact pins, so a function that the profiler saw must be counted once
per code object, whatever its file, first line and name.
"""

import cProfile
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ci_smoke = _load("ci_smoke", ROOT / "scripts" / "ci_smoke.py")

#: Two functions that open on one line share (file, first line, name),
#: as two comprehensions on one line do where the interpreter does not
#: inline them; lambdas collide the same way on every interpreter.
TOY = """\
first, second = (lambda: 1), (lambda: 2)


def run():
    for _ in range(2):
        first()
    for _ in range(3):
        second()
    return len("toy")
"""


def test_functions_sharing_a_line_are_each_counted(tmp_path):
    (tmp_path / "toy.py").write_text(TOY)
    toy = _load("toy", tmp_path / "toy.py")
    profile = cProfile.Profile()
    profile.runcall(toy.run)
    counts = ci_smoke.ledger_counts(profile, str(tmp_path))
    # ``run`` once, the first lambda twice and the second three times;
    # a ledger keyed like ``pstats`` kept one lambda's count.
    assert counts["toy"] == 1 + 2 + 3
    # ``len`` is a C function: it counts in the NumPy + builtins bucket,
    # and no other frame is counted.
    assert set(counts) == {"toy", "numpy+builtins"}
    assert counts["numpy+builtins"] >= 1
