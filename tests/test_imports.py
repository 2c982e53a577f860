import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import assocspectra as a

# the package's public names, which assocspectra.__all__ lists
PUBLIC = [
    "Bracketing", "CapExceededError", "ClosureReport", "DEFAULT_MAX_BRACKETINGS",
    "DEFAULT_MAX_CELLS", "GALLERY_ENTRIES", "Groupoid", "LabeledBracketing", "ParseError",
    "Partition", "RingCheckReport", "SchemaError", "SpectrumPrefix", "TermFunction",
    "TruncatedRing", "UnsupportedOperationError", "assoc_spectrum", "beta", "beta_update",
    "build_prefix", "catalan", "coatom_census", "count_m", "covers", "delta", "direct_product",
    "dldr_sigma", "dump_groupoid", "egg_pairs", "enumerate_bracketings", "enumerate_leaves",
    "enumerate_m", "eval_term", "fine_level", "fine_spectrum", "format_partition",
    "format_spectrum_prefix", "format_tuple", "from_tuple", "gallery", "gamma", "is_associative",
    "leaf", "left_associated", "left_factor_sigma", "left_lengths", "left_right_depth",
    "load_groupoid", "node", "parse_bracketing", "parse_partition", "parse_spectrum_prefix",
    "parse_tuple", "partition_meet", "quotient_from_spectrum", "render_bracketing",
    "ring_closed_form_check", "sigma_a", "tail_tuple_sigma", "tau", "term_function", "to_tuple",
    "verify_closed",
]
MODULES = ("errors", "terms", "insertion", "spectra", "groupoids")

# Imports numpy and the package, then runs every library layer and three CLI
# commands, and prints the numpy modules that appeared after the first import.
SCRIPT = r"""
import contextlib, io, json, os, random, sys, tempfile
import numpy
import assocspectra as a
from assocspectra import Partition, SpectrumPrefix
from assocspectra.cli import main

before = set(sys.modules)
egg4 = a.gallery("egg4")
a.fine_level(egg4, 5)
a.assoc_spectrum(egg4, 5)
rng = random.Random(3)
list(a.fine_spectrum(a.Groupoid(3, 2, [rng.randrange(2) for _ in range(8)]), 4))
assert a.ring_closed_form_check(16, 5, trials=3).ok
assert a.verify_closed(a.build_prefix(a.tau, 6)).closed
a.delta(a.tau(5))
a.coatom_census(3)
a.quotient_from_spectrum(SpectrumPrefix(
    [Partition.equality(n, 2) for n in range(2)] + [Partition.full(n, 2) for n in range(2, 7)]), 2)
for t in a.enumerate_bracketings(4, 3):
    assert a.from_tuple(a.to_tuple(t), 3) == t
with tempfile.TemporaryDirectory() as tmp:
    table = os.path.join(tmp, "egg4.json")
    with open(table, "w", encoding="utf-8") as f:
        json.dump(a.dump_groupoid(egg4), f)
    for argv in (["enum", "--p", "2", "--n", "6", "--format", "infix"],
                 ["spectrum", table, "--max-n", "5", "--fine"],
                 ["verify", "--builtin", "tau", "--max-n", "6"]):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0, argv
        assert out.getvalue(), argv
print(" ".join(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy")))
"""


def test_library_and_cli_load_no_further_numpy_module():
    # numpy loads some submodules (numpy.ma, numpy.random, ...) only when first
    # used; a cold process should not pay for ones the package never needs
    src = str(Path(a.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def star_names(module: str) -> set:
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    return set(namespace) - {"__builtins__"}


def test_package_exports_the_public_names():
    assert a.__all__ == PUBLIC
    assert star_names("assocspectra") == set(PUBLIC)


def test_each_module_lists_the_names_it_defines():
    # each public name is stated once: in the __all__ of the module that defines it
    listed = []
    for name in MODULES:
        module = importlib.import_module(f"assocspectra.{name}")
        body = ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body
        defined = {node.name for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        defined |= {target.id for node in body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        assert set(module.__all__) <= defined, name
        assert star_names(module.__name__) == set(module.__all__), name
        listed += module.__all__
    assert sorted(listed) == PUBLIC  # so no name is listed twice
