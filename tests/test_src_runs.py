"""Every function that src/mbcr ships runs in one seeded CLI session.

The session encodes a file, reconstructs it from exactly k shares, from
k + 1 and with a corrupt extra share, repairs under --seed and under
--helpers, verifies over GF(p) and over GF(256) with an injected fault,
and runs bound, params and simulate. It runs in a fresh interpreter under
sys.setprofile: the lru_cache entries that other tests leave behind would
otherwise hide calls. Then every module-level function and every method
defined in src/mbcr must have been called, but for the names in NOT_RUN.
Each entry there gives the reason it may not run, and leaves the list
when that reason no longer holds: for the tracer's names, when ROADMAP
items 1 and 6 land. The list must name exactly what did not run, so a
stale entry fails too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

TRACER = "wrapped by bench/tracer.py (ROADMAP items 1 and 6)"
ACCEPTANCE = "imported by tests/test_acceptance.py"
NOT_RUN = {
    "poly.BiPoly.from_coeffs": TRACER,
    "poly.BiPoly.f_at": TRACER,
    "poly.BiPoly.g_at": TRACER,
    "poly.BiPoly.eval": TRACER,
    "sharefile.file_to_stripes": TRACER,
    "sharefile.stripes_to_file": TRACER,
    "sharefile.ShareFile.stripes": TRACER,
    "subspace.intersect": TRACER,
    "subspace.rank": ACCEPTANCE,
    "subspace.space_sum": ACCEPTANCE,
    "subspace._check_ambient": ACCEPTANCE + ", through space_sum",
    "repair.find_forwarding_witness": ACCEPTANCE,
    "gf.Field.__reduce__": "the copy and pickle protocol",
}

SESSION = r"""
import contextlib, importlib, inspect, io, json, pkgutil, random, sys
from pathlib import Path

called = set()
sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))

import mbcr
from mbcr.cli import main


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


work = Path(sys.argv[1])
share = lambda i: str(work / "s" / f"share_{i:03d}.mbcr")
code = ["-n", "6", "-k", "2", "-d", "3", "-r", "2"]
(work / "in.bin").write_bytes(random.Random(1).randbytes(100))
codes = [run("encode", *code, str(work / "in.bin"), "--out", str(work / "s"))]
bad = bytearray(Path(share(6)).read_bytes())
bad[-1] ^= 1
(work / "bad.mbcr").write_bytes(bytes(bad))
helpers = [share(i) for i in (3, 4, 5, 6)]
codes += [
    run("reconstruct", share(1), share(4), "--out", str(work / "k.bin")),
    run("reconstruct", share(1), share(4), share(6), "--out", str(work / "k1.bin")),
    run("reconstruct", share(1), share(4), str(work / "bad.mbcr"), "--out", str(work / "x.bin")),
    run("repair", *helpers, "--failed", "1,2", "--seed", "3", "--out", str(work / "r1")),
    run("repair", *helpers, "--failed", "1,2", "--helpers", "1:3+4+5;2:4+5+6",
        "--out", str(work / "r2")),
    run("verify", *code, "--seed", "1"),
    run("verify", *code, "--seed", "1", "--gf256", "--inject-fault"),
    run("bound", *code),
    run("params", *code),
    run("simulate", *code, "--stages", "3", "--seed", "1"),
]
sys.setprofile(None)


def functions(owner):
    # (name, function) for each function, method, property or cached
    # property defined on owner, unwrapped from caches and descriptors.
    for name, obj in vars(owner).items():
        obj = getattr(obj, "__func__", obj)
        obj = inspect.unwrap(getattr(obj, "fget", None) or getattr(obj, "func", None) or obj)
        if inspect.isfunction(obj):
            yield name, obj


package = Path(mbcr.__file__).parent
not_run = []
for info in pkgutil.iter_modules(mbcr.__path__):
    module = importlib.import_module(f"mbcr.{info.name}")
    owners = [(info.name, module)]
    classes = ((name, inspect.unwrap(obj)) for name, obj in vars(module).items())
    owners += [(f"{info.name}.{name}", cls) for name, cls in classes
               if inspect.isclass(cls) and cls.__module__ == module.__name__]
    for prefix, owner in owners:
        for name, fn in functions(owner):
            if Path(fn.__code__.co_filename).parent == package and fn.__code__ not in called:
                if owner is not module or fn.__module__ == module.__name__:
                    not_run.append(f"{prefix}.{name}")
print(json.dumps({"codes": codes, "not_run": sorted(not_run)}))
"""


def test_a_cli_session_runs_every_function_in_src(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SESSION, str(tmp_path)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    report = json.loads(proc.stdout)
    # encode; reconstruct from k, k + 1 and a corrupt extra; repair twice;
    # verify, and with a fault; bound, params and simulate.
    assert report["codes"] == [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0]
    assert sorted(set(report["not_run"]) - set(NOT_RUN)) == []
    assert sorted(set(NOT_RUN) - set(report["not_run"])) == []
