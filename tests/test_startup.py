"""What a fresh `mbcr` process loads.

The file commands run the storage path only: encode, reconstruct and
repair. The proof side, `mbcr.subspace` and `mbcr.bounds` (and with
them `fractions` and `decimal`), loads only when `verify` or `bound`
first uses it. Each test runs in a fresh interpreter, since the test
modules themselves import the proof side at collection.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

STARTUP = r"""
import contextlib, io, json, os, sys
from pathlib import Path

# The code of a module runs through exec(), whether it was compiled from
# source or read from a bytecode cache, and exec() raises this audit event.
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(
    os.path.basename(getattr(args[0], "co_filename", ""))))

import mbcr.cli

work = Path(sys.argv[1])
code = ["-n", "5", "-k", "2", "-d", "3", "-r", "2"]
share = lambda i, d="s": str(work / d / f"share_{i:03d}.mbcr")
(work / "in.bin").write_bytes(bytes(range(40)))


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return mbcr.cli.main(list(argv))


def loaded():
    return {"fractions": "fractions" in sys.modules, "decimal": "decimal" in sys.modules,
            "subspace": "subspace.py" in ran, "bounds": "bounds.py" in ran}


report = {"codes": [
    run("encode", *code, str(work / "in.bin"), "--out", str(work / "s")),
    run("reconstruct", share(2), share(5), "--out", str(work / "out.bin")),
    run("repair", share(3), share(4), share(5), "--failed", "1,2", "--out", str(work / "r")),
]}
report["round_trip"] = [(work / "out.bin").read_bytes() == bytes(range(40))] + [
    Path(share(i)).read_bytes() == Path(share(i, "r")).read_bytes() for i in (1, 2)]
report["files"] = loaded()
report["codes"].append(run("params", *code))
report["params"] = loaded()
report["codes"] += [run("verify", *code, "--seed", "7"), run("bound", *code)]
report["proof"] = loaded()
print(json.dumps(report))
"""

TRACER_CONTRACT = r"""
import json, sys

import mbcr.cli

# The proof side is reachable by name before its code has run.
import mbcr.subspace
from mbcr import bounds

out = {"rank": mbcr.subspace.rank.__module__, "max_file_size": bounds.max_file_size.__module__,
       "bound_in_cli": [mbcr.cli.subspace is sys.modules["mbcr.subspace"],
                        mbcr.cli.bounds is sys.modules["mbcr.bounds"]]}

sys.path.insert(0, sys.argv[1])
import tracer

missing = []
for module, attr, _ in tracer.FUNCTIONS:
    if not callable(getattr(sys.modules[module], attr, None)):
        missing.append(f"{module}.{attr}")
for module, cls, attr, _ in tracer.METHODS:
    if attr not in vars(getattr(sys.modules[module], cls)):
        missing.append(f"{module}.{cls}.{attr}")
out["missing"] = missing
print(json.dumps(out))
"""


def _run(script, *argv):
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(proc.stdout)


def test_file_commands_never_load_the_proof_side(tmp_path):
    report = _run(STARTUP, str(tmp_path))
    # encode, reconstruct, repair; params; verify, bound.
    assert report["codes"] == [0, 0, 0, 0, 0, 0]
    assert report["round_trip"] == [True, True, True]
    assert report["files"] == {
        "fractions": False, "decimal": False, "subspace": False, "bounds": False}
    params, proof = report["params"], report["proof"]
    assert (params["fractions"], params["subspace"], params["bounds"]) == (True, False, False)
    assert (proof["subspace"], proof["bounds"]) == (True, True)


def test_every_name_the_tracer_wraps_resolves_after_importing_the_cli():
    report = _run(TRACER_CONTRACT, str(ROOT / "bench"))
    assert report == {"rank": "mbcr.subspace", "max_file_size": "mbcr.bounds",
                      "bound_in_cli": [True, True], "missing": []}
