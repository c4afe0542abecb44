"""Importing the package keeps numpy and OpenSSL out of the process.

numpy adds about 11 MB to the 18 MB of a process that imports ``splfr``,
more than the benchmark's 15% ``peak_rss_mb`` bound allows, so no module of
``splfr`` may import it.  OpenSSL (``_hashlib``, which ``hashlib`` and
``secrets`` load) adds about 3.5 MB, a fifth of the process, so only
``sim run``, which hashes its decodes, may load it.  The checks run in a
fresh interpreter, where nothing else has loaded either.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("splfr", "splfr.field", "splfr.pda", "splfr.engine", "splfr.audit",
          "splfr.tradeoff", "splfr.cli")
OPENSSL = ("hashlib", "_hashlib", "secrets", "hmac")
# one command of every kind but ``sim run``
COMMANDS = (
    ["audit", "security", "--pda", "man:2,1", "--n", "2", "--b", "2", "--field", "p:2"],
    ["bounds", "check", "--n", "2", "--k", "2"],
    ["gap", "check", "--n", "2", "--k", "2"],
    ["curves", "emit", "--n", "2", "--k", "2", "--out", "{tmp}/curves.json"],
    ["pda", "man", "--k", "3", "--t", "1"],
    ["toy"],
)
SIM = ["sim", "run", "--pda", "man:3,1", "--n", "4", "--b", "3", "--field", "p:2",
       "--seed", "7"]


def fresh(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_importing_splfr_loads_no_numpy():
    fresh(
        "import sys, splfr, splfr.cli\n"
        "assert 'splfr.cli' in sys.modules\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )


def test_only_sim_run_loads_openssl(tmp_path):
    commands = [[arg.format(tmp=tmp_path) for arg in argv] for argv in COMMANDS]
    fresh(
        "import importlib, sys\n"
        f"for name in {LAYERS!r}:\n"
        "    importlib.import_module(name)\n"
        "from splfr.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        f"loaded = [name for name in {OPENSSL!r} if name in sys.modules]\n"
        "assert not loaded, f'{loaded} were imported'\n"
        f"assert main({SIM!r}) == 0\n"
        "assert 'hashlib' in sys.modules, 'sim run hashed without hashlib'\n"
    )
