"""Importing the package keeps numpy out of the process.

numpy adds about 13 MB to a 26 MB process, more than the benchmark's 15%
``peak_rss_mb`` bound allows, so no module of ``splfr`` may import it.  The
check runs in a fresh interpreter, where nothing else has loaded it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_splfr_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, splfr, splfr.cli\n"
        "assert 'splfr.cli' in sys.modules\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
