"""What importing the package loads."""

import os
import subprocess
import sys

import viscowave


def test_import_loads_only_what_set_up_needs():
    # scipy.interpolate, scipy.optimize and scipy.special take about a third
    # of a second to import, and nothing that sets up a scenario uses them
    src = os.path.dirname(os.path.dirname(os.path.abspath(viscowave.__file__)))
    code = ("import sys, viscowave; print(*(m for m in ('scipy.interpolate', "
            "'scipy.optimize', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == []
