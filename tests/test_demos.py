"""Each demo prints exactly the output recorded for it.

The demos print only exact results, so any change to the algebra that moves
an operator, a product or a check shows up here as a different digest.  The
output does not depend on PYTHONHASHSEED.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout
DIGESTS = {
    "01_laurent_arithmetic.py": "5e10782d851d329213be3de2acc4f8b40c7fe9c7d78e6146c4e5575866a419de",
    "02_flag_counting_oracle.py": "25007b30ab65695d14bf9dad08f360513733a57e437c1a98fd438b982a6b17e0",
    "03_schur_algebra.py": "c7f4bd270ae134d74c10ec1f0656a0333f0d92faf43a5f4aed96aa76baa0f172",
    "04_hecke_and_duality.py": "50fc3229eda10bed9e716f7b8fc7b9058e420a992c7aa9c138f5965e9e79b3f5",
    "05_presented_algebra.py": "4539f5537ccc7cd1a8f939061d8a315f71fb7d6c28e261e2129418f91048188e",
    "06_stabilization.py": "87be49784fb5a8eb0c09c7971a9a21dddfa0d65f86ed7e178587a953cb0f4dc9",
    "07_jparity_and_descent.py": "350eb3102ca37c230ff861879479d416ab42d2e6e642ae9df60f8e52c677cbd1",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_digest(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
