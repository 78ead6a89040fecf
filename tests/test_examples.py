"""Every example script runs to completion at a small size.

The examples drive the public API end to end (writers, codecs, readers), so a
change to any of them that breaks a documented flow fails here.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXAMPLES = [
    ["quickstart.py"],
    ["nyx_insitu.py", "--steps", "1", "--size", "24"],
    ["warpx_insitu.py", "--steps", "1"],
    ["rate_distortion_study.py", "--size", "16"],
]


def test_every_example_is_listed():
    listed = {args[0] for args in EXAMPLES}
    assert listed == {name for name in os.listdir(os.path.join(ROOT, "examples"))
                      if name.endswith(".py")}


@pytest.mark.parametrize("args", EXAMPLES, ids=lambda args: args[0])
def test_example_exits_zero(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "examples", args[0]), *args[1:]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
