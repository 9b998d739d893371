"""The package's public names and the README's minimal session match the code."""

import re
from pathlib import Path

import numpy as np

import liouvlab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_the_readme_session_runs():
    assert [name for name in liouvlab.__all__ if not hasattr(liouvlab, name)] == []
    star = {}
    exec("from liouvlab import *", star)
    assert set(liouvlab.__all__) <= set(star)

    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1, "the README has one python block, its minimal session"
    session = {}
    exec(blocks[0], session)
    assert session["L"].shape == (4, 4)
    assert session["spec"].ep_order == 2  # J = 0.525 is the qubit's EP at these rates
    assert abs(np.trace(session["rho_ss"]) - 1.0) <= 1e-12
