import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py"

# ten samples 1.0 .. 1.9: median 1.45, quartiles 1.225 and 1.675, so the IQR is 0.45
BASE = [1.0 + 0.1 * i for i in range(10)]


@pytest.fixture(scope="module")
def bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def shifted(shift: float, same=(), worse=()) -> list[float]:
    """BASE lowered by `shift`, except pairs `same` (a tie) and `worse` (the head loses)."""
    return [x if i in same else x + 1.0 if i in worse else x - shift for i, x in enumerate(BASE)]


@pytest.mark.parametrize("head, wins, ties, met", [
    (shifted(1.0), 10, 0, True),
    (shifted(1.0, worse=[0]), 9, 0, True),  # 9 in 10 is enough
    (shifted(1.0, worse=[0, 9]), 8, 0, False),
    (shifted(1.0, same=[9]), 9, 1, True),
    (shifted(1.0, same=[0, 9]), 8, 2, False),  # a tie counts for neither side
    (shifted(0.4), 10, 0, False),  # every pair won, but by less than the base's IQR
    ([x + 0.5 for x in BASE], 0, 0, False),
], ids=["all-won", "one-lost", "two-lost", "one-tie", "two-ties", "within-iqr", "worse"])
def test_the_gain_rule_on_ten_pairs(bench_ab, head, wins, ties, met):
    assert bench_ab.summary(BASE)["iqr"] == pytest.approx(0.45)
    assert bench_ab.gain_rule(BASE, head) == {"head_wins": wins, "ties": ties, "claim_met": met}


def test_the_gain_rule_takes_nine_tenths_of_all_pairs_run(bench_ab):
    base = BASE + BASE
    assert bench_ab.gain_rule(base, [x - 1.0 for x in base[:18]] + base[18:])["claim_met"]
    assert not bench_ab.gain_rule(base, [x - 1.0 for x in base[:17]] + base[17:])["claim_met"]
