"""CLI exit-code fuzz: every bounded input ends in exit 0 or exit 2.

Calls cli.main in process.  An argparse rejection raises SystemExit with
its own code; anything else that escapes main fails the test.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from cohomix.cli import main

FIELDS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["", "0", "-0", "+1", "-1", "+", "-", " 2", "x", "_", "1_0", "١"]),
)


def exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(deadline=None, max_examples=60)
@given(st.lists(FIELDS, min_size=1, max_size=7).map(",".join))
def test_b2_check(text):
    code = exit_code(["b2", "check", "--poincare=" + text])
    # an underscore or a non-ASCII digit is no integer
    assert code == 2 if "_" in text or "١" in text else code in (0, 2)


@settings(deadline=None, max_examples=60)
@given(st.integers(-2, 8), st.integers(-2, 10), st.sampled_from(["cells", "regular-sequence"]))
def test_grass_poincare(n, k, method):
    argv = ["grass", "poincare", "--n=%d" % n, "--k=%d" % k, "--method", method]
    assert exit_code(argv) in (0, 2)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 4), st.text(alphabet="0123,;- x_١", max_size=10))
@example(k=0, triple="--")
@example(k=1, triple="0_1;;")  # int() reads (1)
def test_hilb_embed(k, triple):
    code = exit_code(["hilb", "embed", "--k=%d" % k, "--triple=" + triple])
    assert code == 2 if "_" in triple or "١" in triple else code in (0, 2)


@pytest.mark.parametrize("argv", [
    ["hilb", "embed", "--k=2", "--triple=--"],
    ["b2", "check", "--poincare=--"],
    ["hilb", "betti", "--k=--"],
    ["b2", "jordan", "--k=--"],
    ["grass", "presentation", "--n=--", "--k=2"],
    ["grass", "poincare", "--n=4", "--k=2", "--method=--"],
])
def test_double_dash_value_exits_2(argv):
    # argparse parses an option value of "--" as [], past type= and choices=
    assert exit_code(argv) == 2
