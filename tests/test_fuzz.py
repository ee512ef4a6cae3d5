"""Fuzzing the three parsers through ``framedskein eval``.

Every text must give a value (exit 0), an input error (exit 2) or a
budget error (exit 3), with at most one line on standard error.  An
uncaught exception fails the test with its traceback.

Braid letters keep small strand indices and powers: a word such as
``s400`` or ``s1^99999999`` is valid but needs far more time or memory
than a test run has (see ROADMAP item 7), so random strings are not fed
to the braid parser.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from framedskein.cli import EXIT_BUDGET, EXIT_OK, EXIT_PARSE, main

FUZZ = settings(max_examples=150, deadline=None)


def check_eval(text: str, fmt: str, ring: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["eval", f"--text={text}", "--format", fmt,
                     "--ring", ring, "--node-budget", "5000"])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_BUDGET)
    assert err.getvalue().count("\n") <= 1
    assert (out.getvalue() != "") == (code == EXIT_OK)


rings = st.sampled_from(["laurent", "series"])
labels = st.sampled_from(["1", "2", "3", "4", "5", "6", "a", " ", ""])
pd_line = st.one_of(
    st.just("O"),
    st.builds(lambda tag, labs: f"{tag}[{','.join(labs)}]",
              st.sampled_from(["X", "F", "Y", "X "]),
              st.lists(labels, min_size=3, max_size=5)))
pd_text = st.lists(pd_line, max_size=4).map("\n".join)

gauss_token = st.builds(lambda role, name, sign: role + name + sign,
                        st.sampled_from(["O", "U", "X", ""]),
                        st.sampled_from(["1", "2", "a", ""]),
                        st.sampled_from(["+", "-", ""]))


@st.composite
def gauss_text(draw):
    # An over and an under visit of each crossing, shuffled, cut into
    # components, with now and then a stray token.
    signs = draw(st.lists(st.sampled_from("+-"), max_size=5))
    tokens = [f"{role}{i + 1}{sign}" for i, sign in enumerate(signs)
              for role in "OU"]
    tokens = draw(st.permutations(tokens))
    tokens += draw(st.lists(gauss_token, max_size=1))
    cuts = sorted(draw(st.lists(st.integers(0, len(tokens)), max_size=2)))
    return "\n".join(" ".join(tokens[i:j]) for i, j in
                     zip([0, *cuts], [*cuts, len(tokens)]))


braid_letter = st.builds(lambda s, k, power: f"{s}{k}{power}",
                         st.sampled_from(["s"] * 8 + ["S", ""]),
                         st.sampled_from(["1", "2", "3"] * 3
                                         + ["0", "-1", "x"]),
                         st.sampled_from(["", "^-1"] * 4
                                         + ["^2", "^0", "^-3", "^", "^x"]))
braid_text = st.lists(braid_letter, max_size=8).map(" ".join)


@FUZZ
@given(pd_text, rings)
def test_pd_texts(text, ring):
    check_eval(text, "pd", ring)


@FUZZ
@given(gauss_text(), rings)
def test_gauss_texts(text, ring):
    check_eval(text, "gauss", ring)


@FUZZ
@given(braid_text, rings)
def test_braid_texts(text, ring):
    check_eval(text, "braid", ring)


@FUZZ
@given(st.text(max_size=40), st.sampled_from(["pd", "gauss"]))
def test_random_strings(text, fmt):
    check_eval(text, fmt, "laurent")
