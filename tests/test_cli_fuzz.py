"""Property-based fuzzing of formula text through the CLI: every input
ends in exit code 0, 1 or 3, never in an exception, and an error is one
line on stderr."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ddlkit.cli import main  # noqa: E402

# the grammar's tokens, a few names it reserves, and some broken tokens
TOKENS = ["p", "q", "q0", "av", "ob", "not", "T", "F", "~", "|", "&", "->",
          "<->", "[]", "[a]", "[p]", "<>", "<a>", "<p>", "Oa", "Op", "O(",
          "/", "(", ")", "-", "<", "[", "Oab", "$"]
TOKEN_SOUP = st.lists(st.sampled_from(TOKENS), max_size=10).map(" ".join)

# well-formed text, whose leaves may still be reserved (`av`, `q0` with T)
LEAVES = st.sampled_from(["p", "q", "p", "q", "q0", "T", "F", "av"])
PREFIXES = st.sampled_from(["~", "[]", "[a]", "[p]", "<>", "<a>", "<p>",
                            "Oa ", "Op "])
BINARIES = st.sampled_from(["|", "&", "->", "<->"])


def _compound(sub):
    return st.one_of(
        st.tuples(PREFIXES, sub).map("".join),
        st.tuples(sub, BINARIES, sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, sub).map(lambda t: f"O({t[0]} / {t[1]})"))


GRAMMAR_TEXT = st.recursive(LEAVES, _compound, max_leaves=6)

COMMANDS = [["valid", "--samples", "3"], ["embed"], ["embed", "--thf", "-"]]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.one_of(GRAMMAR_TEXT, TOKEN_SOUP))
def test_cli_handles_any_formula_text(text):
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, f"--formula={text}"])
        assert code in (0, 1, 3), (command, text)
        if code == 1:
            assert len(err.getvalue().splitlines()) == 1, (command, text)
