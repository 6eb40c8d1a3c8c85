"""Property-based fuzzing of the CLI's inputs, formula text and model
JSON: every input ends in an exit code the CLI documents, never in an
exception, and an error is one line on stderr."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402,E501

from ddlkit.cli import main  # noqa: E402
from ddlkit.model import model_json, random_model  # noqa: E402

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


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.one_of(GRAMMAR_TEXT, TOKEN_SOUP))
def test_cli_handles_any_formula_text(text):
    for command in COMMANDS:
        code, err = _run([*command, f"--formula={text}"])
        assert code in (0, 1, 3), (command, text)
        if code == 1:
            assert len(err) == 1, (command, text)


# valid models on 1 to 8 worlds, as JSON objects; ob tables where small
BASE_MODELS = [json.loads(model_json(random_model(n, ("p", "q"), seed=n,
                                                  density=density)))
               for n, density in ((1, 0.5), (2, 0.5), (3, 0.3), (4, 0.15),
                                  (6, 0.0), (8, 0.0))]
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats()
    | st.text(max_size=3),
    lambda sub: st.lists(sub, max_size=3)
    | st.dictionaries(st.text(max_size=4), sub, max_size=3),
    max_leaves=8)


# what a mutation puts in place of a value: mostly world indices and
# world lists, which keep the model decodable but may break a condition
REPLACEMENTS = st.one_of(st.integers(-1, 8),
                         st.lists(st.integers(0, 7), max_size=4), JUNK)


def _slots(node):
    """Every (container, key) pair in a JSON value, from the root down."""
    for key in (list(node) if isinstance(node, dict) else range(len(node))):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


@st.composite
def mutated_models(draw):
    """A valid model with up to three values replaced, deleted or wrapped
    in a list."""
    obj = json.loads(json.dumps(draw(st.sampled_from(BASE_MODELS))))
    for _ in range(draw(st.integers(0, 3))):
        parent, key = draw(st.sampled_from(list(_slots(obj))))
        action = draw(st.sampled_from(("replace", "delete", "wrap")))
        if action == "delete":
            del parent[key]
        elif action == "wrap":
            parent[key] = [parent[key]]
        else:
            parent[key] = draw(REPLACEMENTS)
        if not obj:
            break
    return json.dumps(obj)


MODEL_TEXT = st.one_of(
    mutated_models(),
    mutated_models(),
    mutated_models().flatmap(lambda text: st.integers(0, len(text)).map(
        lambda cut: text[:cut])),
    JUNK.map(json.dumps),
    st.integers(1, 5000).map(lambda depth: '{"worlds": 1, "av": '
                             + "[" * depth))


# a dropped member or an atom without valuation is a warning on stderr,
# which is what the CLI should print for such models
@pytest.mark.filterwarnings("ignore::ddlkit.model.ModelWarning",
                            "ignore::ddlkit.checker.MissingAtomWarning")
@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(MODEL_TEXT)
def test_cli_handles_any_model_json(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    for argv in (["validate-model", str(path)],
                 ["check", "--model", str(path), "--formula", "Oa p | [p]q"]):
        code, err = _run(argv)
        assert code in (0, 1, 2), (argv[0], text)
        if code == 1:
            assert len(err) == 1, (argv[0], text)
        assert not any("internal:" in line for line in err), (argv[0], text)
