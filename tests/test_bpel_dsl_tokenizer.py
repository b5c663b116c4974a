"""The DSL's one-regex tokenizer and its quoting round trip.

The DSL tokenizer replaced one ``shlex.split`` call per line; it must
produce exactly shlex's tokens (POSIX, whitespace split) or fail where
shlex fails.  ``condition=``, ``party=`` and
``sync`` are recognized only as unquoted tokens, and names and
conditions are written with ``\\`` and ``"`` escaped, so every name
and condition survives :func:`process_to_dsl` →
:func:`process_from_dsl`.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bpel.dsl import _split, process_from_dsl, process_to_dsl
from repro.bpel.model import (
    Assign,
    Case,
    Empty,
    Invoke,
    OnMessage,
    Pick,
    ProcessModel,
    Receive,
    Reply,
    Sequence,
    Switch,
    Terminate,
    While,
)
from repro.errors import ProcessParseError

PROCESSES = Path(__file__).resolve().parent.parent / "examples" / "processes"

#: Quotes, backslashes, the shlex whitespace set, and whitespace shlex
#: does *not* split on (unicode spaces, vertical tab, form feed).
LINE_CHARS = st.sampled_from(
    list("ab=#'\" \\\t\r\n")
    + ["\u00a0", "\u2003", "\u3000", "\x0b", "\x0c", "\x85", "é", "λ"]
)


def _shlex_or_error(text: str):
    try:
        return shlex.split(text)
    except ValueError:
        return ValueError


def split_line(text: str) -> list[str]:
    return _split(text)[0]


def _split_or_error(text: str):
    try:
        return split_line(text)
    except ValueError:
        return ValueError


@settings(max_examples=500, deadline=None)
@given(text=st.text(LINE_CHARS, max_size=24))
def test_tokenizer_equals_shlex_split(text):
    assert _split_or_error(text) == _shlex_or_error(text)


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=16))
def test_tokenizer_equals_shlex_split_on_any_text(text):
    assert _split_or_error(text) == _shlex_or_error(text)


def test_golden_lines_tokenize_like_shlex():
    for path in sorted(PROCESSES.glob("*.proc")):
        for line in path.read_text().splitlines():
            assert split_line(line) == shlex.split(line), (path, line)


def test_golden_files_render_unchanged():
    """Rendering the parsed golden documents gives the files back."""
    for path in sorted(PROCESSES.glob("*.proc")):
        text = path.read_text()
        assert process_to_dsl(process_from_dsl(text)) == text.rstrip("\n")


def test_unclosed_quote_names_the_line():
    with pytest.raises(ProcessParseError, match="line 2"):
        process_from_dsl('process p party=P\n  sequence "open\n')


# -- round trip ---------------------------------------------------------------

#: Single-line printable text (``str.isprintable``: no "Other" or
#: "Separator" character but the ASCII space), weighted towards the
#: characters the DSL quotes and escapes.
printable = st.text(
    st.one_of(
        st.sampled_from(list(" \"'\\=#")),
        st.characters(
            blacklist_categories=(
                "Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs",
            )
        ),
    ),
    max_size=12,
)
nonempty = printable.filter(bool)


def _model(names, conditions, synchronous):
    n = iter(names)
    c = iter(conditions)
    return ProcessModel(
        name=next(n) or "p",
        party="P",
        activity=Sequence(
            name=next(n),
            activities=[
                Invoke(
                    partner="Q",
                    operation="op",
                    synchronous=synchronous,
                    name=next(n),
                ),
                While(
                    condition=next(c),
                    name=next(n),
                    body=Receive(partner="Q", operation="r", name=next(n)),
                ),
                Switch(
                    name=next(n),
                    cases=[
                        Case(
                            condition=next(c),
                            name=next(n),
                            activity=Reply(
                                partner="Q", operation="s", name=next(n)
                            ),
                        )
                    ],
                    otherwise=Empty(name=next(n)),
                ),
                Pick(
                    name=next(n),
                    branches=[
                        OnMessage(
                            partner="Q",
                            operation="m",
                            name=next(n),
                            activity=Assign(name=next(n)),
                        )
                    ],
                ),
                Terminate(name=next(n)),
            ],
        ),
    )


@settings(max_examples=150, deadline=None)
@given(
    names=st.lists(printable, min_size=13, max_size=13),
    conditions=st.lists(nonempty, min_size=2, max_size=2),
    synchronous=st.booleans(),
)
def test_names_and_conditions_round_trip(names, conditions, synchronous):
    model = _model(names, conditions, synchronous)
    assert process_from_dsl(process_to_dsl(model)) == model


def _sequence_named(name: str) -> ProcessModel:
    return ProcessModel(
        name="p",
        party="P",
        activity=Sequence(
            name=name,
            activities=[Invoke(partner="Q", operation="op")],
        ),
    )


@pytest.mark.parametrize(
    "name",
    [
        "a condition=b",  # the old parser read a condition out of it
        "ends\\",  # written as "ends\" and rejected: no closing quotation
        'say "hi"',  # came back as say 'hi'
    ],
)
def test_sequence_name_regressions(name):
    model = _sequence_named(name)
    assert process_from_dsl(process_to_dsl(model)) == model


def test_condition_with_double_quotes_round_trips():
    model = ProcessModel(
        name="p",
        party="P",
        activity=While(
            condition='x = "y"',  # came back as the condition x =
            name="loop",
            body=Invoke(partner="Q", operation="op"),
        ),
    )
    assert process_from_dsl(process_to_dsl(model)) == model


@pytest.mark.parametrize("name", ["condition=b", "party=x", "sync", "SYNC"])
def test_keyword_lookalike_names_round_trip(name):
    model = ProcessModel(
        name=name,
        party="P",
        activity=Sequence(
            name=name,
            activities=[Invoke(partner="Q", operation="op", name=name)],
        ),
    )
    assert process_from_dsl(process_to_dsl(model)) == model
