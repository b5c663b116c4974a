"""Compact indentation-based DSL for process models.

The XML dialect (:mod:`repro.bpel.xml_io`) is the interchange format;
this DSL is the ergonomic one for tests, examples, and the CLI.  The
buyer process of Fig. 3 reads::

    process buyer party=B
      sequence "buyer process"
        invoke A orderOp
        receive A deliveryOp
        while "tracking" condition="1 = 1"
          switch "termination?"
            case "continue"
              sequence "cond continue"
                invoke A getStatusOp
                receive A statusOp
            case "otherwise"
              sequence "cond terminate"
                invoke A terminateOp
                terminate

Grammar, line-oriented with 2-space (or consistent) indentation:

* ``process NAME party=PARTY`` — header (first line),
* ``partnerlink NAME PARTNER op1 op2 …``,
* ``receive PARTNER OP``, ``invoke PARTNER OP [sync]``,
  ``reply PARTNER OP``,
* ``assign | empty | opaque | terminate`` (optional trailing name),
* ``sequence|flow|while|switch|pick|scope ["NAME"] [condition="…"]``,
* ``case ["NAME"] [condition="…"]`` under ``switch``; ``otherwise``,
* ``on PARTNER OP ["NAME"]`` under ``pick``.

Lines split into tokens as ``shlex.split`` splits them: quoted strings
may contain spaces, and inside double quotes ``\\"`` and ``\\\\`` stand
for ``"`` and ``\\``.  ``party=``, ``condition=`` and ``sync`` are
keywords only when unquoted, so a quoted name never reads as one; the
renderer quotes and escapes every name and condition that needs it.
Blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

import re

from repro.bpel.model import (
    Activity,
    Assign,
    Case,
    Empty,
    Flow,
    Invoke,
    OnMessage,
    Opaque,
    PartnerLink,
    Pick,
    ProcessModel,
    Receive,
    Reply,
    Scope,
    Sequence,
    Switch,
    Terminate,
    While,
)
from repro.errors import ProcessParseError

#: One token of a DSL line, after optional whitespace: adjacent pieces
#: (unquoted text, ``'…'``, ``"…"``, a backslash escape) with no
#: whitespace between them; or, in ``bad``, an unclosed quote or a
#: trailing backslash.  With :data:`_PIECE_RE` this is the POSIX
#: ``shlex.split`` grammar: whitespace is ``' \t\r\n'`` only, ``'…'`` is
#: literal, ``"…"`` honors ``\"`` and ``\\`` (any other backslash
#: stays), and a backslash outside quotes escapes the next character.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?P<token>(?:"
    r"""[^ \t\r\n"'\\]+"""
    r"|'[^']*'"
    r'|"(?:[^"\\]|\\.)*"'
    r"|\\.)+)"
    r"|(?P<bad>[^ \t\r\n]))",
    re.DOTALL,
)
#: The pieces of a token that holds quotes or backslashes.
_PIECE_RE = re.compile(
    r"""(?P<word>[^"'\\]+)"""
    r"|'(?P<single>[^']*)'"
    r'|"(?P<double>(?:[^"\\]|\\.)*)"'
    r"|\\(?P<escaped>.)",
    re.DOTALL,
)
_DOUBLE_ESCAPE_RE = re.compile(r'\\(["\\])')

_CONDITION = "condition="


def _unquote(token: str) -> str:
    """The text of a token that holds quotes or backslashes."""
    text = []
    for match in _PIECE_RE.finditer(token):
        kind = match.lastgroup
        piece = match.group(kind)
        if kind == "double" and "\\" in piece:
            piece = _DOUBLE_ESCAPE_RE.sub(r"\1", piece)
        text.append(piece)
    return "".join(text)


def _split(text: str) -> tuple[list[str], list[bool]]:
    """Tokenize one line like ``shlex.split`` (POSIX, whitespace split).

    Returns the tokens and, per token, whether it starts with unquoted
    text: only such a token can be a ``party=``, ``condition=`` or
    ``sync`` keyword, so a quoted name is never mistaken for one.

    Raises:
        ValueError: on an unclosed quote or a trailing backslash.
    """
    tokens: list[str] = []
    bare: list[bool] = []
    for match in _TOKEN_RE.finditer(text):
        token = match.group("token")
        if token is None:
            raise ValueError(
                "No escaped character" if match.group("bad") == "\\"
                else "No closing quotation"
            )
        if '"' in token or "'" in token or "\\" in token:
            bare.append(token[0] not in "\"'\\")
            if (
                token[0] == token[-1] == '"'
                and token.count('"') == 2
                and "\\" not in token
            ):
                token = token[1:-1]  # the common "quoted name"
            else:
                token = _unquote(token)
        else:
            bare.append(True)
        tokens.append(token)
    return tokens, bare


class _Line:
    __slots__ = ("number", "indent", "tokens", "bare", "condition", "raw")

    def __init__(self, number: int, raw: str):
        self.number = number
        self.raw = raw
        stripped = raw.lstrip(" ")
        self.indent = len(raw) - len(stripped)
        try:
            tokens, bare = _split(stripped)
        except ValueError as error:
            raise ProcessParseError(
                f"line {number}: {error}: {raw!r}"
            ) from error
        self.condition = ""
        for index, token in enumerate(tokens):
            if bare[index] and token.startswith(_CONDITION):
                self.condition = token[len(_CONDITION):]
                del tokens[index], bare[index]
                break
        if not tokens:
            raise ProcessParseError(
                f"line {number}: expected a keyword: {raw!r}"
            )
        self.tokens = tokens
        self.bare = bare


def _logical_lines(text: str) -> list[_Line]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.strip().startswith("#"):
            continue
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise ProcessParseError(
                f"line {number}: tabs are not allowed in indentation"
            )
        lines.append(_Line(number, raw))
    return lines


class _DslParser:
    def __init__(self, lines: list[_Line]):
        self.lines = lines
        self.index = 0

    def peek(self) -> _Line | None:
        if self.index < len(self.lines):
            return self.lines[self.index]
        return None

    def advance(self) -> _Line:
        line = self.lines[self.index]
        self.index += 1
        return line

    def parse_children(self, parent_indent: int) -> list[Activity]:
        children: list[Activity] = []
        while (line := self.peek()) is not None:
            if line.indent <= parent_indent:
                break
            children.append(self.parse_activity())
        return children

    def _single_child(self, line: _Line) -> Activity:
        children = self.parse_children(line.indent)
        if not children:
            return Empty()
        if len(children) == 1:
            return children[0]
        return Sequence(activities=children)

    def parse_activity(self) -> Activity:
        line = self.advance()
        tokens = line.tokens
        keyword = tokens[0].lower()
        rest = tokens[1:]

        def fail(message: str) -> ProcessParseError:
            return ProcessParseError(
                f"line {line.number}: {message}: {line.raw.strip()!r}"
            )

        def optional_name(args: list[str]) -> str:
            return args[0] if args else ""

        if keyword == "receive":
            if len(rest) < 2:
                raise fail("receive needs PARTNER and OPERATION")
            return Receive(
                partner=rest[0],
                operation=rest[1],
                name=optional_name(rest[2:]),
            )
        if keyword == "invoke":
            if len(rest) < 2:
                raise fail("invoke needs PARTNER and OPERATION")
            synchronous = False
            remainder = rest[2:]
            if (
                remainder
                and remainder[0].lower() == "sync"
                and line.bare[3]
            ):
                synchronous = True
                remainder = remainder[1:]
            return Invoke(
                partner=rest[0],
                operation=rest[1],
                synchronous=synchronous,
                name=optional_name(remainder),
            )
        if keyword == "reply":
            if len(rest) < 2:
                raise fail("reply needs PARTNER and OPERATION")
            return Reply(
                partner=rest[0],
                operation=rest[1],
                name=optional_name(rest[2:]),
            )
        if keyword == "assign":
            return Assign(name=optional_name(rest))
        if keyword == "empty":
            return Empty(name=optional_name(rest))
        if keyword == "opaque":
            return Opaque(name=optional_name(rest))
        if keyword == "terminate":
            return Terminate(name=optional_name(rest))

        if keyword == "sequence":
            return Sequence(
                activities=self.parse_children(line.indent),
                name=optional_name(rest),
            )
        if keyword == "flow":
            return Flow(
                activities=self.parse_children(line.indent),
                name=optional_name(rest),
            )
        if keyword == "while":
            return While(
                body=self._single_child(line),
                condition=line.condition or "true",
                name=optional_name(rest),
            )
        if keyword == "scope":
            return Scope(
                activity=self._single_child(line),
                name=optional_name(rest),
            )
        if keyword == "switch":
            cases: list[Case] = []
            otherwise: Activity | None = None
            while (child := self.peek()) is not None:
                if child.indent <= line.indent:
                    break
                branch_line = self.advance()
                branch_keyword = branch_line.tokens[0].lower()
                if branch_keyword == "case":
                    cases.append(
                        Case(
                            condition=branch_line.condition or "true",
                            activity=self._single_child(branch_line),
                            name=optional_name(branch_line.tokens[1:]),
                        )
                    )
                elif branch_keyword == "otherwise":
                    if otherwise is not None:
                        raise fail("switch has multiple otherwise branches")
                    otherwise = self._single_child(branch_line)
                else:
                    raise ProcessParseError(
                        f"line {branch_line.number}: expected case/otherwise "
                        f"inside switch, found {branch_keyword!r}"
                    )
            return Switch(
                cases=cases, otherwise=otherwise, name=optional_name(rest)
            )
        if keyword == "pick":
            branches: list[OnMessage] = []
            while (child := self.peek()) is not None:
                if child.indent <= line.indent:
                    break
                branch_line = self.advance()
                if branch_line.tokens[0].lower() != "on":
                    raise ProcessParseError(
                        f"line {branch_line.number}: expected 'on PARTNER "
                        f"OP' inside pick, found "
                        f"{branch_line.tokens[0]!r}"
                    )
                if len(branch_line.tokens) < 3:
                    raise ProcessParseError(
                        f"line {branch_line.number}: 'on' needs PARTNER "
                        f"and OPERATION"
                    )
                branches.append(
                    OnMessage(
                        partner=branch_line.tokens[1],
                        operation=branch_line.tokens[2],
                        activity=self._single_child(branch_line),
                        name=optional_name(branch_line.tokens[3:]),
                    )
                )
            return Pick(branches=branches, name=optional_name(rest))

        raise fail(f"unknown activity keyword {keyword!r}")


def process_from_dsl(text: str) -> ProcessModel:
    """Parse a process definition from DSL text (see module docstring).

    Raises:
        ProcessParseError: on syntax errors, with line numbers.
    """
    lines = _logical_lines(text)
    if not lines:
        raise ProcessParseError("empty process definition")

    header = lines[0]
    if header.tokens[0].lower() != "process":
        raise ProcessParseError(
            f"line {header.number}: definition must start with "
            f"'process NAME party=PARTY'"
        )
    name = ""
    party = ""
    for token, bare in zip(header.tokens[1:], header.bare[1:]):
        if bare and token.startswith("party="):
            party = token[len("party="):]
        elif not name:
            name = token
        else:
            raise ProcessParseError(
                f"line {header.number}: unexpected token {token!r} in "
                f"process header"
            )
    if not name or not party:
        raise ProcessParseError(
            f"line {header.number}: process header needs NAME and "
            f"party=PARTY"
        )

    parser = _DslParser(lines[1:])
    partner_links: list[PartnerLink] = []
    activities: list[Activity] = []
    while parser.peek() is not None:
        line = parser.peek()
        if line.tokens[0].lower() == "partnerlink":
            parser.advance()
            if len(line.tokens) < 3:
                raise ProcessParseError(
                    f"line {line.number}: partnerlink needs NAME and "
                    f"PARTNER"
                )
            partner_links.append(
                PartnerLink(
                    name=line.tokens[1],
                    partner=line.tokens[2],
                    operations=list(line.tokens[3:]),
                )
            )
        else:
            activities.append(parser.parse_activity())

    if not activities:
        raise ProcessParseError("process has no activities")
    if len(activities) == 1:
        root = activities[0]
    else:
        root = Sequence(activities=activities)
    return ProcessModel(
        name=name, party=party, activity=root, partner_links=partner_links
    )


_BARE_RE = re.compile(r"[A-Za-z0-9_.?-]+")


def _escape(text: str) -> str:
    """*text* ready to sit between double quotes."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _quote(text: str) -> str:
    """*text* as one token: bare when it is a plain word that is not a
    keyword, else double-quoted with ``\\`` and ``"`` escaped."""
    if _BARE_RE.fullmatch(text) and text.lower() != "sync":
        return text
    return f'"{_escape(text)}"'


def _render(activity: Activity, indent: int) -> list[str]:
    pad = "  " * indent
    suffix = f" {_quote(activity.name)}" if activity.name else ""

    if isinstance(activity, Receive):
        return [f"{pad}receive {activity.partner} {activity.operation}"
                f"{suffix}"]
    if isinstance(activity, Invoke):
        sync = " sync" if activity.synchronous else ""
        return [f"{pad}invoke {activity.partner} {activity.operation}"
                f"{sync}{suffix}"]
    if isinstance(activity, Reply):
        return [f"{pad}reply {activity.partner} {activity.operation}"
                f"{suffix}"]
    if isinstance(activity, Assign):
        return [f"{pad}assign{suffix}"]
    if isinstance(activity, Empty):
        return [f"{pad}empty{suffix}"]
    if isinstance(activity, Opaque):
        return [f"{pad}opaque{suffix}"]
    if isinstance(activity, Terminate):
        return [f"{pad}terminate{suffix}"]

    if isinstance(activity, (Sequence, Flow)):
        keyword = "sequence" if isinstance(activity, Sequence) else "flow"
        lines = [f"{pad}{keyword}{suffix}"]
        for child in activity.activities:
            lines.extend(_render(child, indent + 1))
        return lines
    if isinstance(activity, While):
        lines = [
            f'{pad}while{suffix} condition="{_escape(activity.condition)}"'
        ]
        lines.extend(_render(activity.body, indent + 1))
        return lines
    if isinstance(activity, Scope):
        lines = [f"{pad}scope{suffix}"]
        lines.extend(_render(activity.activity, indent + 1))
        return lines
    if isinstance(activity, Switch):
        lines = [f"{pad}switch{suffix}"]
        child_pad = "  " * (indent + 1)
        for case in activity.cases:
            case_suffix = f" {_quote(case.name)}" if case.name else ""
            lines.append(
                f'{child_pad}case{case_suffix} '
                f'condition="{_escape(case.condition)}"'
            )
            lines.extend(_render(case.activity, indent + 2))
        if activity.otherwise is not None:
            lines.append(f"{child_pad}otherwise")
            lines.extend(_render(activity.otherwise, indent + 2))
        return lines
    if isinstance(activity, Pick):
        lines = [f"{pad}pick{suffix}"]
        child_pad = "  " * (indent + 1)
        for branch in activity.branches:
            branch_suffix = (
                f" {_quote(branch.name)}" if branch.name else ""
            )
            lines.append(
                f"{child_pad}on {branch.partner} {branch.operation}"
                f"{branch_suffix}"
            )
            lines.extend(_render(branch.activity, indent + 2))
        return lines

    raise ProcessParseError(
        f"cannot render activity of type {type(activity).__name__}"
    )


def process_to_dsl(process: ProcessModel) -> str:
    """Render *process* as DSL text (round-trips through
    :func:`process_from_dsl`)."""
    lines = [f"process {_quote(process.name)} party={process.party}"]
    for link in process.partner_links:
        operations = " ".join(link.operations)
        lines.append(
            f"  partnerlink {link.name} {link.partner} {operations}".rstrip()
        )
    lines.extend(_render(process.activity, 1))
    return "\n".join(lines)
