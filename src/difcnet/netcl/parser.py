"""Line-oriented parser for the policy language.

Grammar, one statement per line:

    label_host(ip=<name>, label={T [, T]*})
    label_file(ip=<name>, file=<path>)
    if match(<conjunct> [&& <conjunct>]*) then <action>

    conjunct := src_ip==V | src_ip!=V | dst_ip==V | dst_ip!=V
              | tracker_id==<path>@<host>
              | pkt_label contains T | pkt_label contains {T [, T]*}
    action   := drop | allow | alert | reroute(<port>)
              | modify(<field>=<value>)
              | declassify({T [, T]*}) | endorse({T [, T]*})

`#` starts a comment. A line beginning with `...` is an elision marker for
policies intentionally omitted from an excerpt and is ignored. Names
resolve later, at compile time, against the topology bindings.

Sharing: policies repeat most of their predicate, conjunct and action
texts, so one `parse` call parses each distinct text once and shares what
it gives among the rules that contain it. A predicate text (everything
between `match(` and its closing parenthesis, spacing included) maps to
one tuple of conjunct nodes, so rules with the same predicate text share
that tuple; a predicate written with other spacing shares only the
conjunct nodes. The memos live for that call only. A text is first parsed
on the line where it first appears, so the first error raised is the one
a text-by-text parse would raise, and a text that fails never enters a
memo. An error's column is the 1-based position of the offending
conjunct in the raw line, leading indentation included; it is worked out
only for a predicate not seen before.
"""

from __future__ import annotations

import re

from ..errors import DifcnetError, NetclSyntaxError
from .ast import (
    Action,
    Alert,
    Allow,
    Comparison,
    Conjunct,
    Contains,
    Declassify,
    Drop,
    Endorse,
    LabelFile,
    LabelHost,
    Modify,
    Program,
    Reroute,
    Rule,
)

_LABEL_HOST = re.compile(
    r"^label_host\(\s*ip\s*=\s*(?P<host>[\w.\-]+)\s*,\s*label\s*=\s*\{(?P<tags>[^}]*)\}\s*\)$"
)
_LABEL_FILE = re.compile(
    r"^label_file\(\s*ip\s*=\s*(?P<host>[\w.\-]+)\s*,\s*file\s*=\s*(?P<path>[^\s,)]+)\s*\)$"
)
_RULE = re.compile(r"^if\s+match\((?P<pred>.*)\)\s+then\s+(?P<action>.+)$")
_CONTAINS = re.compile(r"^pkt_label\s+contains\s+(?P<rhs>.+)$")
_COMPARISON = re.compile(
    r"^(?P<lhs>src_ip|dst_ip|tracker_id|pkt_label)\s*(?P<op>==|!=)\s*(?P<rhs>\S+)$"
)
_ACTION_CALL = re.compile(r"^(?P<name>[a-z_]+)\((?P<args>.*)\)$")
_NAME = re.compile(r"^[\w.\-/@]+$")
_PORT = re.compile(r"[0-9]+")  # ASCII digits only: str.isdigit() takes "²"
_TAG = re.compile(r"\w+")


def _parse_tag_list(text: str, line_no: int) -> tuple[str, ...]:
    tags = []
    for part in text.split(","):
        name = part.strip()
        if not name:
            continue
        if not _TAG.fullmatch(name):
            raise NetclSyntaxError(f"bad tag name {name!r}", line_no)
        tags.append(name)
    if not tags:
        raise NetclSyntaxError("empty tag set", line_no)
    return tuple(tags)


def _parse_tag_set(text: str, line_no: int) -> tuple[str, ...]:
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise NetclSyntaxError("unterminated tag set", line_no)
        return _parse_tag_list(text[1:-1], line_no)
    return _parse_tag_list(text, line_no)


def _parse_conjunct(text: str, line_no: int, column: int):
    m = _CONTAINS.match(text)
    if m:
        return Contains(_parse_tag_set(m.group("rhs"), line_no))
    m = _COMPARISON.match(text)
    if m:
        lhs, op, rhs = m.group("lhs"), m.group("op"), m.group("rhs")
        if lhs == "pkt_label":
            raise NetclSyntaxError(
                "pkt_label only supports the contains operator", line_no, column
            )
        if not _NAME.match(rhs):
            raise NetclSyntaxError(f"bad value {rhs!r}", line_no, column)
        return Comparison(lhs, op, rhs)
    raise NetclSyntaxError(f"cannot parse predicate {text!r}", line_no, column)


def _parse_action(text: str, line_no: int):
    if text == "drop":
        return Drop()
    if text == "allow":
        return Allow()
    if text == "alert":
        return Alert()
    m = _ACTION_CALL.match(text)
    if not m:
        raise NetclSyntaxError(f"unknown action {text!r}", line_no)
    name, args = m.group("name"), m.group("args")
    if name == "reroute":
        if not _PORT.fullmatch(args.strip()):
            raise NetclSyntaxError("reroute takes an egress port number", line_no)
        return Reroute(int(args))
    if name == "modify":
        if "=" not in args:
            raise NetclSyntaxError("modify takes field=value", line_no)
        field_name, value = args.split("=", 1)
        return Modify(field_name.strip(), value.strip())
    if name == "declassify":
        return Declassify(_parse_tag_set(args, line_no))
    if name == "endorse":
        return Endorse(_parse_tag_set(args, line_no))
    raise NetclSyntaxError(f"unknown action {name!r}", line_no)


def parse(source: str) -> Program:
    """Parse policy text into a Program. Raises NetclSyntaxError with line
    and column information on the first malformed statement."""
    statements = []
    priority = 0
    pred_nodes: dict[str, tuple[Conjunct, ...]] = {}  # raw predicate text -> nodes
    conjunct_nodes: dict[str, Conjunct] = {}  # stripped text -> node
    action_nodes: dict[str, Action] = {}
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("..."):
            continue

        # the three statement patterns are anchored and disjoint, so the
        # commonest one goes first
        m = _RULE.match(line)
        if m:
            pred, text = m.groups()  # the stripped line leaves the action stripped
            conjuncts = pred_nodes.get(pred)
            if conjuncts is None:
                nodes = []
                at = m.start("pred")  # offset of the chunk in the stripped line
                for chunk in pred.split("&&"):
                    stripped = chunk.strip()
                    node = conjunct_nodes.get(stripped)
                    if node is None:
                        column = (
                            len(raw) - len(raw.lstrip()) + at + len(chunk) - len(chunk.lstrip())
                            + 1
                        )
                        node = conjunct_nodes[stripped] = _parse_conjunct(
                            stripped, line_no, column
                        )
                    nodes.append(node)
                    at += len(chunk) + 2  # the chunk and its "&&"
                conjuncts = pred_nodes[pred] = tuple(nodes)
            action = action_nodes.get(text)
            if action is None:
                action = action_nodes[text] = _parse_action(text, line_no)
            statements.append(Rule(conjuncts, action, priority, line_no))
            priority += 1
            continue
        m = _LABEL_HOST.match(line)
        if m:
            statements.append(
                LabelHost(m.group("host"), _parse_tag_list(m.group("tags"), line_no), line_no)
            )
            continue
        m = _LABEL_FILE.match(line)
        if m:
            statements.append(LabelFile(m.group("host"), m.group("path"), line_no))
            continue
        raise NetclSyntaxError(f"cannot parse statement {line!r}", line_no)
    return Program(tuple(statements))


def parse_files(paths) -> Program:
    """Parse and concatenate several policy files into one program, in
    order. Priorities follow the concatenation order. A file that cannot be
    read or is not UTF-8 text is a DifcnetError naming it."""
    merged = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                merged.append(fh.read())
        except OSError as exc:
            raise DifcnetError(f"{path}: cannot read: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise DifcnetError(f"{path}: cannot read: not UTF-8 text ({exc.reason})") from None
    return parse("\n".join(merged))
