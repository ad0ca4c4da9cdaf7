"""The memoised parser and compiler against slow references.

`parse` parses each distinct predicate, conjunct and action text once per
call, and rules with the same predicate text share one conjunct tuple.
`compile_program` works out each distinct conjunct's effect once per
call, folds each distinct conjunct tuple into a match pattern and
placements once, and registers tags looking at each distinct node once.
The references below are the text-by-text parser, the rule-by-rule
compiler and the two-pass tag registration they replaced. On random
policies drawn from a small vocabulary, whose rules draw whole predicate
texts from a small pool so that predicates repeat with other actions and
conjunct texts repeat across predicates, both sides must give equal
programs and configs, or the same first error.
"""

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difcnet.errors import (
    CompileError,
    DifcnetError,
    NetclSyntaxError,
    PlacementError,
    UnknownHost,
    UnknownName,
    UnknownTag,
)
from difcnet.labels import TAG_SPACE, TagRegistry
from difcnet.netcl import compile_program, parse
from difcnet.netcl.ast import (
    Alert,
    Allow,
    Comparison,
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
from difcnet.netcl.compiler import (
    CompiledPolicy,
    FieldMatch,
    MatchSpec,
    PrivilegeEntry,
    SwitchConfig,
    TableEntry,
    _register_tags,
)
from tests.conftest import make_lan, make_split

# -- reference parser: one regex pass per conjunct and action text ---------

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


def _ref_tag_list(text, line_no):
    tags = []
    for part in text.split(","):
        name = part.strip()
        if not name:
            continue
        if not re.fullmatch(r"\w+", name):
            raise NetclSyntaxError(f"bad tag name {name!r}", line_no)
        tags.append(name)
    if not tags:
        raise NetclSyntaxError("empty tag set", line_no)
    return tuple(tags)


def _ref_tag_set(text, line_no):
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise NetclSyntaxError("unterminated tag set", line_no)
        return _ref_tag_list(text[1:-1], line_no)
    return _ref_tag_list(text, line_no)


def _ref_conjunct(text, line_no, column):
    text = text.strip()
    m = _CONTAINS.match(text)
    if m:
        return Contains(_ref_tag_set(m.group("rhs"), line_no))
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


def _ref_action(text, line_no):
    text = text.strip()
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
        if not re.fullmatch("[0-9]+", args.strip()):
            raise NetclSyntaxError("reroute takes an egress port number", line_no)
        return Reroute(int(args))
    if name == "modify":
        if "=" not in args:
            raise NetclSyntaxError("modify takes field=value", line_no)
        field_name, value = args.split("=", 1)
        return Modify(field_name.strip(), value.strip())
    if name == "declassify":
        return Declassify(_ref_tag_set(args, line_no))
    if name == "endorse":
        return Endorse(_ref_tag_set(args, line_no))
    raise NetclSyntaxError(f"unknown action {name!r}", line_no)


def ref_parse(source):
    statements = []
    priority = 0
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("..."):
            continue

        m = _LABEL_HOST.match(line)
        if m:
            statements.append(
                LabelHost(m.group("host"), _ref_tag_list(m.group("tags"), line_no), line_no)
            )
            continue
        m = _LABEL_FILE.match(line)
        if m:
            statements.append(LabelFile(m.group("host"), m.group("path"), line_no))
            continue
        m = _RULE.match(line)
        if m:
            conjuncts = []
            # The one departure from the text-by-text parser: it took the
            # column of the first equal text on the line (raw.find); this
            # walks the chunks from the predicate's opening parenthesis.
            cursor = raw.index("match(") + len("match(")
            for chunk in m.group("pred").split("&&"):
                start = raw.index(chunk, cursor)
                column = start + len(chunk) - len(chunk.lstrip()) + 1
                cursor = start + len(chunk) + len("&&")
                conjuncts.append(_ref_conjunct(chunk, line_no, column))
            action = _ref_action(m.group("action"), line_no)
            statements.append(Rule(tuple(conjuncts), action, priority, line_no))
            priority += 1
            continue
        raise NetclSyntaxError(f"cannot parse statement {line!r}", line_no)
    return Program(tuple(statements))


# -- reference compiler: every conjunct of every rule resolved afresh ------


def ref_check_modify(action, line):
    if action.field_name not in ("ttl", "options"):
        raise CompileError(f"line {line}: field {action.field_name!r} is not modifiable")
    if action.field_name == "ttl" and not (
        re.fullmatch("[0-9]+", action.value) and int(action.value) <= 255
    ):
        raise CompileError(
            f"line {line}: ttl must be an integer from 0 to 255, not {action.value!r}"
        )


def ref_register_tags(program, registry):
    """Two passes over every rule: the tags that privilege actions
    declassify and endorse, which must not meet, then a `register` per tag
    of every node, in source order."""
    declassified, endorsed = set(), set()
    for stmt in program.statements:
        if isinstance(stmt, Rule) and isinstance(stmt.action, (Endorse, Declassify)):
            mine, other = (
                (endorsed, declassified) if isinstance(stmt.action, Endorse)
                else (declassified, endorsed)
            )
            for t in stmt.action.tags:
                if t in other:
                    raise CompileError(
                        f"tag {t!r} cannot be both declassified and endorsed"
                    )
                mine.add(t)

    for stmt in program.statements:
        if isinstance(stmt, LabelHost):
            for t in stmt.tags:
                registry.register(t)
        elif isinstance(stmt, Rule):
            for c in stmt.conjuncts:
                if isinstance(c, Contains):
                    for t in c.tags:
                        registry.register(t)
            if isinstance(stmt.action, (Endorse, Declassify)):
                for t in stmt.action.tags:
                    registry.register(t)


def ref_compile(program, topology, previous=None):
    """With `previous`, the version before in a run, the tags it numbered
    register first, in index order, and the files it numbered keep their
    ids, which run from 1 without a gap."""
    registry = TagRegistry()
    file_trackers = {}
    if previous is not None:
        ids = previous.registry.name_to_id
        for name in sorted(ids, key=ids.get):
            registry.register(name)
        file_trackers.update(previous.file_trackers)
    ref_register_tags(program, registry)

    host_labels = {}
    directive_labels = {}
    next_tracker = len(file_trackers) + 1
    for stmt in program.labelings:
        if isinstance(stmt, LabelHost):
            label = registry.label_of(stmt.tags)
            directive_labels[stmt.host] = directive_labels.get(stmt.host, 0) | label
            try:
                ips = topology.resolve(stmt.host)
            except UnknownName as exc:
                raise CompileError(f"line {stmt.line}: {exc}") from None
            if any(ip not in topology.host_by_ip for ip in ips):
                raise CompileError(
                    f"line {stmt.line}: label_host {stmt.host!r} is not a host "
                    f"or a group of hosts"
                )
            for ip in ips:
                host_labels[ip] = host_labels.get(ip, 0) | label
        elif isinstance(stmt, LabelFile):
            if stmt.host not in topology.host_by_name:
                raise CompileError(
                    f"line {stmt.line}: label_file host {stmt.host!r} is not a host "
                    f"in topology {topology.name!r}"
                )
            key = (stmt.host, stmt.path)
            if key not in file_trackers:
                file_trackers[key] = next_tracker
                next_tracker += 1

    all_placements = tuple(topology.host_switches()) + (
        (topology.gateway,) if topology.gateway not in topology.host_switches() else ()
    )

    entries = {s: [] for s in topology.switches}
    privilege = {s: [] for s in topology.switches}

    for rule in program.rules:
        label_mask = 0
        tracker_match = 0
        src_field = None
        dst_field = None
        placements = None

        for c in rule.conjuncts:
            if isinstance(c, Contains):
                label_mask |= registry.label_of(c.tags)
                continue
            if c.lhs == "tracker_id":
                if c.op != "==":
                    raise CompileError(f"line {rule.line}: tracker predicates support == only")
                if "@" not in c.rhs:
                    raise CompileError(f"line {rule.line}: tracker value must be <path>@<host>")
                path, host = c.rhs.rsplit("@", 1)
                key = (host, path)
                if key not in file_trackers:
                    raise CompileError(f"line {rule.line}: no tracker assigned for {c.rhs}")
                tracker_match = file_trackers[key]
                continue
            if c.rhs == "any" and c.op == "!=":
                raise CompileError(f"line {rule.line}: != is not supported on 'any'")
            if c.lhs == "src_ip":
                if c.rhs == "any":
                    continue
                if c.op == "==" and c.rhs in directive_labels:
                    label_mask |= directive_labels[c.rhs]
                    continue
                if c.op == "!=" and c.rhs in directive_labels:
                    raise CompileError(
                        f"line {rule.line}: != is not supported on labeled source {c.rhs!r}"
                    )
                try:
                    ips = topology.resolve(c.rhs)
                except UnknownName as exc:
                    raise CompileError(f"line {rule.line}: {exc}") from None
                src_field = FieldMatch(frozenset(ips), negate=(c.op == "!="))
                continue
            if c.rhs == "any":
                placements = all_placements
                continue
            try:
                ips = topology.resolve(c.rhs)
            except UnknownName as exc:
                raise CompileError(f"line {rule.line}: {exc}") from None
            dst_field = FieldMatch(frozenset(ips), negate=(c.op == "!="))
            if c.op == "==":
                try:
                    placements = tuple(dict.fromkeys(topology.switch_of_ip(ip) for ip in ips))
                except UnknownHost:
                    raise PlacementError(
                        f"line {rule.line}: destination {c.rhs!r} has no attached switch"
                    ) from None
            else:
                placements = all_placements

        if placements is None:
            placements = all_placements

        if isinstance(rule.action, Reroute):
            for s in placements:
                if rule.action.port >= len(topology.ports(s)):
                    raise CompileError(
                        f"line {rule.line}: switch {s} has no egress port {rule.action.port}"
                    )
        if isinstance(rule.action, Modify):
            ref_check_modify(rule.action, rule.line)

        spec = MatchSpec(
            label_mask=label_mask,
            tracker_match=tracker_match,
            src=src_field,
            dst=dst_field,
        )

        if isinstance(rule.action, (Declassify, Endorse)):
            mask = registry.label_of(rule.action.tags)
            direction = "declassify" if isinstance(rule.action, Declassify) else "endorse"
            entry = PrivilegeEntry(spec, mask, direction, rule.priority, rule.line)
            for s in placements:
                privilege[s].append(entry)
            continue

        entry = TableEntry(spec, rule.action, rule.priority, rule.line)
        for s in placements:
            entries[s].append(entry)

    init = {s: [] for s in topology.switches}
    for ip in sorted(host_labels):
        init[topology.switch_of_ip(ip)].append((ip, host_labels[ip]))

    configs = {
        s: SwitchConfig(
            switch_id=s,
            entries=tuple(entries[s]),
            privilege_entries=tuple(privilege[s]),
            init_packets=tuple(init[s]),
        )
        for s in topology.switches
    }
    return CompiledPolicy(
        registry=registry,
        configs=configs,
        host_labels=host_labels,
        file_trackers=file_trackers,
        rule_count=len(program.rules),
    )


# -- random policies over a small vocabulary -------------------------------

# Every policy starts with these, so A is a labelled source (`src_ip==A`
# matches the label, `src_ip!=A` is a compile error) and /f@C is a tracker.
HEADER = "label_host(ip=A, label={TA})\nlabel_file(ip=C, file=/f)\n"
# Conjuncts that compile on both topologies. B and C appear as sources and
# destinations, with == and !=, so a memo that confuses the two sides or
# drops the operator gives a different config.
CLEAN_CONJUNCTS = (
    "src_ip==A", "src_ip==B", "src_ip!=B", "src_ip==C", "src_ip!=C", "src_ip==any",
    "src_ip==external_network", "src_ip==10.9.9.9", "dst_ip==A", "dst_ip==B", "dst_ip!=B",
    "dst_ip==C", "dst_ip!=C", "dst_ip==any", "dst_ip==external", "dst_ip!=203.0.113.10",
    "tracker_id==/f@C", "pkt_label contains TA", "pkt_label contains {TA, TB}",
    "pkt_label contains TP", "dst_ip == B", "src_ip  !=  C",
)
# parse, then fail to compile on at least one topology: a labelled source
# under !=, != on any, unknown names, a host-less destination, the group
# only lan has, tracker values with no tracker
UNCOMPILABLE_CONJUNCTS = (
    "src_ip!=A", "src_ip!=any", "dst_ip!=any", "src_ip==Ghost", "dst_ip==Ghost",
    "dst_ip==10.9.9.9", "dst_ip==Clients", "src_ip!=Clients", "tracker_id==/g@C",
    "tracker_id!=/f@C", "tracker_id==nowhere",
)
# fail to parse; several are also a substring of an earlier conjunct on
# the line, which is where a column found by text search would point
UNPARSABLE_CONJUNCTS = (
    "B", "A", "C", "==A", "pkt_label==TA", "dst_ip==", "src_ip==a,b", "bogus thing",
    "pkt_label contains {TA", "pkt_label contains {}", "",
)
CLEAN_ACTIONS = (
    "drop", "allow", "alert", "reroute(0)", "reroute(1)", "modify(ttl=9)",
    "modify(options=x)", "declassify({TA})", "declassify({TB, TA})", "endorse({TP})",
)
# a port and a ttl are ASCII digits: "²" is a digit and "٣" a decimal to str
BAD_ACTIONS = (
    "explode", "reroute(x)", "modify(ttl)", "declassify({})", "modify(ttl=300)",
    "modify(tos=1)", "endorse({TA})", "reroute(3)", "reroute(9)", "reroute(²)",
    "modify(ttl=٣)",
)
BAD_STATEMENTS = (
    "label_file(ip=Ghost, file=/f)", "label_host(ip=A)", "nonsense here",
    "label_host(ip=Clients, label={TB})", "label_host(ip=external, label={TB})",
    "label_host(ip=192.0.2.9, label={TB})",
)


@st.composite
def predicate_texts(draw, bad):
    texts = draw(st.lists(st.sampled_from(CLEAN_CONJUNCTS), min_size=1, max_size=4))
    # one predicate in six gets a wrong conjunct
    if bad and draw(st.integers(0, 5)) == 0:
        wrong = draw(st.sampled_from(UNCOMPILABLE_CONJUNCTS + UNPARSABLE_CONJUNCTS))
        texts.insert(draw(st.integers(0, len(texts))), wrong)
    seps = [draw(st.sampled_from(("&&", " && ", "  &&", "&& "))) for _ in texts[1:]]
    return texts[0] + "".join(sep + text for sep, text in zip(seps, texts[1:]))


@st.composite
def rule_lines(draw, bad, preds):
    pred = draw(st.sampled_from(preds))
    # one rule in six gets a wrong action
    actions = BAD_ACTIONS if bad and draw(st.integers(0, 5)) == 0 else CLEAN_ACTIONS
    line = f"if match({pred}) then {draw(st.sampled_from(actions))}"
    indent = draw(st.sampled_from(("", " ", "    ", "\t")))
    # a comment may repeat a conjunct's text, which must not move a column
    last = pred.rsplit("&&", 1)[-1].strip()
    comment = draw(st.sampled_from(("", "  # note", f" # {last}", " #" + pred)))
    return indent + line + comment


@st.composite
def policies(draw, bad):
    # the rules draw whole predicate texts from a pool of at most six, so
    # the same predicate recurs, mostly with another action
    preds = draw(st.lists(predicate_texts(bad), min_size=1, max_size=6))
    lines = [HEADER]
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(("", "# comment", "... elided", "   "))))
        elif kind == 1 and bad:
            lines.append(draw(st.sampled_from(BAD_STATEMENTS)))
        else:
            lines.append(draw(rule_lines(bad, preds)))
    return "\n".join(lines) + "\n"


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except DifcnetError as exc:
        return None, exc


def _same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)
    if isinstance(want, NetclSyntaxError):
        assert (got.line, got.column) == (want.line, want.column)


def _lines(program):
    return [s.line for s in program.statements]


def _configs(compiled):
    """Every config field, with each entry's source line next to it
    (TableEntry and PrivilegeEntry leave source_line out of equality)."""
    return {
        s: (
            [(e, e.source_line) for e in cfg.entries],
            [(e, e.source_line) for e in cfg.privilege_entries],
            cfg.init_packets,
        )
        for s, cfg in compiled.configs.items()
    }


def _check_both(text, topo):
    program, err = _outcome(parse, text)
    want_program, want_err = _outcome(ref_parse, text)
    if want_err is not None:
        assert err is not None, f"parse accepted what the reference rejects: {want_err}"
        _same_error(err, want_err)
        return "parse error"
    assert err is None, f"parse rejected what the reference accepts: {err}"
    assert program == want_program
    assert _lines(program) == _lines(want_program)

    compiled, err = _outcome(compile_program, program, topo)
    want, want_err = _outcome(ref_compile, want_program, topo)
    if want_err is not None:
        assert err is not None, f"compile accepted what the reference rejects: {want_err}"
        _same_error(err, want_err)
        return "compile error"
    assert err is None, f"compile rejected what the reference accepts: {err}"
    _same_compile(compiled, want)
    return "compiled"


def _same_compile(compiled, want):
    assert _configs(compiled) == _configs(want)
    assert compiled.host_labels == want.host_labels
    assert compiled.file_trackers == want.file_trackers
    assert compiled.registry.name_to_id == want.registry.name_to_id
    assert compiled.rule_count == want.rule_count


TOPOLOGIES = {"lan": make_lan(), "split": make_split()}


@settings(max_examples=300, deadline=None)
@given(text=policies(bad=False), topo=st.sampled_from(sorted(TOPOLOGIES)))
def test_memoised_parse_and_compile_equal_the_references(text, topo):
    _check_both(text, TOPOLOGIES[topo])


@settings(max_examples=300, deadline=None)
@given(text=policies(bad=True), topo=st.sampled_from(sorted(TOPOLOGIES)))
def test_malformed_policies_raise_the_references_first_error(text, topo):
    _check_both(text, TOPOLOGIES[topo])


def test_the_vocabulary_reaches_every_outcome():
    """The strategies above are only as good as what they reach: pin one
    policy per outcome and check the oracle sees them the same way."""
    topo = TOPOLOGIES["lan"]
    cases = {
        "if match(src_ip==B && dst_ip==B) then allow\n"
        "if match(src_ip==B && dst_ip!=B && src_ip==A) then drop\n"
        "if match(src_ip!=B && dst_ip==B) then declassify({TA})\n": "compiled",
        "if match(dst_ip==C && C) then drop\n": "parse error",
        "if match(src_ip!=A) then drop\n": "compile error",
        "if match(dst_ip==10.9.9.9) then drop\n": "compile error",
        "if match(src_ip!=any && dst_ip==B) then allow\n": "compile error",
        "if match(dst_ip==any) then reroute(²)\n": "parse error",
        "if match(dst_ip==B) then modify(ttl=٣)\n": "compile error",
    }
    for text, outcome in cases.items():
        assert _check_both(HEADER + text, topo) == outcome


def test_a_repeated_predicate_checks_its_action_on_its_own_line():
    """The second rule shares the first one's predicate, match pattern and
    placements, but its port is checked on its own line."""
    text = HEADER + (
        "if match(src_ip==B && dst_ip==B) then reroute(0)\n"
        "if match(src_ip==B && dst_ip==B) then reroute(9)\n"
    )
    assert _check_both(text, TOPOLOGIES["lan"]) == "compile error"
    with pytest.raises(CompileError, match="^line 4: switch S2 has no egress port 9$"):
        compile_program(parse(text), TOPOLOGIES["lan"])


def test_repeated_texts_share_one_node():
    program = parse(
        "if match(src_ip==A && dst_ip==B) then drop\n"
        "  if match(dst_ip==B  &&src_ip==A) then drop  # same texts, other spacing\n"
    )
    first, second = program.rules
    assert first.conjuncts[0] is second.conjuncts[1]
    assert first.conjuncts[1] is second.conjuncts[0]
    assert first.action is second.action


def test_repeated_predicates_share_one_tuple_and_one_match_spec():
    program = parse(
        "if match(src_ip==B && dst_ip==C) then drop\n"
        "if match(src_ip==B && dst_ip==C) then allow  # the same text\n"
        "if match(src_ip==B &&dst_ip==C) then alert  # other spacing\n"
    )
    first, second, third = program.rules
    assert first.conjuncts is second.conjuncts
    assert third.conjuncts is not first.conjuncts
    assert all(a is b for a, b in zip(first.conjuncts, third.conjuncts))
    entries = compile_program(program, TOPOLOGIES["lan"]).configs["S2"].entries
    assert entries[0].match is entries[1].match
    assert entries[2].match is not entries[0].match
    assert entries[2].match == entries[0].match
    assert entries[2].match.src is entries[0].match.src


def test_a_policy_of_600_rules_over_40_predicates_compiles_40_match_specs():
    preds = [
        f"pkt_label contains T{i} && dst_ip=={dst}" for i in range(20) for dst in ("B", "C")
    ]
    actions = ("allow", "drop", "alert")
    text = "".join(
        f"if match({preds[k % len(preds)]}) then {actions[k % len(actions)]}\n"
        for k in range(600)
    )
    compiled = compile_program(parse(text), TOPOLOGIES["split"])
    entries = [e for cfg in compiled.configs.values() for e in cfg.entries]
    assert len({id(e) for e in entries}) == 600
    assert len({id(e.match) for e in entries}) == 40


def test_equal_conjuncts_share_one_field_match():
    compiled = compile_program(
        parse(
            "if match(src_ip==B && dst_ip==C) then drop\n"
            "if match(src_ip==B && dst_ip==C) then allow\n"
        ),
        TOPOLOGIES["lan"],
    )
    first, second = compiled.configs["S2"].entries
    assert first.match.src is second.match.src
    assert first.match.dst is second.match.dst


# -- policy versions in one run ----------------------------------------------

# labelings a version may put ahead of HEADER, so that a fresh compile of it
# would give TA, /f@C or a file of an earlier version another number
EXTRA_LABELINGS = (
    "label_host(ip=A, label={TQ})", "label_file(ip=B, file=/h)", "label_file(ip=A, file=/g)",
    "label_file(ip=C, file=/f)",
)


@st.composite
def versions(draw):
    texts = []
    for _ in range(draw(st.integers(2, 3))):
        extra = draw(st.lists(st.sampled_from(EXTRA_LABELINGS), max_size=3, unique=True))
        texts.append("".join(f"{line}\n" for line in extra) + draw(policies(bad=False)))
    return texts


@settings(max_examples=150, deadline=None)
@given(texts=versions(), topo=st.sampled_from(sorted(TOPOLOGIES)))
def test_versions_compiled_in_turn_equal_the_reference_and_keep_their_numbering(texts, topo):
    """Each version compiled against the one before equals the reference
    compiled the same way. Every tag keeps its index and every file its
    tracker id, and a new file takes an id above every earlier one."""
    previous = want_previous = None
    for text in texts:
        program = parse(text)
        compiled, err = _outcome(compile_program, program, TOPOLOGIES[topo], previous)
        want, want_err = _outcome(ref_compile, program, TOPOLOGIES[topo], want_previous)
        if want_err is not None:
            _same_error(err, want_err)
            continue
        assert err is None, f"compile rejected what the reference accepts: {err}"
        _same_compile(compiled, want)
        if previous is not None:
            assert compiled.registry.name_to_id.items() >= previous.registry.name_to_id.items()
            assert compiled.file_trackers.items() >= previous.file_trackers.items()
            last = max(previous.file_trackers.values(), default=0)
            for key, i in compiled.file_trackers.items():
                assert key in previous.file_trackers or i > last
        previous, want_previous = compiled, want


# -- tag registration --------------------------------------------------------

TAG_NAMES = ("T0", "T1", "T2", "T3", "T4", "T5")


@st.composite
def tag_programs(draw):
    """Programs whose rules draw conjuncts and actions from small pools, so
    nodes repeat by identity, with an equal but distinct node now and then,
    and a registry that may already hold some tags."""
    tags = st.lists(st.sampled_from(TAG_NAMES), min_size=1, max_size=3, unique=True).map(tuple)
    conjuncts = [Contains(draw(tags)) for _ in range(draw(st.integers(1, 4)))]
    conjuncts.append(Comparison("dst_ip", "==", "B"))
    actions = [Allow(), Drop()] + [
        draw(st.sampled_from((Declassify, Endorse)))(draw(tags))
        for _ in range(draw(st.integers(0, 3)))
    ]

    def node(pool):
        n = draw(st.sampled_from(pool))
        return replace(n) if draw(st.integers(0, 4)) == 0 else n  # equal, not identical

    statements = []
    for line in range(1, draw(st.integers(0, 12)) + 1):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            statements.append(LabelHost("A", draw(tags), line))
        elif kind == 1:
            statements.append(LabelFile("C", "/f", line))
        else:
            body = tuple(node(conjuncts) for _ in range(draw(st.integers(1, 3))))
            statements.append(Rule(body, node(actions), len(statements), line))
    known = draw(st.lists(st.sampled_from(TAG_NAMES), max_size=3, unique=True))
    return Program(tuple(statements)), known


def _registered(fn, program, known):
    registry = TagRegistry()
    for name in known:
        registry.register(name)
    _, err = _outcome(fn, program, registry)
    return registry, err


@settings(max_examples=500, deadline=None)
@given(tag_programs())
def test_register_tags_equals_the_two_pass_reference(drawn):
    program, known = drawn
    got, err = _registered(_register_tags, program, known)
    want, want_err = _registered(ref_register_tags, program, known)
    if want_err is None:
        assert err is None
        assert got.name_to_id == want.name_to_id
    else:
        _same_error(err, want_err)


def test_register_tags_runs_out_of_tag_space_on_the_same_tag():
    names = tuple(f"T{i}" for i in range(TAG_SPACE + 2))
    program = Program((
        LabelHost("A", names[:100], 1),
        Rule((Contains(names[90:200]),), Allow(), 0, 2),
        Rule((Contains(names[150:]),), Endorse(names[:3]), 1, 3),
    ))
    _, err = _registered(_register_tags, program, [])
    _, want_err = _registered(ref_register_tags, program, [])
    assert isinstance(want_err, UnknownTag)
    _same_error(err, want_err)


def test_register_tags_reports_the_first_contradiction():
    endorse = Endorse(("T1", "T2"))
    program = Program((
        Rule((), endorse, 0, 1),
        Rule((), Declassify(("T3", "T2")), 1, 2),
        Rule((), endorse, 2, 3),
        Rule((), Declassify(("T1",)), 3, 4),
    ))
    _, err = _registered(_register_tags, program, [])
    _, want_err = _registered(ref_register_tags, program, [])
    assert str(want_err) == "tag 'T2' cannot be both declassified and endorsed"
    _same_error(err, want_err)
