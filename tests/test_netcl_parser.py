"""Policy language parser tests: statement shapes, error reporting, and the
parse/format round trip."""

import pytest

from difcnet.errors import DifcnetError, NetclSyntaxError
from difcnet.netcl import (
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
    Reroute,
    Rule,
    format_program,
    parse,
    parse_files,
)
from tests.conftest import POLICY_DIR


def test_label_host_statement():
    prog = parse("label_host(ip=Host1, label={T1, T2})")
    (stmt,) = prog.statements
    assert stmt == LabelHost("Host1", ("T1", "T2"))
    assert stmt.line == 1


def test_label_file_statement():
    prog = parse("label_file(ip=Server1, file=/srv/secret)")
    (stmt,) = prog.statements
    assert stmt == LabelFile("Server1", "/srv/secret")


def test_rule_with_two_conjuncts():
    prog = parse("if match(src_ip==A && dst_ip==B) then allow")
    (rule,) = prog.rules
    assert rule.conjuncts == (
        Comparison("src_ip", "==", "A"),
        Comparison("dst_ip", "==", "B"),
    )
    assert rule.action == Allow()
    assert rule.priority == 0


def test_rule_priorities_follow_source_order():
    prog = parse(
        "if match(dst_ip==A) then allow\n"
        "label_host(ip=A, label={T})\n"
        "if match(dst_ip==B) then drop\n"
    )
    assert [r.priority for r in prog.rules] == [0, 1]


def test_contains_single_and_set():
    prog = parse(
        "if match(pkt_label contains T) then drop\n"
        "if match(pkt_label contains {T1, T2} && dst_ip==X) then drop\n"
    )
    r1, r2 = prog.rules
    assert r1.conjuncts == (Contains(("T",)),)
    assert r2.conjuncts[0] == Contains(("T1", "T2"))


def test_negated_comparison():
    prog = parse("if match(src_ip!=A && dst_ip==B) then drop")
    assert prog.rules[0].conjuncts[0] == Comparison("src_ip", "!=", "A")


def test_tracker_predicate():
    prog = parse(
        "if match(tracker_id==/srv/secret@Server1 && dst_ip==external_network) then drop"
    )
    assert prog.rules[0].conjuncts[0] == Comparison(
        "tracker_id", "==", "/srv/secret@Server1"
    )


def test_all_action_forms():
    src = "\n".join(
        f"if match(dst_ip==X) then {a}"
        for a in (
            "drop",
            "allow",
            "alert",
            "reroute(3)",
            "modify(ttl=9)",
            "declassify({S})",
            "endorse({P, Q})",
        )
    )
    actions = [r.action for r in parse(src).rules]
    assert actions == [
        Drop(),
        Allow(),
        Alert(),
        Reroute(3),
        Modify("ttl", "9"),
        Declassify(("S",)),
        Endorse(("P", "Q")),
    ]


def test_comments_blanks_and_elision_are_skipped():
    src = (
        "# leading comment\n"
        "\n"
        "label_host(ip=A, label={T})  # trailing comment\n"
        "... # omitted benign policies\n"
        "if match(dst_ip==A) then allow\n"
    )
    prog = parse(src)
    assert len(prog.statements) == 2


def test_syntax_error_carries_line_number():
    with pytest.raises(NetclSyntaxError) as err:
        parse("label_host(ip=A, label={T})\nnonsense here\n")
    assert err.value.line == 2
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "line, column",
    [
        # the bad text also occurs inside the first conjunct
        ("if match(dst_ip==x && x) then drop", 23),
        # leading indentation counts
        ("    if match(src_ip==A &&  A) then drop", 28),
        # a comment holding the bad text comes after it on the line
        ("if match(dst_ip==B && pkt_label==T) then drop  # pkt_label==T", 23),
        ("if match(x && dst_ip==x && x) then drop  # x", 10),
    ],
)
def test_syntax_error_column_is_the_bad_conjuncts_own(line, column):
    with pytest.raises(NetclSyntaxError) as err:
        parse("if match(dst_ip==A) then allow\n" + line)
    assert (err.value.line, err.value.column) == (2, column)
    assert str(err.value).startswith(f"line 2, col {column}: ")


def test_pkt_label_equality_is_rejected():
    with pytest.raises(NetclSyntaxError) as err:
        parse("if match(pkt_label==T) then drop")
    assert "contains" in str(err.value)


@pytest.mark.parametrize(
    "bad",
    [
        "if match(dst_ip==A) then explode",
        "if match(dst_ip==A) then reroute(x)",
        "if match(dst_ip==A) then modify(ttl)",
        "if match(dst_ip==A) then declassify({})",
        "if match(pkt_label contains {T) then drop",
        "if match(dst_ip == ) then drop",
        "label_host(ip=A)",
        "if match(dst_ip==A) allow",
    ],
)
def test_malformed_statements_raise(bad):
    with pytest.raises(NetclSyntaxError):
        parse(bad)


def test_bad_tag_name_rejected():
    with pytest.raises(NetclSyntaxError):
        parse("label_host(ip=A, label={T-1})")


ROUND_TRIP_CORPUS = """\
label_host(ip=Host1, label={H1})
label_host(ip=Sales_Dept, label={Sales, S2})
label_file(ip=Server1, file=/server1/sensitive_file)
if match(pkt_label contains Top_Secret && dst_ip==external_network) then drop
if match(src_ip==Host1 && dst_ip==PACS) then allow
if match(src_ip!=Host1 && dst_ip==PACS) then alert
if match(tracker_id==/server1/sensitive_file@Server1 && dst_ip==any) then drop
if match(src_ip==Dev_Admin && dst_ip==Servers_Floor) then endorse({P})
if match(src_ip==Server1 && dst_ip==Dev_Admin) then declassify({Top_Secret})
if match(dst_ip==any) then reroute(2)
if match(dst_ip==B) then modify(ttl=4)
"""


def test_format_parse_round_trip():
    prog = parse(ROUND_TRIP_CORPUS)
    rendered = format_program(prog)
    assert parse(rendered) == prog
    # and formatting is a fixed point
    assert format_program(parse(rendered)) == rendered


@pytest.mark.parametrize(
    "name,directives,rules,first_action",
    [
        ("listing1.ncl", 3, 4, Drop),
        ("listing2.ncl", 3, 3, Endorse),
        ("listing3.ncl", 4, 3, Declassify),
    ],
)
def test_shipped_policies_parse(name, directives, rules, first_action):
    prog = parse((POLICY_DIR / name).read_text())
    assert len(prog.labelings) == directives
    assert len(prog.rules) == rules
    assert isinstance(prog.rules[0].action, first_action)
    # the elision marker and comments leave no trace in the tree
    assert all(isinstance(s, (LabelHost, LabelFile, Rule)) for s in prog.statements)


def test_shipped_policies_round_trip():
    for name in ("listing1.ncl", "listing2.ncl", "listing3.ncl"):
        prog = parse((POLICY_DIR / name).read_text())
        assert parse(format_program(prog)) == prog


def test_parse_files_names_a_file_it_cannot_read(tmp_path):
    path = tmp_path / "nowhere.ncl"
    with pytest.raises(DifcnetError) as info:
        parse_files([str(POLICY_DIR / "listing1.ncl"), str(path)])
    assert str(info.value) == f"{path}: cannot read: No such file or directory"


def test_parse_files_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.ncl"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(DifcnetError) as info:
        parse_files([str(POLICY_DIR / "listing1.ncl"), str(path)])
    assert str(info.value) == f"{path}: cannot read: not UTF-8 text (invalid start byte)"
