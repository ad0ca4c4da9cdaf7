"""Label algebra: bit layout, set semantics, the tag registry.

Set-typed properties are checked against plain Python sets, which act as
the reference model for every bitmap operation on label ints.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from difcnet.errors import UnknownTag
from difcnet.labels import LABEL_MASK, TAG_SPACE, Label, TagRegistry, tag_bit

tag_sets = st.sets(st.integers(min_value=0, max_value=TAG_SPACE - 1), max_size=24)


def indexes(bits):
    """The tag indexes set in the label bitmap `bits`, in index order."""
    return [i for i in range(TAG_SPACE) if bits & tag_bit(i)]


def test_tag_zero_is_msb_of_first_byte():
    assert tag_bit(0) == 1 << 255
    assert tag_bit(0).to_bytes(32, "big")[0] == 0x80


def test_tag_255_is_lsb_of_last_byte():
    assert tag_bit(255) == 1
    assert tag_bit(255).to_bytes(32, "big")[31] == 0x01


def test_tag_bit_rejects_out_of_range():
    with pytest.raises(ValueError):
        tag_bit(-1)
    with pytest.raises(ValueError):
        tag_bit(TAG_SPACE)


def test_label_of_round_trips_indexes():
    assert Label.of(0, 5, 255).bits == tag_bit(0) | tag_bit(5) | tag_bit(255)
    assert indexes(Label.of(0, 5, 255).bits) == [0, 5, 255]
    assert Label.of().bits == 0


def test_label_rejects_out_of_range_bitmap():
    with pytest.raises(ValueError):
        Label(1 << 256)
    with pytest.raises(ValueError):
        Label(-1)


@given(tag_sets, tag_sets)
def test_set_operations_match_python_sets(a, b):
    bits = Label.of(*a).bits | Label.of(*b).bits
    assert set(indexes(bits)) == a | b


def test_registry_assigns_indexes_in_order():
    reg = TagRegistry()
    assert reg.register("x") == 0
    assert reg.register("y") == 1
    assert reg.register("x") == 0  # idempotent
    assert reg.name_to_id == {"x": 0, "y": 1}
    assert reg.name_of(1) == "y"
    assert reg.lookup("y") == 1


def test_registry_lookup_unknown():
    with pytest.raises(UnknownTag):
        TagRegistry().lookup("ghost")
    with pytest.raises(UnknownTag):
        TagRegistry().name_of(3)


def test_registry_label_of_and_format():
    reg = TagRegistry()
    reg.register("b")
    reg.register("a")
    bits = reg.label_of(["a", "b"])
    assert bits == tag_bit(0) | tag_bit(1)
    assert reg.format_label(bits) == "{a, b}"  # sorted by name
    assert reg.format_label(0) == "{}"


def test_registry_tag_space_exhaustion():
    reg = TagRegistry()
    for i in range(TAG_SPACE):
        reg.register(f"t{i}")
    with pytest.raises(UnknownTag):
        reg.register("overflow")


def test_label_mask_constant():
    assert LABEL_MASK == (1 << 256) - 1
    assert indexes(Label(LABEL_MASK).bits) == list(range(256))


# -- registry lookups against the scans they replaced ------------------------


def scan_name_of(reg, index):
    for name, idx in reg.name_to_id.items():
        if idx == index:
            return name
    raise UnknownTag(f"no tag registered at index {index}")


def scan_format_label(reg, label):
    names = sorted(scan_name_of(reg, i) for i in indexes(label.bits))
    return "{" + ", ".join(names) + "}"


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except UnknownTag as exc:
        return "error", str(exc)


@given(
    st.lists(st.text(alphabet="abXY_", min_size=1, max_size=3), max_size=30),
    # mostly registered indexes, some never registered
    st.sets(st.one_of(st.integers(0, 12), st.integers(0, TAG_SPACE - 1)), max_size=6),
    st.integers(-1, TAG_SPACE),
)
def test_registry_lookups_equal_scans(registrations, indexes, index):
    reg = TagRegistry()
    for name in registrations:
        reg.register(name)
    label = Label.of(*indexes)
    assert outcome(reg.name_of, index) == outcome(scan_name_of, reg, index)
    assert outcome(reg.format_label, label.bits) == outcome(scan_format_label, reg, label)
