"""Label algebra: tags, labels and the registry that names them.

A label is a set of up to 256 tags, stored as a bitmap. Tag index 0 maps to
the most significant bit of the first byte of the wire encoding, so the
bitmap is kept as a plain int with bit i of the *tag space* at integer bit
(255 - i). All operations are pure; labels are immutable values.

Inside difcnet a label is that int, from the registry and the compiler to
the header on the wire. `Label` wraps it at two edges only:
`CompiledPolicy.label_of_ip` returns one and `HostAgent.initialize` takes
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownTag

TAG_SPACE = 256
LABEL_MASK = (1 << TAG_SPACE) - 1


def tag_bit(index: int) -> int:
    """Bitmap value of a single tag index (bit 0 = MSB of byte 0)."""
    if not 0 <= index < TAG_SPACE:
        raise ValueError(f"tag index {index} out of range [0, {TAG_SPACE})")
    return 1 << (TAG_SPACE - 1 - index)


@dataclass(frozen=True)
class Label:
    """An immutable set of tags, represented as a 256-bit bitmap."""

    bits: int = 0

    def __post_init__(self):
        if not 0 <= self.bits <= LABEL_MASK:
            raise ValueError("label bitmap out of range")

    @classmethod
    def of(cls, *indexes: int) -> Label:
        bits = 0
        for i in indexes:
            bits |= tag_bit(i)
        return cls(bits)


@dataclass
class TagRegistry:
    """Deployment-wide mapping of tag names to bit indexes, empty when made.

    A (name, index) pair never changes once assigned. Indexes are handed out
    in registration order, which makes compilation deterministic for a fixed
    policy source. The index-to-name map is kept up to date as tags
    register, so no lookup scans the tags.
    """

    name_to_id: dict[str, int] = field(default_factory=dict, init=False)
    _names: dict[int, str] = field(default_factory=dict, init=False, repr=False, compare=False)

    def register(self, name: str) -> int:
        idx = self.name_to_id.get(name)
        if idx is None:
            idx = len(self.name_to_id)
            if idx >= TAG_SPACE:
                raise UnknownTag(f"tag space exhausted registering {name!r}")
            self.name_to_id[name] = idx
            self._names[idx] = name
        return idx

    def lookup(self, name: str) -> int:
        try:
            return self.name_to_id[name]
        except KeyError:
            raise UnknownTag(f"unknown tag {name!r}") from None

    def name_of(self, index: int) -> str:
        try:
            return self._names[index]
        except KeyError:
            raise UnknownTag(f"no tag registered at index {index}") from None

    def label_of(self, names) -> int:
        """The label bitmap of the tags `names`."""
        bits = 0
        for name in names:
            bits |= tag_bit(self.lookup(name))
        return bits

    def format_label(self, bits: int) -> str:
        """The tag names of the label bitmap `bits`, sorted by name. The set
        bits are walked from tag index 0 up, so an unregistered bit raises
        for the lowest such index."""
        names = []
        while bits:
            top = bits.bit_length() - 1
            names.append(self.name_of(TAG_SPACE - 1 - top))
            bits ^= 1 << top
        return "{" + ", ".join(sorted(names)) + "}"

