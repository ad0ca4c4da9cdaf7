"""Network-level decentralized information flow control.

Labels ride in a compact packet header; programmable switches enforce
policy at line rate against per-connection decision state; lightweight
host agents keep process and file labels honest across the kernel
boundary. A deterministic simulator ties the pieces together.
"""

from .labels import TAG_SPACE, Label, TagRegistry, tag_bit
from .header import DifcHeader, FlowKey, buffer_slot, decode_header, encode_header

__version__ = "0.1.0"

__all__ = [
    "TAG_SPACE",
    "Label",
    "TagRegistry",
    "tag_bit",
    "DifcHeader",
    "FlowKey",
    "buffer_slot",
    "decode_header",
    "encode_header",
    "__version__",
]
