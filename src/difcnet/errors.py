"""Exception hierarchy shared across the difcnet modules."""


class DifcnetError(Exception):
    """Base class for all difcnet errors."""


class MalformedHeader(DifcnetError):
    """Raised on truncated or otherwise invalid on-wire label headers."""


class NetclSyntaxError(DifcnetError):
    """Policy source failed to parse. Carries line and column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class UnknownTag(DifcnetError):
    """A tag name is neither registered nor auto-registrable."""


class UnknownName(DifcnetError):
    """An address constant does not resolve through the topology bindings."""


class CompileError(DifcnetError):
    """Policy program is syntactically valid but cannot be compiled."""


class PlacementError(CompileError):
    """A rule's destination address has no attached switch in the topology."""


class UnknownEntry(DifcnetError):
    """A host agent was asked about a process that is not live, or to accept
    on a flow with nothing pending."""


class CapacityExceeded(DifcnetError):
    """Per-flow decision table is full."""


class UnknownHost(DifcnetError):
    """Referenced host does not exist in the topology."""


class PidReuseViolation(DifcnetError):
    """A process id was created while still tracked (missed exit event)."""


class UnknownInode(DifcnetError):
    """File read/write on an inode that was never created."""


class ScenarioError(DifcnetError):
    """Scenario file references entities that do not resolve."""
