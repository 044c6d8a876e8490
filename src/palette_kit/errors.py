"""Exceptions shared across palette_kit."""


class PaletteKitError(Exception):
    """Base class for all palette_kit errors."""


class MalformedInput(PaletteKitError):
    """Input bytes or JSON do not describe a valid graph."""


class LoopRejected(MalformedInput):
    """An edge with identical endpoints was supplied; loops are not supported."""


class ResourceLimit(PaletteKitError):
    """An exact search would exceed its configured cap."""

    def __init__(self, what: str, size: int, cap: int):
        super().__init__(f"{what} is {size}, which exceeds the cap of {cap}")
        self.what = what
        self.size = size
        self.cap = cap


class ImproperColoring(PaletteKitError):
    """Incident edges share a color, or the assignment is not total."""


class NotTwoPalettes(PaletteKitError):
    """The coloring does not induce exactly two distinct palettes."""


class TooManyPalettes(PaletteKitError):
    """The coloring induces more than three distinct palettes."""


class NonMinimalColoring(PaletteKitError):
    """Two colors share no palette (the associated hypergraph is not
    pairwise intersecting), so merging them would give a coloring with no
    more palettes; a minimal coloring has no such pair."""


class InvalidCertificate(PaletteKitError):
    """A decomposition certificate fails one of its defining clauses, named
    by ``clause`` and ``detail``."""

    def __init__(self, clause: str, detail: str = ""):
        msg = f"certificate clause failed: {clause}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.clause = clause
        self.detail = detail


class NotRegular(PaletteKitError):
    """The operation requires a regular graph."""


class NotCubic(PaletteKitError):
    """The operation requires a 3-regular graph."""


class NotConnected(PaletteKitError):
    """The operation requires a connected graph."""
