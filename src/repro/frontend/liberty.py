"""Liberty (``.lib``) cell-library reader.

Liberty is the interchange format synthesis flows consume; the
estimator only needs the slice ``yosys``'s ``stat -liberty`` uses to
report chip area: cell names, pin directions (for pin counts), and
per-cell ``area`` attributes.  :func:`parse_liberty` extracts exactly
that slice into :class:`LibertyLibrary`;
:func:`process_from_liberty` projects a library onto a
:class:`~repro.technology.process.ProcessDatabase` so ingested
netlists estimate under the library's own cell footprints.

Validation is validate-then-commit: the *whole* file is parsed and
checked — balanced braces, no duplicate cells, an ``area`` on every
cell — before any library object is constructed, so a truncated or
inconsistent ``.lib`` raises :class:`~repro.errors.FrontendError`
without leaving partial state behind.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import FrontendError
from repro.netlist.model import Module
from repro.technology.process import DeviceKind, DeviceType, ProcessDatabase

_TOKEN_RE = re.compile(
    r"""
    (?P<string>"[^"]*")
  | (?P<punct>[{}();:,])
  | (?P<word>[^\s{}();:,"]+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class LibertyCell:
    """One library cell: name, area, and (pin, direction) pairs."""

    name: str
    area: float
    pins: Tuple[Tuple[str, str], ...] = ()

    @property
    def pin_count(self) -> int:
        return len(self.pins)

    @property
    def input_pins(self) -> Tuple[str, ...]:
        return tuple(name for name, d in self.pins if d != "output")

    @property
    def output_pins(self) -> Tuple[str, ...]:
        return tuple(name for name, d in self.pins if d == "output")


@dataclass(frozen=True)
class LibertyLibrary:
    """An immutable snapshot of a parsed ``.lib`` file."""

    name: str
    cells: Tuple[LibertyCell, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_name", {cell.name: cell for cell in self.cells}
        )

    def cell(self, name: str) -> LibertyCell:
        cell = self._by_name.get(name)
        if cell is None:
            raise FrontendError(
                f"library {self.name!r}: unknown cell {name!r} "
                f"(knows: {', '.join(sorted(self._by_name))})"
            )
        return cell

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def bind(self, module: Module) -> None:
        """Check every device cell of ``module`` against the library.

        Collects *all* unknown cells before raising, so one error
        message names the full gap between netlist and library; the
        module and library are never mutated.
        """
        unknown = sorted({
            device.cell for device in module.devices
            if device.cell not in self._by_name
        })
        if unknown:
            raise FrontendError(
                f"module {module.name!r} references cell(s) not in "
                f"library {self.name!r}: {', '.join(unknown)}"
            )

    def module_area(self, module: Module) -> float:
        """Sum of instance cell areas — exactly the chip area
        ``yosys``'s ``stat -liberty`` reports for a mapped netlist."""
        self.bind(module)
        return sum(
            self._by_name[device.cell].area for device in module.devices
        )


def read_liberty(path: Union[str, Path]) -> LibertyLibrary:
    """Parse a ``.lib`` file from disk."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FrontendError(f"cannot read liberty file {path}: {exc}") from exc
    return parse_liberty(text, str(path))


def parse_liberty(text: str, filename: str = "<string>") -> LibertyLibrary:
    """Parse Liberty source into a :class:`LibertyLibrary`.

    Unknown attributes and groups (timing arcs, lookup tables, ...)
    are skipped structurally; malformed structure — unbalanced braces,
    a truncated file, duplicate cells, a cell without ``area`` —
    raises :class:`FrontendError` before any library state exists.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, filename)
    name, groups = parser.parse_top()
    cells: List[LibertyCell] = []
    seen: Dict[str, int] = {}
    problems: List[str] = []
    for cell_name, cell_body in groups:
        if cell_name in seen:
            problems.append(f"duplicate cell definition {cell_name!r}")
            continue
        seen[cell_name] = 1
        area, pins = cell_body
        if area is None:
            problems.append(f"cell {cell_name!r} has no area attribute")
            continue
        cells.append(LibertyCell(cell_name, area, tuple(pins)))
    if problems:
        raise FrontendError(
            f"{filename}: invalid liberty library {name!r}: "
            + "; ".join(problems)
        )
    if not cells:
        raise FrontendError(
            f"{filename}: library {name!r} defines no cells"
        )
    return LibertyLibrary(name, tuple(cells))


def process_from_liberty(
    library: LibertyLibrary,
    template: Optional[ProcessDatabase] = None,
) -> ProcessDatabase:
    """Project a Liberty library onto a process database.

    Row geometry (row height, pitches, channel capacity) comes from
    ``template`` (default: the shipped CMOS process); each Liberty
    cell becomes a GATE device type whose width is derived from its
    ``area`` attribute at the template's row height:
    ``width_lambda = area_um2 / (row_height_lambda * lambda_um^2)``.
    """
    if template is None:
        from repro.technology.libraries import cmos_process

        template = cmos_process()
    process = ProcessDatabase(
        name=f"{template.name}+{library.name}",
        lambda_um=template.lambda_um,
        row_height=template.row_height,
        feedthrough_width=template.feedthrough_width,
        track_pitch=template.track_pitch,
        port_pitch=template.port_pitch,
        channel_capacity=template.channel_capacity,
        description=(
            f"liberty library {library.name!r} on the row geometry of "
            f"{template.name}"
        ),
    )
    square_lambda = template.lambda_um ** 2
    for cell in library.cells:
        width = cell.area / (template.row_height * square_lambda)
        process.register(DeviceType(
            cell.name, width, template.row_height, DeviceKind.GATE,
            max(cell.pin_count, 2),
            f"liberty cell, area {cell.area:g} um^2",
        ))
    return process.validate()


# ----------------------------------------------------------------------
# tokeniser / recursive-descent structure parser
# ----------------------------------------------------------------------
def _tokenize(text: str) -> List[str]:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    text = text.replace("\\\n", " ")
    return [match.group(0) for match in _TOKEN_RE.finditer(text)]


class _Parser:
    """Walks the token stream, keeping only cell/pin/area structure."""

    def __init__(self, tokens: List[str], filename: str):
        self._tokens = tokens
        self._index = 0
        self._filename = filename

    def _next(self) -> str:
        if self._index >= len(self._tokens):
            raise FrontendError(
                f"{self._filename}: truncated liberty file "
                "(unexpected end of input)"
            )
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _peek(self) -> Optional[str]:
        if self._index >= len(self._tokens):
            return None
        return self._tokens[self._index]

    def parse_top(self):
        """``library (name) { ... }`` -> (name, [(cell, body), ...])."""
        keyword = self._next()
        if keyword != "library":
            raise FrontendError(
                f"{self._filename}: expected 'library(...)' at top "
                f"level, got {keyword!r}"
            )
        name = self._group_args()
        self._expect("{")
        cells = []
        self._walk_group(depth=1, cells=cells)
        if self._peek() is not None:
            raise FrontendError(
                f"{self._filename}: trailing input after the library "
                "group"
            )
        return name, cells

    def _expect(self, token: str) -> None:
        got = self._next()
        if got != token:
            raise FrontendError(
                f"{self._filename}: expected {token!r}, got {got!r}"
            )

    def _group_args(self) -> str:
        self._expect("(")
        args = []
        while True:
            token = self._next()
            if token == ")":
                break
            if token != ",":
                args.append(token.strip('"'))
        return " ".join(args)

    def _walk_group(self, depth: int, cells: List) -> None:
        """Consume a ``{ ... }`` body, collecting ``cell`` subgroups."""
        while True:
            token = self._next()
            if token == "}":
                return
            if token == "{":
                # anonymous nested group (shouldn't occur, but keep
                # the brace accounting honest)
                self._walk_group(depth + 1, [])
                continue
            if self._peek() == "(":
                args = self._group_args()
                if self._peek() == "{":
                    self._next()
                    if token == "cell":
                        cells.append((args, self._parse_cell()))
                    else:
                        self._walk_group(depth + 1, cells=[])
                # else: a simple statement like define(...); fall
                # through — an optional ';' is consumed below
            if self._peek() == ";":
                self._next()

    def _parse_cell(self):
        """Inside ``cell(NAME) { ... }``: pick up area and pins."""
        area: Optional[float] = None
        pins: List[Tuple[str, str]] = []
        while True:
            token = self._next()
            if token == "}":
                return area, pins
            if token == ":":
                continue
            if self._peek() == ":":
                self._next()
                value = self._next()
                if token == "area":
                    try:
                        area = float(value.strip('"'))
                    except ValueError:
                        raise FrontendError(
                            f"{self._filename}: malformed area value "
                            f"{value!r}"
                        ) from None
                if self._peek() == ";":
                    self._next()
                continue
            if self._peek() == "(":
                args = self._group_args()
                if self._peek() == "{":
                    self._next()
                    if token in ("pin", "bus", "pg_pin"):
                        pins.extend(self._parse_pin(args, token))
                    else:
                        self._walk_group(depth=1, cells=[])
                if self._peek() == ";":
                    self._next()

    def _parse_pin(self, name: str, kind: str) -> List[Tuple[str, str]]:
        """Inside ``pin(NAME) { ... }``: pick up the direction."""
        direction = "input"
        nested: List[Tuple[str, str]] = []
        while True:
            token = self._next()
            if token == "}":
                break
            if self._peek() == ":":
                self._next()
                value = self._next().strip('";')
                if token == "direction":
                    direction = value
                if self._peek() == ";":
                    self._next()
                continue
            if self._peek() == "(":
                args = self._group_args()
                if self._peek() == "{":
                    self._next()
                    if token == "pin":
                        nested.extend(self._parse_pin(args, "pin"))
                    else:
                        self._walk_group(depth=1, cells=[])
                if self._peek() == ";":
                    self._next()
        if kind == "pg_pin":
            return nested
        return [(name, direction)] + nested
