"""Constraint checker for the standard diagram of twelve cardinal traits.

Assignments map each node to one symbolic level of a finite ordered chain.
check_assignment verifies every comparability edge plus the two min/max
identities.  For a ground assignment, random_extension_constraints lists
what a one-step random extension must satisfy: most traits transfer as
equalities, the null-covering trait can only grow (at least the ground
covering and bounding values), the null-uniformity trait can only shrink
(at most the ground uniformity and dominating values), and the two starred
slots of the ground assignment name exactly the extension's null covering
and uniformity.
"""

from __future__ import annotations

import enum

from .errors import ForcingLabError, FrozenValue


class InvalidGround(ForcingLabError):
    pass


class CardinalLabel(enum.IntEnum):
    ALEPH1 = 1
    ALEPH2 = 2
    ALEPH3 = 3
    ALEPH4 = 4
    CONTINUUM = 5

    @property
    def text(self) -> str:
        return self.name.lower()

    @classmethod
    def from_text(cls, name: str) -> "CardinalLabel":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown cardinal label {name!r}") from None


NODES: tuple[str, ...] = (
    "add_null", "cov_null", "non_null", "cof_null",
    "add_meager", "cov_meager", "non_meager", "cof_meager",
    "b", "d", "cov_star", "non_star",
)

# (lo, hi) means the lo trait never exceeds the hi trait.
EDGES: tuple[tuple[str, str], ...] = (
    ("add_null", "add_meager"),
    ("add_meager", "cov_meager"),
    ("cov_meager", "d"),
    ("d", "cof_meager"),
    ("cof_meager", "cof_null"),
    ("add_meager", "b"),
    ("b", "d"),
    ("add_null", "cov_null"),
    ("cov_null", "non_meager"),
    ("non_meager", "cof_meager"),
    ("b", "non_meager"),
    ("cov_meager", "non_null"),
    ("non_null", "cof_null"),
)


class DiagramAssignment(FrozenValue):
    _fields = ("values",)
    values: dict

    def __init__(self, values: dict) -> None:
        got = set(values)
        want = set(NODES)
        if got != want:
            missing = sorted(want - got)
            extra = sorted(got - want)
            raise ValueError(f"bad node set: missing {missing}, extra {extra}")
        for node, label in values.items():
            if not isinstance(label, CardinalLabel):
                raise ValueError(f"{node}: {label!r} is not a CardinalLabel")
        super().__init__(values)

    def __getitem__(self, node: str) -> CardinalLabel:
        return self.values[node]


class Violation(FrozenValue):
    _fields = ("kind", "detail")
    kind: str
    detail: str


class DiagramVerdict(FrozenValue):
    _fields = ("ok", "violations")
    ok: bool
    violations: tuple[Violation, ...]


def check_assignment(a: DiagramAssignment) -> DiagramVerdict:
    """Verify every edge and both min/max identities, reporting all failures."""
    bad: list[Violation] = []
    for lo, hi in EDGES:
        if a[lo] > a[hi]:
            bad.append(Violation(
                "edge", f"{lo} = {a[lo].text} exceeds {hi} = {a[hi].text}"))
    if a["add_meager"] != min(a["b"], a["cov_meager"]):
        bad.append(Violation(
            "identity",
            f"add_meager = {a['add_meager'].text}, expected "
            f"min(b, cov_meager) = {min(a['b'], a['cov_meager']).text}"))
    if a["cof_meager"] != max(a["d"], a["non_meager"]):
        bad.append(Violation(
            "identity",
            f"cof_meager = {a['cof_meager'].text}, expected "
            f"max(d, non_meager) = {max(a['d'], a['non_meager']).text}"))
    return DiagramVerdict(not bad, tuple(bad))


class TransferConstraint(FrozenValue):
    _fields = ("node", "relation", "bound", "source")
    node: str
    relation: str  # "eq", "ge", or "le"
    bound: CardinalLabel
    source: str

    def holds(self, value: CardinalLabel) -> bool:
        if self.relation == "eq":
            return value == self.bound
        if self.relation == "ge":
            return value >= self.bound
        if self.relation == "le":
            return value <= self.bound
        raise ValueError(f"unknown relation {self.relation!r}")


_TRANSFER_EQ = (
    "add_null", "cof_null", "b", "d",
    "cov_meager", "non_meager", "add_meager", "cof_meager",
)


def random_extension_constraints(ground: DiagramAssignment) -> list[TransferConstraint]:
    """Constraints a one-step random extension of the ground must satisfy."""
    verdict = check_assignment(ground)
    if not verdict.ok:
        raise InvalidGround(
            f"ground assignment fails: {verdict.violations[0].detail}")
    out: list[TransferConstraint] = []
    for node in _TRANSFER_EQ:
        out.append(TransferConstraint(node, "eq", ground[node], "preserved"))
    out.append(TransferConstraint(
        "cov_null", "ge", max(ground["cov_null"], ground["b"]),
        "null covering grows past ground covering and bounding"))
    out.append(TransferConstraint(
        "non_null", "le", min(ground["non_null"], ground["d"]),
        "null uniformity stays below ground uniformity and dominating"))
    out.append(TransferConstraint(
        "cov_null", "eq", ground["cov_star"],
        "ground starred covering names the extension covering"))
    out.append(TransferConstraint(
        "non_null", "eq", ground["non_star"],
        "ground starred uniformity names the extension uniformity"))
    return out


def check_extension_pair(
    ground: DiagramAssignment, extension: DiagramAssignment
) -> DiagramVerdict:
    """Check both assignments and every transfer constraint between them."""
    bad: list[Violation] = []
    gv = check_assignment(ground)
    if not gv.ok:
        bad.extend(Violation("ground", v.detail) for v in gv.violations)
    ev = check_assignment(extension)
    if not ev.ok:
        bad.extend(Violation("extension", v.detail) for v in ev.violations)
    if gv.ok:
        for c in random_extension_constraints(ground):
            if not c.holds(extension[c.node]):
                bad.append(Violation(
                    "transfer",
                    f"{c.node} = {extension[c.node].text} breaks "
                    f"{c.relation} {c.bound.text} ({c.source})"))
    return DiagramVerdict(not bad, tuple(bad))
