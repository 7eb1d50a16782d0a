"""Symbolic algebra of truth-value sets: closed subsets of [0,1] with 0 and 1.

A set is a finite union of atoms: rational points, closed intervals,
middle-thirds Cantor pieces mapped onto a rational interval, and the two
convergent-sequence shapes

    seqdown(q;s) = {q} + {q + s/k : k >= 1}    (descending to q)
    sequp(q;s)   = {q} + {q - s/k : k >= 1}    (ascending to q)

both intersected with [0,1].  All data is rational, so membership, the
perfect kernel, cardinality class and isolation of 0 are decided exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .formula import GoedelError

Rational = Fraction


class SetSyntaxError(GoedelError):
    pass


class EmptyKernelError(GoedelError):
    pass


# ---------------------------------------------------------------------------
# Atoms


@dataclass(frozen=True)
class Point:
    q: Fraction


@dataclass(frozen=True)
class Interval:
    a: Fraction
    b: Fraction


@dataclass(frozen=True)
class Cantor:
    """The standard middle-thirds set scaled affinely onto [a, b]."""
    a: Fraction
    b: Fraction


@dataclass(frozen=True)
class SeqDown:
    limit: Fraction
    scale: Fraction


@dataclass(frozen=True)
class SeqUp:
    limit: Fraction
    scale: Fraction


SetAtom = Union[Point, Interval, Cantor, SeqDown, SeqUp]


def _check_atom(atom: SetAtom) -> None:
    if isinstance(atom, Point):
        if not 0 <= atom.q <= 1:
            raise ValueError(f"point {atom.q} outside [0,1]")
    elif isinstance(atom, (Interval, Cantor)):
        if not (0 <= atom.a < atom.b <= 1):
            raise ValueError(f"bad bounds [{atom.a},{atom.b}]")
    else:
        if not 0 <= atom.limit <= 1:
            raise ValueError(f"limit {atom.limit} outside [0,1]")
        if atom.scale <= 0:
            raise ValueError("scale must be positive")


def in_cantor01(x: Fraction) -> bool:
    """Exact membership of a rational in the standard Cantor set.

    Walks the ternary expansion; rationals have eventually periodic
    expansions, so a repeated remainder certifies a digit-0/2 cycle.
    """
    if x < 0 or x > 1:
        return False
    seen: set[Fraction] = set()
    while True:
        if x == 0 or x == 1:
            return True
        if x in seen:
            return True
        seen.add(x)
        d = math.floor(3 * x)
        if d == 1:
            # 0.1000... = 0.0222... is the only digit-1 escape hatch
            return 3 * x == 1
        x = 3 * x - d


def atom_member(atom: SetAtom, x: Fraction) -> bool:
    if isinstance(atom, Point):
        return x == atom.q
    if isinstance(atom, Interval):
        return atom.a <= x <= atom.b
    if isinstance(atom, Cantor):
        if not atom.a <= x <= atom.b:
            return False
        return in_cantor01((x - atom.a) / (atom.b - atom.a))
    if isinstance(atom, SeqDown):
        if x == atom.limit:
            return True
        if x <= atom.limit or x > 1:
            return False
        k = atom.scale / (x - atom.limit)
        return k.denominator == 1 and k >= 1
    if x == atom.limit:
        return True
    if x >= atom.limit or x < 0:
        return False
    k = atom.scale / (atom.limit - x)
    return k.denominator == 1 and k >= 1


def _seq_bounds(atom: Union[SeqDown, SeqUp]) -> Optional[tuple[Fraction, Fraction, int]]:
    """(lo, hi, first valid k) of a sequence atom clipped to [0,1], or None
    when only the limit survives the clipping."""
    q, s = atom.limit, atom.scale
    if isinstance(atom, SeqDown):
        if q >= 1:
            return None
        kmin = max(1, math.ceil(s / (1 - q)))
        return q, q + s / kmin, kmin
    if q <= 0:
        return None
    kmin = max(1, math.ceil(s / q))
    return q - s / kmin, q, kmin


def _atom_bounds(atom: SetAtom) -> tuple[Fraction, Fraction]:
    if isinstance(atom, Point):
        return atom.q, atom.q
    if isinstance(atom, (Interval, Cantor)):
        return atom.a, atom.b
    sb = _seq_bounds(atom)
    if sb is None:
        return atom.limit, atom.limit
    return sb[0], sb[1]


def _atom_sort_key(atom: SetAtom):
    rank = {Point: 0, Interval: 1, Cantor: 2, SeqDown: 3, SeqUp: 4}[type(atom)]
    lo, hi = _atom_bounds(atom)
    return (lo, hi, rank, repr(atom))


def simplify(atoms: Sequence[SetAtom]) -> tuple[SetAtom, ...]:
    """Canonical form: merged intervals, absorbed points/sequences, sorted.

    After simplification, finiteness is the syntactic check "only Point
    atoms" and the infimum of the positive part is readable per atom.
    """
    work: list[SetAtom] = []
    for atom in atoms:
        _check_atom(atom)
        if isinstance(atom, (SeqDown, SeqUp)) and _seq_bounds(atom) is None:
            work.append(Point(atom.limit))
        else:
            work.append(atom)

    intervals = sorted((a for a in work if isinstance(a, Interval)), key=lambda a: (a.a, a.b))
    merged: list[Interval] = []
    for iv in intervals:
        if merged and iv.a <= merged[-1].b:
            merged[-1] = Interval(merged[-1].a, max(merged[-1].b, iv.b))
        else:
            merged.append(iv)

    def inside_interval(lo: Fraction, hi: Fraction) -> bool:
        return any(iv.a <= lo and hi <= iv.b for iv in merged)

    rest: list[SetAtom] = []
    for atom in work:
        if isinstance(atom, Interval):
            continue
        if isinstance(atom, Cantor) and inside_interval(atom.a, atom.b):
            continue
        if isinstance(atom, (SeqDown, SeqUp)):
            lo, hi, _ = _seq_bounds(atom)  # type: ignore[misc]
            if inside_interval(lo, hi):
                continue
        rest.append(atom)

    others = merged + [a for a in rest if not isinstance(a, Point)]
    points = []
    for p in (a for a in rest if isinstance(a, Point)):
        if not any(atom_member(o, p.q) for o in others):
            points.append(p)

    return tuple(sorted(dict.fromkeys(others + points), key=_atom_sort_key))


# ---------------------------------------------------------------------------
# Gödel sets


@dataclass(frozen=True)
class GoedelSet:
    """A finite union of atoms, put in simplify's canonical form when built,
    so permuted atom lists give equal sets.  Use make_set for validated
    construction; cb_kernel returns bare sets that need not hold 0 and 1."""
    atoms: tuple[SetAtom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", simplify(self.atoms))

    def __str__(self) -> str:
        return print_set(self)


def make_set(atoms: Sequence[SetAtom]) -> GoedelSet:
    V = GoedelSet(tuple(atoms))
    for q in (Fraction(0), Fraction(1)):
        if not member(V, q):
            raise ValueError(f"a Goedel set must contain {q}")
    return V


def member(V: GoedelSet, x: Fraction) -> bool:
    x = Fraction(x)
    if x < 0 or x > 1:
        raise ValueError(f"{x} outside [0,1]")
    return any(atom_member(a, x) for a in V.atoms)


def is_empty(V: GoedelSet) -> bool:
    return not V.atoms


# ---------------------------------------------------------------------------
# Cantor-Bendixson kernel and classification


def _derivative(atoms: Sequence[SetAtom]) -> tuple[SetAtom, ...]:
    """Limit points of the denoted union.

    With finitely many atoms, a limit point of the union is a limit point
    of a single atom: intervals and Cantor pieces are their own limit
    sets, a sequence contributes its limit, a point contributes nothing.
    """
    return tuple(Point(a.limit) if isinstance(a, (SeqDown, SeqUp)) else a
                 for a in atoms if not isinstance(a, Point))


def cb_kernel(V: GoedelSet) -> GoedelSet:
    """Perfect kernel: the derivative, built as a canonical set, iterated
    to its fixpoint; only intervals and Cantor pieces, the least first."""
    while (nxt := GoedelSet(_derivative(V.atoms))) != V:
        V = nxt
    return V


def least_kernel_piece(V: GoedelSet) -> Union[Interval, Cantor]:
    """The perfect kernel's piece whose left end is the kernel's inf."""
    kernel = cb_kernel(V)
    if is_empty(kernel):
        raise EmptyKernelError("the perfect kernel is empty")
    return kernel.atoms[0]  # type: ignore[return-value]


def holds_harmonic_tail(V: GoedelSet, limit: Fraction, sign: int, start: Fraction) -> bool:
    """Whether one atom of V holds limit and every limit + sign/m (m >= 1
    an integer) up to start in [0,1]: an interval spanning both, or a
    sequence to limit from that side with integer scale s (s/(s*m) = 1/m)."""
    lo, hi = (limit, start) if sign > 0 else (start, limit)
    seq = SeqDown if sign > 0 else SeqUp
    for atom in V.atoms:
        if isinstance(atom, Interval) and atom.a <= lo and hi <= atom.b:
            return True
        if isinstance(atom, seq) and atom.limit == limit and atom.scale.denominator == 1:
            return True
    return False


def _positive_infimum(atom: SetAtom) -> Optional[Fraction]:
    """inf of the atom's intersection with (0,1]; None when that part is
    empty; Fraction(0) means the atom accumulates at 0."""
    if isinstance(atom, Point):
        return atom.q if atom.q > 0 else None
    if isinstance(atom, (Interval, Cantor)):
        return atom.a  # a == 0 correctly reports accumulation at 0
    if isinstance(atom, SeqDown):
        return atom.limit  # limit 0 means members s/k accumulate at 0
    sb = _seq_bounds(atom)
    if sb is None:
        return None  # degenerate sequp clipped to {0}
    k = sb[2]
    while atom.limit - atom.scale / k <= 0:
        k += 1
    return atom.limit - atom.scale / k


def smallest_positive(V: GoedelSet) -> Fraction:
    """min of V ∩ (0,1]; raises if 0 is not isolated (no minimum)."""
    if not zero_isolated(V):
        raise ValueError("0 is not isolated; the positive part has no minimum")
    return min(q for q in map(_positive_infimum, V.atoms) if q is not None)


def zero_isolated(V: GoedelSet) -> bool:
    infs = [q for q in (_positive_infimum(a) for a in V.atoms) if q is not None]
    return bool(infs) and min(infs) > 0


@dataclass(frozen=True)
class Classification:
    cardinality: str            # "finite" | "countable" | "uncountable"
    size: Optional[int]         # set when finite
    zero_isolated: bool
    zero_in_kernel: bool
    verdict: str                # "H" | "H0" | "Hn" | "not-re"
    n: Optional[int] = None     # set when verdict == "Hn"

    def describe(self) -> str:
        if self.verdict == "Hn":
            return f"finite with {self.n} values -> axiomatizable (H_{self.n})"
        if self.verdict == "H":
            return "uncountable, 0 in the perfect kernel -> axiomatizable (H)"
        if self.verdict == "H0":
            return "uncountable, 0 isolated -> axiomatizable (H_0)"
        return f"{self.cardinality}, 0 neither isolated nor in the kernel -> not recursively enumerable"


def classify(V: GoedelSet) -> Classification:
    kernel = cb_kernel(V)
    uncountable = not is_empty(kernel)
    finite = all(isinstance(a, Point) for a in V.atoms)
    iso = zero_isolated(V)
    in_kernel = uncountable and member(kernel, Fraction(0))

    if finite:
        n = len(V.atoms)
        return Classification("finite", n, iso, False, "Hn", n)
    card = "uncountable" if uncountable else "countable"
    if uncountable and in_kernel:
        return Classification(card, None, iso, True, "H")
    if uncountable and iso:
        return Classification(card, None, iso, False, "H0")
    return Classification(card, None, iso, in_kernel, "not-re")


def saturate_above_kernel_inf(V: GoedelSet) -> GoedelSet:
    """V ∪ [inf P, 1] for P the perfect kernel; the induced logic is
    unchanged, which makes the saturated set the canonical representative."""
    inf_p = least_kernel_piece(V).a
    return make_set(list(V.atoms) + [Interval(inf_p, Fraction(1))])


# ---------------------------------------------------------------------------
# Embedding a finite point list into a perfect atom (strictly monotone)


def _binary_expansion(x: Fraction) -> tuple[list[int], list[int]]:
    """(preperiod, period) of the binary expansion; dyadic rationals get
    the terminating form (period [0]), 1 is 0.[1]."""
    if x == 1:
        return [], [1]
    pre: list[int] = []
    seen: dict[Fraction, int] = {}
    while x not in seen:
        seen[x] = len(pre)
        x *= 2
        d = math.floor(x)
        pre.append(d)
        x -= d
        if x == 0:
            return pre, [0]
    start = seen[x]
    return pre[:start], pre[start:]


def _doubled_ternary_value(pre: list[int], period: list[int]) -> Fraction:
    """Value of the ternary number whose digits are twice the given binary
    digits: the order-isomorphism of 2^omega onto the Cantor set."""
    m, p = len(pre), len(period)
    num_pre = 0
    for d in pre:
        num_pre = num_pre * 3 + 2 * d
    num_per = 0
    for d in period:
        num_per = num_per * 3 + 2 * d
    val = Fraction(num_pre, 3 ** m)
    val += Fraction(num_per, (3 ** p - 1) * 3 ** m)
    return val


def embed_into_perfect(points: Sequence[Fraction], target: SetAtom) -> list[Fraction]:
    """Strictly monotone image of a sorted rational list inside a perfect
    atom, sending the minimum to inf(target).

    Interval targets use the affine map.  Cantor targets compose the scale
    map, a binary expansion, the digit-doubling injection into ternary and
    the affine map onto the piece.
    """
    pts = [Fraction(p) for p in points]
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if any(q <= p for p, q in zip(pts, pts[1:])):
        raise ValueError("points must be strictly increasing")
    if pts[0] < 0 or pts[-1] > 1:
        raise ValueError("points must lie in [0,1]")
    if not isinstance(target, (Interval, Cantor)):
        raise ValueError("target must be a perfect atom (interval or cantor)")

    lo, hi = pts[0], pts[-1]
    scaled = [(p - lo) / (hi - lo) for p in pts]
    if isinstance(target, Interval):
        return [target.a + s * (target.b - target.a) for s in scaled]
    out = []
    for s in scaled:
        c01 = _doubled_ternary_value(*_binary_expansion(s))
        out.append(target.a + c01 * (target.b - target.a))
    return out


# ---------------------------------------------------------------------------
# Finite sampling


def _atom_candidates(atom: SetAtom) -> Iterator[Fraction]:
    if isinstance(atom, Point):
        yield atom.q
        return
    if isinstance(atom, Interval):
        queue = [(atom.a, atom.b)]
        while queue:
            a, b = queue.pop(0)
            mid = (a + b) / 2
            yield mid
            queue.append((a, mid))
            queue.append((mid, b))
        return
    if isinstance(atom, Cantor):
        # breadth-first over the two affine thirds; 1/3 and 2/3 of each
        # piece are Cantor members (0.0222... and 0.2)
        queue = [(atom.a, atom.b)]
        while queue:
            a, b = queue.pop(0)
            w = b - a
            yield a + w / 3
            yield a + 2 * w / 3
            queue.append((a, a + w / 3))
            queue.append((a + 2 * w / 3, b))
        return
    sb = _seq_bounds(atom)
    yield atom.limit
    if sb is None:
        return
    k = sb[2]
    sign = 1 if isinstance(atom, SeqDown) else -1
    while True:
        yield atom.limit + sign * atom.scale / k
        k += 1


def sample_finite(V: GoedelSet, n: int) -> GoedelSet:
    """A finite sub-Gödel-set of size <= n containing 0, 1 and, when 0 is
    isolated in V, the smallest positive element.  Remaining slots are
    filled round-robin from per-atom candidate streams."""
    if n < 2:
        raise ValueError("n must be at least 2")
    chosen: list[Fraction] = [Fraction(0), Fraction(1)]
    if zero_isolated(V) and len(chosen) < n:
        chosen.append(smallest_positive(V))

    streams = [_atom_candidates(a) for a in V.atoms]
    finite_atoms = all(isinstance(a, Point) for a in V.atoms)
    budget = 4 * n + 16
    while len(chosen) < n and streams and budget > 0:
        nxt: list[Iterator[Fraction]] = []
        for s in streams:
            try:
                q = next(s)
            except StopIteration:
                continue
            budget -= 1
            if q not in chosen:
                chosen.append(q)
            nxt.append(s)
            if len(chosen) >= n:
                break
        if finite_atoms and not nxt:
            break
        streams = nxt
    return GoedelSet(tuple(Point(q) for q in sorted(chosen)))


def finite_elements(V: GoedelSet) -> list[Fraction]:
    """The elements of a finite Gödel set: its canonical atoms, ascending."""
    if not all(isinstance(a, Point) for a in V.atoms):
        raise ValueError("truth-value set is not finite")
    return [a.q for a in V.atoms]  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# Text syntax:  [0,1]  {0,1/3,1}  cantor(0,1)  seqdown(0;1)  sequp(1;1)  + for union

_NUM = r"-?\d+(?:/\d+)?"


def _rat(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise SetSyntaxError(f"zero denominator in {s!r}") from None


def parse_set(text: str) -> GoedelSet:
    atoms: list[SetAtom] = []
    for part in text.split("+"):
        part = part.strip()
        if not part:
            raise SetSyntaxError("empty union member")
        m = re.fullmatch(rf"\[\s*({_NUM})\s*,\s*({_NUM})\s*\]", part)
        if m:
            atoms.append(Interval(_rat(m.group(1)), _rat(m.group(2))))
            continue
        m = re.fullmatch(r"\{(.*)\}", part)
        if m:
            for item in m.group(1).split(","):
                item = item.strip()
                if not re.fullmatch(_NUM, item):
                    raise SetSyntaxError(f"bad point {item!r}")
                atoms.append(Point(_rat(item)))
            continue
        m = re.fullmatch(rf"(?i:cantor)\s*\(\s*({_NUM})\s*,\s*({_NUM})\s*\)", part)
        if m:
            atoms.append(Cantor(_rat(m.group(1)), _rat(m.group(2))))
            continue
        m = re.fullmatch(rf"(?i:seqdown)\s*\(\s*({_NUM})\s*;\s*({_NUM})\s*\)", part)
        if m:
            atoms.append(SeqDown(_rat(m.group(1)), _rat(m.group(2))))
            continue
        m = re.fullmatch(rf"(?i:sequp)\s*\(\s*({_NUM})\s*;\s*({_NUM})\s*\)", part)
        if m:
            atoms.append(SeqUp(_rat(m.group(1)), _rat(m.group(2))))
            continue
        raise SetSyntaxError(f"cannot parse set term {part!r}")
    return make_set(atoms)


def print_set(V: GoedelSet) -> str:
    parts = []
    points = [a for a in V.atoms if isinstance(a, Point)]
    if points:
        parts.append("{" + ",".join(str(p.q) for p in points) + "}")
    for a in V.atoms:
        if isinstance(a, Interval):
            parts.append(f"[{a.a},{a.b}]")
        elif isinstance(a, Cantor):
            parts.append(f"cantor({a.a},{a.b})")
        elif isinstance(a, SeqDown):
            parts.append(f"seqdown({a.limit};{a.scale})")
        elif isinstance(a, SeqUp):
            parts.append(f"sequp({a.limit};{a.scale})")
    return " + ".join(parts) if parts else "{}"


# Prototype sets from the literature
def unit_interval() -> GoedelSet:
    return make_set([Interval(Fraction(0), Fraction(1))])


def v_down() -> GoedelSet:
    return make_set([SeqDown(Fraction(0), Fraction(1))])


def v_up() -> GoedelSet:
    return make_set([SeqUp(Fraction(1), Fraction(1))])


def gm_values(m: int) -> list[Fraction]:
    """The m elements of V_m = {0} + {1 - 1/k : 2 <= k <= m-1} + {1},
    ascending."""
    if m < 2:
        raise ValueError("m must be at least 2")
    return [Fraction(0), *(1 - Fraction(1, k) for k in range(2, m)), Fraction(1)]


def v_m(m: int) -> GoedelSet:
    return make_set([Point(q) for q in gm_values(m)])
