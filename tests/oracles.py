"""Reference algorithms that only the tests run.

Exact division in the Laurent extension of the charpoly ring by u, and
the views of an ExtPoly it needs.  The engine never divides: a unit
1 + nil is its own inverse, so `charpoly.virtual_sw` is a convolution.
The total and the per-degree class of class data: the engine reads `classes`.

Gram matrices of lattice atoms from their definitions, the square v^T G v
on them, their inertia by rational congruence diagonalization and the Wu
criterion on them: the engine reads each atom's inertia and Wu class off
its declaration, and squares a vector atom by atom, instead.  And the
table of block invariants that a golden digest pins.

The expression grammar as the regular expression it was first written
as, and the parse that reads a term by it: `cli.parse` reads a term by
table lookup, and must give the same value or error as this one.

The lift checks on a whole class, under the per-block and the global
reading of the lift sign, the Theorem A class as a vector, and the
global reading's largest square in closed form: the engine decides
Theorem A from the family and the bound alone.

These stay here as the oracles that property checks compare against.
"""

import functools
import re
from fractions import Fraction

from fourfold import cli, cover, lattice, manifold
from fourfold.charpoly import ExtPoly
from fourfold.errors import (
    DimensionMismatch,
    FourfoldError,
    ModeMismatch,
    NegativeMultiplicity,
    ParseError,
)


class NonMonicDenominator(FourfoldError):
    """A denominator whose top u coefficient is not 1 + nilpotent."""


class NonExactDivision(FourfoldError):
    """A denominator that does not divide the numerator."""


def min_u(p):
    return min((up for _, up in p.terms), default=0)


def max_u(p):
    return max((up for _, up in p.terms), default=0)


def t_degree_part(p, degree):
    """Terms of pure base degree `degree` (no u)."""
    return ExtPoly(p.k, {t for t in p.terms
                         if t[1] == 0 and t[0].bit_count() == degree})


def u_coefficient(p, power):
    """Coefficient of u^power, an ExtPoly with no u."""
    return ExtPoly(p.k, {(mask, 0) for mask, up in p.terms if up == power})


def shift_u(p, delta):
    return ExtPoly(p.k, {(m, up + delta) for m, up in p.terms})


def invert_unit(p):
    """Inverse of 1 + nilpotent in the exterior algebra: p itself.

    Every term of nil = p + 1 holds a generator, so nil^2 = 0 mod 2 and
    (1 + nil)^2 = 1.
    """
    nil = p + ExtPoly.one(p.k)
    if (0, 0) not in p.terms or any(m == 0 for m, _ in nil.terms):
        raise NonMonicDenominator(
            "leading coefficient is not 1 + nilpotent")
    return p


def total(data):
    """The total class 1 + w1 + w2 + ... of BundleClassData."""
    return sum(data.sw, ExtPoly.one(data.k))


def w(data, i):
    """Degree-i class of BundleClassData: w0 = 1, and 0 where none is stored."""
    return data.classes.get(i, ExtPoly.zero(data.k))


def laurent_divide(num, den):
    """Exact division in the Laurent extension by u.

    The denominator must be monic in u: its top u-coefficient must be
    1 + nilpotent.  Returns (q, shift), the quotient as q * u^-shift: an
    ExtPoly holds no negative u power, so the division runs on num shifted
    up by u^s, past the lowest power it can reach, and `shift` is the
    least s >= 0 that keeps q's powers >= 0; it is 0 iff the quotient has
    no negative u power.  Raises NonExactDivision when the denominator
    does not divide the numerator.
    """
    if num.k != den.k:
        raise ModeMismatch("operands live in different rings")
    if not den:
        raise NonMonicDenominator("zero denominator")
    m = max_u(den)
    # its own inverse; NonMonicDenominator when not a unit
    lead = invert_unit(u_coefficient(den, m))
    s = m + num.k + 8
    floor = min_u(num)   # the lowest quotient power tried, shifted by s
    quotient = ExtPoly.zero(num.k)
    rem = shift_u(num, s)
    while rem:
        d = max_u(rem)
        if d - m < floor:
            raise NonExactDivision(
                "denominator does not divide numerator exactly")
        q_term = shift_u(u_coefficient(rem, d) * lead, d - m)
        quotient = quotient + q_term
        rem = rem + q_term * den
    low = min(s, min_u(quotient)) if quotient else s
    return shift_u(quotient, -low), s - low


def atom_gram(atom):
    """An atom's Gram matrix, from its definition: (eps) for a Diag, the
    hyperbolic plane, and for E8 its sign times the Cartan matrix of its
    Dynkin diagram, a chain of seven nodes with an eighth on the fifth."""
    if not isinstance(atom, lattice.E8):
        return ((0, 1), (1, 0)) if atom.rank == 2 else ((atom.eps,),)
    edges = [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {4, 7}]
    return tuple(tuple(atom.sign * (2 * (i == j) - ({i, j} in edges))
                       for j in range(8)) for i in range(8))


def gram(atoms):
    """Full Gram matrix of (atom, count) pairs, block diagonal."""
    blocks = [atom_gram(atom) for atom, n in atoms for _ in range(n)]
    size, off, rows = sum(map(len, blocks)), 0, []
    for m in blocks:
        rows += [(0,) * off + row + (0,) * (size - off - len(m)) for row in m]
        off += len(m)
    return tuple(rows)


def square(gram, v):
    """v^T G v, summed over the whole matrix."""
    return sum(vi * q * vj for row, vi in zip(gram, v) if vi
               for q, vj in zip(row, v))


def inertia(gram):
    """Inertia (b_plus, b_minus, b_zero) by rational congruence diagonalization."""
    n = len(gram)
    a = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    plus = minus = zero = 0
    for p in range(n):
        if a[p][p] == 0:
            # bring a nonzero entry to the pivot
            swap = next((r for r in range(p + 1, n) if a[r][r] != 0), None)
            if swap is not None:
                a[p], a[swap] = a[swap], a[p]
                for row in a:
                    row[p], row[swap] = row[swap], row[p]
            else:
                other = next((c for c in range(p + 1, n) if a[p][c] != 0), None)
                if other is None:
                    zero += 1
                    continue
                # add row/column `other` to p; pivot becomes 2*a[p][other]
                for c in range(n):
                    a[p][c] += a[other][c]
                for r in range(n):
                    a[r][p] += a[r][other]
        pivot = a[p][p]
        if pivot > 0:
            plus += 1
        else:
            minus += 1
        for r in range(p + 1, n):
            if a[r][p] == 0:
                continue
            factor = a[r][p] / pivot
            for c in range(n):
                a[r][c] -= factor * a[p][c]
            for r2 in range(n):
                a[r2][r] -= factor * a[r2][p]
    return plus, minus, zero


def is_characteristic(gram, v):
    """True iff Q(v, x) = Q(x, x) mod 2 for all integer x (Wu criterion)."""
    return all((sum(q * vj for q, vj in zip(row, v)) - row[i]) % 2 == 0
               for i, row in enumerate(gram))


@functools.cache
def block_inertia(atoms):
    """(b_plus, b_minus, b_zero, odd) of one block's (atom, count) pairs."""
    g = gram(atoms)
    return (*inertia(g), any(row[i] % 2 for i, row in enumerate(g)))


def sum_inertia(terms):
    """block_inertia of a sum of (block, count) pairs.

    A sum's Gram matrix is block diagonal, so its inertia is the sum over
    the pairs of count times the block's, each distinct block diagonalized
    once; the sum is odd iff one of its blocks is.
    """
    pairs = [(block_inertia(b.atoms), n) for b, n in terms]
    return (*(sum(n * inv[i] for inv, n in pairs) for i in range(3)),
            any(inv[3] for inv, _ in pairs))


def block_table():
    """Machine-readable table of block invariants (parametric blocks sampled)."""
    samples = [manifold.NAMED[name] for name in (
        "CP2", "-CP2", "-CP2fake", "S2xS2", "K3", "-K3", "E8", "-E8", "W")] + [
        manifold.Block("S1xY", param=0), manifold.Block("S1xY", param=1),
        manifold.Block("S2xSigma", param=1),
        manifold.Block("S2xSigma", param=2),
    ]
    rows = [(b.name, b) for b in samples]
    # Enriques is a composite: report the invariants of its expansion
    rows.append(("Enriques", manifold.expr(manifold.Block("Enriques"))))
    return {name: {"b1": b.b1, "b2": b.inv.b2, "sigma": b.inv.sigma,
                   "spin": b.inv.spin, "ks": b.inv.ks,
                   "h1z2_rank": b.b1 + b.inv.torsion}
            for name, b in rows}


def free_block_offsets(ls):
    """Map pair index -> (offset, span) into the free twisted lattice.

    The pair's copies start at offset, one after another, span apart.
    """
    offsets, off = {}, 0
    for j, (block, n) in enumerate(ls.base.terms):
        if block.spec.part != "N":
            offsets[j] = (off, block.inv.b2)
            off += n * block.inv.b2
    return offsets


def slot_copies(f):
    """(offset, span, reflection) of each generator's copy of family f."""
    offsets = free_block_offsets(f.cover)
    for j, n in f.generators:
        off, span = offsets[j]
        reflect = f.cover.base.terms[j][0].spec.reflect
        for at in range(off, off + n * span, span):
            yield at, span, reflect


def lift_valid(f, c):
    """True iff each generator maps its copy's part of c to plus/minus itself.

    The per-block reading of the lift sign.  Raises DimensionMismatch
    unless c's free part has the cover's rank.
    """
    if len(c.free_part) != f.cover.rank:
        raise DimensionMismatch(
            f"free part has length {len(c.free_part)}, "
            f"expected {f.cover.rank}")
    for at, span, reflect in slot_copies(f):
        part = tuple(c.free_part[at:at + span])
        if reflect(part) not in (part, tuple(-x for x in part)):
            return False
    return True


def lifts_with_global_sign(f, c):
    """True iff each generator carries c to +/-c on the whole free part."""
    free = tuple(c.free_part)
    for at, span, reflect in slot_copies(f):
        image = list(free)
        image[at:at + span] = reflect(free[at:at + span])
        if tuple(image) not in (free, tuple(-v for v in free)):
            return False
    return True


def closed_form_class(f, bound):
    """The class Theorem A decides by: each atom's maximizer, joined."""
    free, square = [], 0
    for atom, n in f.cover.free:
        v = atom.maximizer(bound)
        free += v * n
        square += n * atom.square(v)
    return cover.CharClass(tuple(free), square)


def global_sign_square(f, bound):
    """The largest square of a class that lifts under one global sign.

    None when no class does.  e and o are the largest even and odd
    numbers up to the bound, and every slot is an S2xS2 or a CP2 copy.
    A generator fixes c or negates it.  To fix c, an S2xS2 copy must be
    (a, -a), best at a = 0, and a CP2 copy cannot be fixed, as its entry
    is odd.  To negate c, c must be 0 off that generator's copy, so every
    odd coordinate of the free part lies on it: then a CP2 copy gives
    (+-o), square o^2, and an S2xS2 copy (e, e), square 2e^2.
    """
    e, o = bound - bound % 2, bound - 1 + bound % 2
    odd = sum(cover.w2_plus_w1sq(f.cover))
    cp2 = [n for j, n in f.generators
           if f.cover.base.terms[j][0].kind == "CP2"]
    if cp2:
        return o * o if cp2 == [1] and odd == 1 else None
    fixed = closed_form_class(f, bound).square - 2 * e * e * f.k
    return max(fixed, 2 * e * e) if f.k and not odd else fixed


TERM_RE = re.compile(
    r"\s*(?:(?P<mult>-?\d+)\s*\*\s*)?(?P<name>-?[A-Za-z][A-Za-z0-9]*)"
    r"(?:\s*\(\s*(?P<key>[A-Za-z0-9]+)\s*=\s*(?P<param>-?\d+)\s*\))?\s*")


def reference_parse(text):
    """cli.parse as it read each term, by TERM_RE: a term that does not
    match it is malformed; a match's multiplicity is read, then its name
    looked up, then its param read."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    terms = []
    parts = text.split("#")
    for i, part in enumerate(parts):
        at = sum(map(len, parts[:i])) + i   # where term i starts
        m = TERM_RE.fullmatch(part)
        if m is None:
            if not part.strip():
                raise ParseError("empty connected-sum term", at)
            raise ParseError(f"cannot parse term {part.strip()!r}",
                             at + len(part) - len(part.lstrip()))
        mult, name, key, param = m.groups()
        try:
            mult = int(mult or 1)
        except ValueError as e:
            raise ParseError(str(e), at + m.start("mult")) from None
        if mult < 0:
            raise NegativeMultiplicity(f"multiplicity {mult} must be >= 0")
        block = cli._NAMES.get(name if param is None
                               else f"{name}({key}={{p}})")
        if block is None:
            text = name if param is None else f"{name}({key}={param})"
            raise ParseError(f"unknown block {text!r}", at + m.start("name"))
        if param is not None:
            try:
                block = manifold.Block(block, param=int(param))
            except ValueError as e:
                raise ParseError(e.args[0], at + m.start("name")) from None
        terms.append((block, mult))
    x = manifold.ManifoldExpr(tuple(terms))
    cover.check_summands(x)
    return x


def parse_outcome(parse, text):
    """parse(text), or the (error class, message, offset) of its refusal."""
    try:
        return parse(text)
    except FourfoldError as e:
        return type(e), e.args[0], getattr(e, "offset", None)
