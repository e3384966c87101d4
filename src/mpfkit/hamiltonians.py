"""Grouped lattice Hamiltonians and their structure constants.

A Hamiltonian here is a list of weighted Pauli strings, each tagged with a
group label ``1..n_groups``.  The groups are the factors of the product
formula: the ideal is that terms inside one group mutually commute, but
nothing checks or forbids a group that does not.  From the term list we
derive the locality ``k`` (largest string support), the extensiveness
``g`` (largest per-site absolute weight), and the total one-norm.

Two built-in families cover the test surface: a Heisenberg chain with
transverse field (even bonds / odd bonds / field grouping) and a power-law
ZZ chain grouped by interaction distance.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from itertools import chain, repeat
from operator import add, ge, le, lt, sub
from pathlib import Path
from typing import NamedTuple, Sequence

from .pauli import PauliSum, PauliTerm

__all__ = [
    "HamiltonianSpec",
    "make_spec",
    "load_spec",
    "coerce",
    "heisenberg_chain",
    "long_range_zz_chain",
    "family_constants",
    "family_one_norm",
]


class HamiltonianSpec(NamedTuple):
    """Immutable grouped Hamiltonian with derived structure constants.

    Built through :func:`make_spec`; do not construct directly.  ``terms``
    keeps the literal (term, group) list so that the partition can be
    reconstructed exactly; ``group_sums[g-1]`` is the canonical Pauli sum of
    group ``g``.  Two specs are equal only when they are the same object.
    """

    n_sites: int
    terms: tuple[tuple[PauliTerm, int], ...]
    n_groups: int
    locality: int
    extensiveness: float
    total_one_norm: float
    group_sums: tuple[PauliSum, ...]

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def full_sum(self) -> PauliSum:
        acc = PauliSum(self.n_sites)
        for s in self.group_sums:
            acc = acc + s
        return acc


def make_spec(
    n_sites: int, terms: Sequence[tuple[PauliTerm, int]]
) -> HamiltonianSpec:
    """Validate a tagged term list and compute the derived constants.

    Group labels must cover ``1..max`` with no gaps and every group must be
    non-empty.  Coefficients must be finite and real (the Hamiltonian is
    Hermitian term by term).
    """
    if not terms:
        raise ValueError("empty term list")
    groups = sorted({g for _, g in terms})
    if groups[0] != 1 or groups != list(range(1, len(groups) + 1)):
        raise ValueError(f"group labels must be consecutive from 1, got {groups}")
    n_groups = groups[-1]
    per_site = [0.0] * n_sites
    total = 0.0
    k = 0
    for t, _ in terms:
        if t.n_sites != n_sites:
            raise ValueError("term site count differs from n_sites")
        if abs(t.coeff.imag) > 1e-12:
            raise ValueError(f"non-real coefficient {t.coeff} on {t.label}")
        a = abs(t.coeff)
        if not math.isfinite(a):
            raise ValueError(f"non-finite coefficient {t.coeff} on {t.label}")
        total += a
        m = t.x_mask | t.z_mask
        k = max(k, m.bit_count())
        while m:
            low = m & -m
            per_site[low.bit_length() - 1] += a
            m ^= low
    g_ext = max(per_site) if per_site else 0.0

    grouped: list[list[PauliTerm]] = [[] for _ in range(n_groups)]
    for t, g in terms:
        grouped[g - 1].append(t)
    group_sums = tuple(
        PauliSum.from_terms(ts, n_sites=n_sites) for ts in grouped
    )

    return HamiltonianSpec(
        n_sites=n_sites,
        terms=tuple((t, g) for t, g in terms),
        n_groups=n_groups,
        locality=k,
        extensiveness=g_ext,
        total_one_norm=total,
        group_sums=group_sums,
    )


# -- JSON document form ----------------------------------------------------


def coerce(value, kind: type, what: str):
    """``kind(value)`` by the one typing rule for outside values: a string
    may spell the value, any other value must already be of ``kind`` (an
    integral number counts as an int, an int as a float), and a bool is
    refused.  A refused value raises ValueError("<what>, got <value>")."""
    try:
        converted = kind(value)
    except (TypeError, ValueError):
        converted = None
    if (
        converted is None
        or isinstance(value, bool)
        or not (isinstance(value, (str, kind)) or converted == value)
    ):
        raise ValueError(f"{what}, got {value!r}")
    return converted


def load_spec(source: str | Path | dict) -> HamiltonianSpec:
    """Read the JSON document form.

    Expected shape::

        {"n_sites": 4,
         "terms": [{"pauli": "XXII", "coeff": 1.0, "group": 1}, ...]}
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError("Hamiltonian document must be a JSON object")
    try:
        n_sites = coerce(doc["n_sites"], int, "n_sites must be an integer")
        raw_terms = doc["terms"]
    except KeyError as exc:
        raise ValueError(f"Hamiltonian document missing key {exc}") from None
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ValueError("'terms' must be a non-empty list")
    terms: list[tuple[PauliTerm, int]] = []
    for i, entry in enumerate(raw_terms):
        try:
            label = coerce(entry["pauli"], str, "pauli must be a string")
            coeff = coerce(entry["coeff"], float, "coeff must be a number")
            group = coerce(entry["group"], int, "group must be an integer")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad term entry #{i}: {exc}") from None
        if len(label) != n_sites:
            raise ValueError(
                f"term #{i} label length {len(label)} != n_sites {n_sites}"
            )
        if group < 1:
            raise ValueError(f"term #{i} group {group} must be >= 1")
        terms.append((PauliTerm.from_label(label, coeff), group))
    return make_spec(n_sites, terms)


# -- built-in families -----------------------------------------------------


def heisenberg_chain(
    n_sites: int,
    coupling: float = 1.0,
    field: float = 0.0,
    periodic: bool = False,
) -> HamiltonianSpec:
    """Heisenberg chain with optional transverse-field Z terms.

    Bonds carry XX + YY + ZZ with the given coupling; bond ``i`` joins sites
    ``i`` and ``i+1`` (wrapping around when periodic).  Grouping is even
    bonds, odd bonds, field; groups that come out empty (no odd bond on two
    sites, no field terms when ``field == 0``) are dropped and the remaining
    labels renumbered consecutively.
    """
    if n_sites < 2:
        raise ValueError("need at least two sites for a chain")
    n_bonds = n_sites if periodic else n_sites - 1
    even_bonds: list[PauliTerm] = []
    odd_bonds: list[PauliTerm] = []
    for b in range(n_bonds):
        i, j = b, (b + 1) % n_sites
        pair = (1 << i) | (1 << j)
        bucket = even_bonds if b % 2 == 0 else odd_bonds
        for x_mask, z_mask in ((pair, 0), (pair, pair), (0, pair)):
            bucket.append(PauliTerm(n_sites, x_mask, z_mask, complex(coupling)))
    field_terms: list[PauliTerm] = []
    if field != 0.0:
        for s in range(n_sites):
            field_terms.append(PauliTerm(n_sites, 0, 1 << s, complex(field)))

    tagged: list[tuple[PauliTerm, int]] = []
    next_group = 1
    for bucket in (even_bonds, odd_bonds, field_terms):
        if not bucket:
            continue
        tagged.extend((t, next_group) for t in bucket)
        next_group += 1
    return make_spec(n_sites, tagged)


def long_range_zz_chain(
    n_sites: int, exponent: float, base: float = 1.0
) -> HamiltonianSpec:
    """Power-law ZZ chain: coupling ``base / d^exponent`` at distance ``d``.

    Terms are grouped by interaction distance, so every group is internally
    commuting (everything is diagonal anyway).  The extensiveness walks the
    power-law regimes as the exponent crosses the lattice dimension.
    """
    if n_sites < 2:
        raise ValueError("need at least two sites for a chain")
    tagged: list[tuple[PauliTerm, int]] = []
    for d, coeff in enumerate(_zz_couplings(n_sites, exponent, base), 1):
        for i in range(n_sites - d):
            z_mask = (1 << i) | (1 << (i + d))
            tagged.append((PauliTerm(n_sites, 0, z_mask, coeff), d))
    return make_spec(n_sites, tagged)


def _zz_couplings(n_sites: int, exponent: float, base: float) -> list[complex]:
    """``base / d**exponent`` for d = 1..n_sites-1, the coefficient of every
    ZZ term at distance d.  Refused at the first d where ``d**exponent``
    underflows to 0, and then at the first d where the quotient overflows."""
    scales = [float(d) ** exponent for d in range(1, n_sites)]
    if 0.0 in scales:
        d = scales.index(0.0) + 1
        raise ValueError(
            f"{float(d)}**{exponent} underflows to 0, so the coupling at "
            f"distance {d} is out of float range"
        )
    couplings = [complex(base / scale) for scale in scales]
    for d, coeff in enumerate(couplings, 1):
        if math.isinf(coeff.real):
            raise ValueError(
                f"{base}/{float(d)}**{exponent} overflows, so the coupling at "
                f"distance {d} is out of float range"
            )
    return couplings


def _chain_weights(
    family: str, n_sites: int, coupling: float, field: float, exponent: float
) -> tuple[Sequence[int], list[float], float, int]:
    """A built-in chain's bond distances, nearest first, with the absolute
    weight of each Pauli string; the field's (0 on long-range chains); n_groups."""
    if n_sites < 2:
        raise ValueError("need at least two sites for a chain")
    if family == "heisenberg":  # XX, YY and ZZ on every bond
        n_groups = (2 if n_sites > 2 else 1) + (field != 0.0)
        return [1] * 3, [abs(complex(coupling))] * 3, abs(complex(field)), n_groups
    if family == "long-range-zz":
        couplings = _zz_couplings(n_sites, exponent, coupling)
        return range(1, n_sites), list(map(abs, couplings)), 0.0, n_sites - 1
    raise ValueError(f"no built-in family {family!r}")


def family_constants(
    family: str,
    n_sites: int,
    coupling: float = 1.0,
    field: float = 0.0,
    exponent: float = 2.0,
) -> tuple[int, float, int]:
    """Locality, extensiveness and group count of a built-in chain.

    ``family`` is ``"heisenberg"`` (:func:`heisenberg_chain`, open
    boundary) or ``"long-range-zz"`` (:func:`long_range_zz_chain` with
    ``base=coupling``).  No term is built: a site's weights are left-folded
    in the order :func:`make_spec` adds them, nearest first and the field
    last, so g is bit-identical to the built spec's.

    The k-th nearest distance from the middle site (n-1)//2 is at most, and
    from site 0 at least, the k-th nearest from any site.  So when the
    weights fall with distance the middle site's list is at least every
    site's term by term (a shorter list padded with zeros), and when they
    rise site 0's is; IEEE addition is monotone in each operand, so that
    list folds to g.  Weights that are not monotone fold every site.
    """
    ds, values, h, n_groups = _chain_weights(family, n_sites, coupling, field, exponent)
    sites = range(n_sites)
    if all(map(ge, values, values[1:])) or all(map(le, values, values[1:])):
        sites = {0, (n_sites - 1) // 2}

    def fold(s: int) -> float:
        # a weight of distance d for a bond on the left (d <= s), then one on
        # the right (d < n - s); a left fold, as sum() compensates on 3.12+
        counts = map(add, map(le, ds, repeat(s)), map(lt, ds, repeat(n_sites - s)))
        return reduce(add, chain.from_iterable(map(repeat, values, counts)), 0.0)

    return 2, max(map(fold, sites)) + h, n_groups


def family_one_norm(
    family: str,
    n_sites: int,
    coupling: float = 1.0,
    field: float = 0.0,
    exponent: float = 2.0,
) -> float:
    """Total one-norm L of a built-in chain (see :func:`family_constants`),
    bit for bit the built spec's: each weight of distance d left-folded over
    its n - d bonds, nearest first, then the field over every site, by
    :func:`_add_repeatedly`."""
    ds, values, h, _ = _chain_weights(family, n_sites, coupling, field, exponent)
    runs = zip(chain(values, [h]), chain(map(sub, repeat(n_sites), ds), [n_sites]))
    return reduce(lambda total, run: _add_repeatedly(total, *run), runs, 0.0)


def _add_repeatedly(x: float, a: float, n: int) -> float:
    """``reduce(add, repeat(a, n), x)`` for x, a >= 0, bit for bit, with a
    run of equal increments jumped at once.  Inside one binade of ulp u every
    sum is x + a rounded to a multiple of u; once two steps add the same
    d = fl(x + a) - x, a tie has left an even significand that d keeps, so d
    repeats up to the binade's end."""
    run = None  # the increment and binade of a last step inside one binade
    while n > 0:
        y = x + a
        if y == x or y == math.inf:
            return y
        n -= 1
        m, e = math.frexp(y)
        step = (y - x, e) if math.frexp(x)[1] == e else None
        if step is not None and step == run:  # in units of u = 2^(e-53)
            sig, d = int(math.ldexp(m, 53)), int(math.ldexp(step[0], 53 - e))
            jumps = min(n, (2**53 - 1 - sig) // d)  # the last sum stays below 2^e
            y = math.ldexp(sig + jumps * d, e - 53)
            n -= jumps
        x, run = y, step
    return x
