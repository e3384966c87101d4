"""Slow reference routes kept as test oracles.

- The full-matrix evaluator: every stage exponential and propagator as one
  2^n x 2^n matrix, with no split into invariant sectors.  It checks the
  blocked :class:`mpfkit.trotter.TrotterEvaluator` and
  :class:`mpfkit.mpf.MPFEvaluator` entrywise.
- Two sweeps of the blocked evaluators that no subcommand runs: the step
  error over a grid of time arguments and the long-time deviation of a
  repeated extrapolated step.
- The full-matrix views of the blocked evaluator: the exact propagator
  rotated back from the parity blocks through an explicit rotation matrix,
  the truncated effective generator exponentiated as one matrix, and the
  truncation defect between the two full-matrix steps.  They check
  :meth:`mpfkit.trotter.TrotterEvaluator.scatter` and the blocked
  :func:`mpfkit.bch.check_truncated_generator`.
- The matrix form of :func:`mpfkit.dense.invariant_sectors`: the connected
  components of the union of full matrices' nonzero patterns, found by
  scipy's graph search.  It checks the sectors the evaluator finds from the
  Pauli masks.
- The matrix-log route to the effective-generator series, an independent
  check of :func:`mpfkit.bch.compute_phi`: sample the dense step unitary on
  a grid of small time arguments, take principal matrix logarithms, fit
  ``log T(tau) = sum_q C_q tau^q`` by least squares and expand each ``C_q``
  in the Pauli basis.  scipy (for the Schur form) is a test dependency only.
- The exact free-algebra log coefficients c_w behind
  :func:`mpfkit.bch.compute_phi`, as ``Fraction`` values: the word weights
  by a ``Fraction`` prefix recursion, then, word by word, a DP over its
  split points.  :func:`mpfkit.bch._pair_weights` runs the same sums in
  integers for the nest walk over the reversed words.
- The per-composition walk that :func:`mpfkit.bch._word_weights` replaces:
  every composition of q over the merged stages visited in turn, its
  weight added to its word (in floats or exactly), and the whole series
  coefficient summed composition by composition through the descent
  weights of the permutation average
  (-1)^d / C(q-1, d) [A_sigma(1), [... A_sigma(q)]] / q^2, an independent
  form of the same series.
- The all-tuples commutator traversal, which walks every group tuple where
  :mod:`mpfkit.commutators` walks only the pairs g_1 < g_2 and doubles, and
  the full-matrix nest norm that the sector-blocked norm must reproduce.
- The numpy routes of two plain-float helpers: the ``lstsq`` line fit behind
  :func:`mpfkit.formulas.fit_line` and the array form of
  :func:`mpfkit.formulas.vandermonde_residuals`.
- The Richardson weights of :func:`mpfkit.formulas.closed_form_coefficients`
  as a running ``Fraction`` product, one factor per node pair, where the
  package reduces one integer quotient per weight.
- The every-site fold behind :func:`mpfkit.hamiltonians.family_constants`:
  each site's whole tail of weights left-folded, with no screening by
  prefix-sum estimates.
- Commutation inside each group of a Hamiltonian, term pair by term pair,
  which the product formula's grouping presumes and nothing in the
  package checks.
- Two scaling diagnostics that check paper claims on families of inputs:
  how the extensiveness g grows with N (:func:`g_scaling_report`) and how
  the weight norm ||c||_1 grows with J (:func:`condition_report`).

Nothing in ``mpfkit`` reaches these routes, so they live with the tests.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from operator import add
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from mpfkit import bch, dense
from mpfkit.dense import _PHASES, _bit_reverse, _popcounts
from mpfkit.formulas import DEFAULT_DENSE_CAP, MPFSpec, ProductFormulaPlan, build_mpf
from mpfkit.hamiltonians import HamiltonianSpec
from mpfkit.mpf import MPFEvaluator
from mpfkit.pauli import PauliSum, terms_commute
from mpfkit.trotter import TrotterEvaluator, difference_norm


class FullMatrixEvaluator:
    """Stage-by-stage product of full-matrix stage exponentials.

    One full :class:`mpfkit.dense.HermitianFactorization` per group and one
    for the full Hamiltonian, with no sector split: the evaluation the
    blocked ``TrotterEvaluator`` must reproduce.
    """

    def __init__(self, spec: HamiltonianSpec, plan: ProductFormulaPlan) -> None:
        self.plan = plan
        self.dim = 1 << spec.n_sites
        self._group_facts = [
            dense.HermitianFactorization.of(dense.from_pauli_sum(s))
            for s in spec.group_sums
        ]
        self._full_fact = dense.HermitianFactorization.of(
            dense.from_pauli_sum(spec.full_sum())
        )

    def exact_unitary(self, tau: float) -> np.ndarray:
        return self._full_fact.expm_minus_i(tau)

    def formula_unitary(self, tau: float) -> np.ndarray:
        u = np.eye(self.dim, dtype=complex)
        for g, a in self.plan.stages:
            u = self._group_facts[g - 1].expm_minus_i(a * tau) @ u
        return u

    def mpf_step(self, mpf_spec: MPFSpec, tau: float) -> np.ndarray:
        """``sum_j c_j T(tau/k_j)^{k_j}``, each power a full matrix."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for c, k in zip(mpf_spec.c_values, mpf_spec.k_values):
            acc += c * np.linalg.matrix_power(self.formula_unitary(tau / k), k)
        return acc


def expm_minus_i(h: np.ndarray, tau: float, herm_tol: float = 1e-10) -> np.ndarray:
    """``exp(-i h tau)`` for Hermitian ``h`` via exact eigendecomposition."""
    return dense.HermitianFactorization.of(h, herm_tol).expm_minus_i(tau)


def error_sweep(ev: TrotterEvaluator | MPFEvaluator, taus: np.ndarray) -> np.ndarray:
    """The evaluator's step error at each time argument."""
    return np.array([ev.error(t) for t in taus])


def long_time_error(ev: MPFEvaluator, t: float, steps: int) -> float:
    """Actual deviation of the repeated extrapolated step over a full evolution.

    The combined step is not unitary, so the r-fold product is formed
    explicitly (binary powering) rather than bounded term by term.
    """
    if steps < 1:
        raise ValueError("need a positive step count")
    step = ev.step_blocks(t / steps)
    repeated = [np.linalg.matrix_power(b, steps) for b in step]
    return difference_norm(ev._trotter.exact_blocks(t), repeated)


def parity_rotation(ev: TrotterEvaluator) -> np.ndarray:
    """The unitary whose columns are the evaluator's basis vectors, stack by
    stack and row by row: ``(|a> + s |r>) / sqrt 2`` for a pair, ``|a>``
    where the index is its own mirror."""
    cols = []
    for p in ev.frame.basis:
        for index, mirror, sign in zip(p.index, p.mirror, p.sign):
            for a, r in zip(index, mirror):
                col = np.zeros(ev.frame.dim)
                col[a] = 1.0 if a == r else 0.5**0.5
                col[r] += 0.0 if a == r else sign * 0.5**0.5
                cols.append(col)
    return np.array(cols).T


def rotate_back(ev: TrotterEvaluator, blocks: list[np.ndarray]) -> np.ndarray:
    """``Q diag(blocks) Q^dag`` with Q from :func:`parity_rotation`."""
    q = parity_rotation(ev)
    return q @ scipy.linalg.block_diag(*(b for stack in blocks for b in stack)) @ q.T


def exact_unitary(ev: TrotterEvaluator, tau: float) -> np.ndarray:
    """The evaluator's exact propagator as one full matrix."""
    return rotate_back(ev, ev.exact_blocks(tau))


def truncated_step_unitary(
    spec: HamiltonianSpec, tau: float, p0: int, phis: dict[int, PauliSum]
) -> np.ndarray:
    """exp(-i (H tau + sum Phi_q tau^q)) as one full matrix."""
    gen = bch.effective_generator(spec, tau, p0, phis)
    # the series coefficients carry float-product noise; symmetrized check
    return expm_minus_i(dense.from_pauli_sum(gen), tau, herm_tol=1e-8)


def truncation_defect(
    ev: TrotterEvaluator, phis: dict[int, PauliSum], tau: float, p0: int
) -> float:
    """The full-matrix defect || T(tau) - exp(-i H_eff^{(p0)}(tau) tau) ||."""
    u = FullMatrixEvaluator(ev.spec, ev.plan).formula_unitary(tau)
    v = truncated_step_unitary(ev.spec, tau, p0, phis)
    return np.linalg.norm(u - v, 2)


def invariant_sectors(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Joint invariant sectors of equal-shape square matrices, grouped by size.

    The connected components of the union of the exact nonzero patterns,
    laid out like :func:`mpfkit.dense.invariant_sectors`: one ``(count,
    size)`` array per size, ascending; indices ascending within a row, rows
    ordered by their smallest index.
    """
    linked = np.zeros(mats[0].shape, dtype=bool)
    for m in mats:
        linked |= m != 0
    count, label = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(linked), directed=False
    )
    comps = sorted(
        (np.flatnonzero(label == c) for c in range(count)),
        key=lambda c: (c.size, c[0]),
    )
    by_size: dict[int, list[np.ndarray]] = {}
    for c in comps:
        by_size.setdefault(c.size, []).append(c)
    return [np.array(rows) for _, rows in sorted(by_size.items())]


def fraction_perm_weights(q: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """All permutations of 0..q-1 with their exact descent weights."""
    out = []
    for sigma in itertools.permutations(range(q)):
        d = sum(1 for i in range(q - 1) if sigma[i] > sigma[i + 1])
        out.append((sigma, Fraction((-1) ** d, math.comb(q - 1, d))))
    return tuple(out)


def compositions(
    total: int, parts: int, start: int = 0
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Compositions of ``total`` >= 1 over slots ``start..parts-1``.

    Each is given as its nonzero ``(slot, part)`` pairs, in lexicographic order
    of the full part tuples, the order that fixes the per-composition sums.
    """
    for v in range(parts - 1, start - 1, -1):
        for k in range(1, total):
            for rest in compositions(total - k, parts, v + 1):
                yield ((v, k),) + rest
        yield ((v, total),)


def composition_word_weights(
    slots: Sequence[tuple[int, float]], q: int, exact: bool = False
) -> dict[tuple[int, ...], float | Fraction]:
    """Each composition's prod_v a_v^{q_v} / q_v! added to the word it spells,
    in enumeration order; with ``exact`` the products and sums are
    ``Fraction`` values of the float stage fractions, with no rounding."""
    out: dict[tuple[int, ...], float | Fraction] = {}
    for comp in compositions(q, len(slots)):
        factor = Fraction(1) if exact else 1.0
        word: tuple[int, ...] = ()
        for v, q_v in comp:
            g, a = slots[v]
            factor *= (Fraction(a) if exact else a) ** q_v / math.factorial(q_v)
            word += (g,) * q_v
        out[word] = out.get(word, 0) + factor
    return out


@cache
def fraction_word_weights(
    slots: tuple[tuple[int, float], ...], q: int
) -> dict[tuple[int, ...], Fraction]:
    """B(u), the sum of prod_v a_v^{k_v} / k_v! over the ways the stages
    spell u, for every spelled word of length 1..q, exactly: each prefix w
    grows to ``w + (g_v,) * k`` at stage v, times a_v^k / k!.  Cached on
    (stages, q); callers read the dict and never change it."""
    prefixes: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for g, a in slots:
        powers = [Fraction(a) ** k / math.factorial(k) for k in range(q + 1)]
        grown: dict[tuple[int, ...], Fraction] = {}
        for w, c in prefixes.items():
            for k in range(q - len(w) + 1):
                key = w + (g,) * k
                grown[key] = grown.get(key, 0) + c * powers[k]
        prefixes = grown
    del prefixes[()]
    return prefixes


@cache
def fraction_log_coefficients(
    slots: tuple[tuple[int, float], ...], q: int
) -> dict[tuple[int, ...], Fraction]:
    """c_w, the coefficient of each word w of length q over the stages'
    groups in log prod_v exp(a_v X_{g_v}), exactly:
    sum_m (-1)^{m-1} / m G[q][m], where G[i][m] sums prod B(u) over the
    splits of w[:i] into m spelled words, G[i][m] = sum_j G[j][m-1] B(w[j:i]).
    Cached on (stages, q), like :func:`fraction_word_weights`."""
    weights = fraction_word_weights(slots, q)
    groups = sorted({g for g, _ in slots})
    out: dict[tuple[int, ...], Fraction] = {}
    for w in itertools.product(groups, repeat=q):
        g_table: list[dict[int, Fraction]] = [{0: Fraction(1)}] + [{} for _ in range(q)]
        for i in range(1, q + 1):
            for j in range(i):
                b = weights.get(w[j:i])
                if b:
                    for m, x in g_table[j].items():
                        g_table[i][m + 1] = g_table[i].get(m + 1, 0) + x * b
        out[w] = sum(
            (Fraction((-1) ** (m - 1), m) * x for m, x in g_table[q].items()),
            Fraction(0),
        )
    return out


def nest_series_term(
    spec: HamiltonianSpec, q: int, agg: dict[tuple[int, ...], float]
) -> PauliSum:
    """(-i)^{q-1} / q sum_seq agg[seq] [H_seq1, [H_seq2, ... H_seqq]], the
    nests taken in order of their reversed group sequence and shared along
    common suffixes, the order in which the nest walk behind
    :func:`mpfkit.bch.compute_phi` sums them."""
    acc: dict[tuple[int, int], complex] = {}
    stack: list[PauliSum | None] = [None] * q
    prev: tuple[int, ...] | None = None
    for seq in sorted(agg, key=lambda s: s[::-1]):
        weight = agg[seq]
        if prev is None:
            start = q - 1
        else:
            l = q
            while l > 0 and prev[l - 1] == seq[l - 1]:
                l -= 1
            start = l - 1
        for j in range(start, -1, -1):
            h = spec.group_sum(seq[j])
            stack[j] = h if j == q - 1 else h.commutator(stack[j + 1])
        prev = seq
        nest = stack[0]
        if nest:
            for key, c in nest.items():
                acc[key] = acc.get(key, 0.0) + weight * c
    overall = (-1j) ** (q - 1) / q
    return PauliSum(spec.n_sites, {k: overall * c for k, c in acc.items()})


def fraction_pair_coefficients(
    slots: tuple[tuple[int, float], ...], q: int
) -> dict[tuple[int, ...], Fraction]:
    """The nonzero weights the nest walk rounds, exactly: c_w of a word of
    one group, and c_w - c_w' of a longer word w whose reversed word r has
    r_1 < r_2, w' being w with its innermost pair swapped (whose nest is the
    negated one)."""
    coeffs = fraction_log_coefficients(slots, q)
    if q > 1:
        coeffs = {
            w: c - coeffs[w[:-2] + (w[-1], w[-2])]
            for w, c in coeffs.items()
            if w[-1] < w[-2]
        }
    return {w: c for w, c in coeffs.items() if c}


def fraction_phi(plan: ProductFormulaPlan, spec: HamiltonianSpec, q: int) -> PauliSum:
    """Phi_q from the ``Fraction`` log coefficients, rounded once per word
    pair (r, r'): each of :func:`fraction_pair_coefficients` correctly
    rounded."""
    pairs = fraction_pair_coefficients(plan.merged_stages()[::-1], q)
    return nest_series_term(spec, q, {w: float(c) for w, c in pairs.items()})


def composition_phi(plan: ProductFormulaPlan, spec: HamiltonianSpec, q: int) -> PauliSum:
    """Phi_q summed composition by composition: each composition's weight
    times each of its word's permutation weights (summed once per word's
    equality pattern), added to the group sequence it lands on."""
    slots = plan.merged_stages()[::-1]  # leftmost product factor first
    weights = fraction_perm_weights(q)
    patterns: dict[tuple[int, ...], list[tuple[tuple[int, ...], Fraction]]] = {}
    words: dict[tuple[int, ...], list[tuple[tuple[int, ...], float]]] = {}
    agg: dict[tuple[int, ...], float] = {}
    for comp in compositions(q, len(slots)):
        comp_factor = 1.0
        word: tuple[int, ...] = ()
        for v, q_v in comp:
            comp_factor *= slots[v][1] ** q_v / math.factorial(q_v)
            word += (slots[v][0],) * q_v
        if word not in words:
            labels = list(dict.fromkeys(word))
            pattern = tuple(labels.index(g) for g in word)
            if pattern not in patterns:
                local: dict[tuple[int, ...], Fraction] = {}
                for sigma, w in weights:
                    key = tuple(pattern[i] for i in sigma)
                    local[key] = local.get(key, 0) + w
                patterns[pattern] = [(key, n) for key, n in local.items() if n]
            # the permutation average carries 1/q^2, the log form 1/q
            words[word] = [
                (tuple(labels[i] for i in key), float(n / q))
                for key, n in patterns[pattern]
            ]
        for key, f in words[word]:
            agg[key] = agg.get(key, 0.0) + f * comp_factor
    return nest_series_term(spec, q, agg)


def full_matrix_norm(nest: PauliSum, q: int = 0) -> float:
    """Spectral norm of a Pauli sum built as one 2^n x 2^n matrix.

    Takes (and ignores) the nest order the sector-blocked norm reads its
    leak allowance from, so it can stand in for that norm.
    """
    return np.linalg.norm(dense.from_pauli_sum(nest), 2)


def all_tuples_commutator_sums(
    spec: HamiltonianSpec,
    q_max: int,
    mode: str = "exact",
    splice: tuple[PauliSum, int] | None = None,
) -> dict[int, float]:
    """alpha_2..alpha_qmax from every group tuple, each nest normed once.

    The depth-first search before the pair halving: nests of one order are
    met in lexicographic tuple order, full-matrix norms in exact mode.
    ``splice = (O, j)`` commutes O onto each nest once it holds j groups.
    """
    observable, insert_after = splice or (None, 0)
    alphas = dict.fromkeys(range(2, q_max + 1), 0.0)

    def descend(depth: int, nest: PauliSum) -> None:
        if depth == insert_after:
            nest = observable.commutator(nest)
            if not nest:
                return
        if depth >= 2:
            exact = mode == "exact"
            alphas[depth] += full_matrix_norm(nest) if exact else nest.one_norm()
        if depth == q_max:
            return
        for h in spec.group_sums:
            nxt = h.commutator(nest)
            if nxt:
                descend(depth + 1, nxt)

    for first in spec.group_sums:
        descend(1, first)
    return alphas


def pauli_decompose(mat: np.ndarray, n_sites: int, tol: float = 1e-12) -> PauliSum:
    """Expand a dense matrix in the Pauli-string basis.

    Coefficients are ``tr(P mat) / 2^n``; entries below ``tol`` are dropped.
    Exact for any matrix since the strings form a basis.  Each x-mask reads
    its permuted diagonal ``mat[b, b ^ xr]`` once; the parity signs of all
    z-masks then make a Walsh-Hadamard transform of that diagonal, so the
    whole expansion costs O(n 4^n).  Terms are ordered by x-mask, then
    z-mask.
    """
    dim = 1 << n_sites
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix shape {mat.shape} does not match n_sites={n_sites}")
    masks = np.arange(dim)
    rev = np.array([_bit_reverse(m, n_sites) for m in range(dim)], dtype=np.int64)
    # row x holds the permuted diagonal of string x
    w = np.asarray(mat, dtype=complex)[masks, masks ^ rev[:, None]]
    half = 1
    while half < dim:
        w = w.reshape(dim, -1, 2, half)
        a, b = w[:, :, :1], w[:, :, 1:]
        w = np.concatenate([a + b, a - b], axis=2)
        half *= 2
    # w[x, zr] = sum_b (-1)^{|zr&b|} mat[b, b ^ xr]
    phase = np.array(_PHASES)[_popcounts(n_sites)[masks[:, None] & masks] & 3]
    coeffs = w.reshape(dim, dim)[:, rev] * phase / dim
    keep = np.abs(coeffs) > tol
    return PauliSum(
        n_sites,
        {(int(x), int(z)): coeffs[x, z] for x, z in zip(*np.nonzero(keep))},
    )


def unitary_log(u: np.ndarray, *, unitary_tol: float = 1e-10, branch_margin: float = 0.3) -> np.ndarray:
    """Principal logarithm of a unitary matrix through its Schur form.

    For unitary (hence normal) input the complex Schur form is diagonal, so
    the log is ``Q diag(i * angle) Q^dag`` with angles in (-pi, pi].  Samples
    whose eigenphases come within ``branch_margin`` of the +-pi branch cut are
    rejected: the principal branch would misread them and a polynomial fit
    built on top would silently corrupt.
    """
    dim = u.shape[0]
    defect = np.linalg.norm(u @ u.conj().T - np.eye(dim), ord=2)
    if defect > unitary_tol:
        raise ValueError(f"input is not unitary (defect {defect:.3e})")
    t, q = scipy.linalg.schur(u, output="complex")
    off = np.linalg.norm(t - np.diag(np.diag(t)))
    if off > 1e-8:
        raise ValueError(f"Schur form not diagonal (off-diagonal {off:.3e})")
    phases = np.angle(np.diag(t))
    if np.any(np.abs(phases) > np.pi - branch_margin):
        worst = float(np.max(np.abs(phases)))
        raise ValueError(
            f"eigenphase {worst:.4f} within {branch_margin} of the branch cut; "
            "shrink the time argument"
        )
    return (q * (1j * phases)) @ q.conj().T


def log_series_fit(
    taus: np.ndarray,
    unitaries: list[np.ndarray],
    max_order: int,
    *,
    n_sites: int | None = None,
    decompose_tol: float = 1e-9,
) -> list[PauliSum] | list[np.ndarray]:
    """Fit ``log U(tau) = sum_q C_q tau^q`` from sampled unitaries.

    Takes the principal log of each sample (rejecting branch-cut cases), then
    solves one least-squares problem for the matrix-valued polynomial with
    zero constant term.  Returns the coefficient matrices for orders
    ``1..max_order``; when ``n_sites`` is given each is Pauli-decomposed.

    The fit window must keep ``tau * ||H||`` well inside (-pi, pi) and small
    enough that orders above ``max_order`` are negligible; in practice pass a
    couple of guard orders beyond the ones you intend to read.
    """
    taus = np.asarray(taus, dtype=float)
    if len(taus) != len(unitaries):
        raise ValueError("sample count mismatch")
    if len(taus) < max_order + 1:
        raise ValueError("need more samples than fitted orders")
    logs = np.stack([unitary_log(u).reshape(-1) for u in unitaries])
    design = np.vander(taus, N=max_order + 1, increasing=True)[:, 1:]
    # column scaling: raw monomial columns span many decades and would
    # poison the least-squares conditioning
    col = np.linalg.norm(design, axis=0)
    coeffs, *_ = np.linalg.lstsq(design / col, logs, rcond=None)
    coeffs = coeffs / col[:, None]
    dim = unitaries[0].shape[0]
    mats = [coeffs[q].reshape(dim, dim) for q in range(max_order)]
    if n_sites is None:
        return mats
    return [pauli_decompose(m, n_sites, tol=decompose_tol) for m in mats]


def oracle_phi_from_logs(
    plan: ProductFormulaPlan,
    spec: HamiltonianSpec,
    max_order: int,
    taus: np.ndarray,
    cap: int = DEFAULT_DENSE_CAP,
) -> list[PauliSum]:
    """Independent route to the series: polynomial fit of dense matrix logs.

    Samples ``log T(tau)`` on the given grid, fits orders ``1..max_order``,
    and converts ``C_q = -i Phi_q`` back to Hermitian Pauli sums.  Purely a
    cross-check; agreement with :func:`mpfkit.bch.compute_phi` pins the sign
    and ordering conventions of the series.
    """
    ev = TrotterEvaluator(spec, plan, cap)
    unitaries = [ev.formula_unitary(t) for t in taus]
    mats = log_series_fit(np.asarray(taus), unitaries, max_order)
    out = []
    for m in mats:
        out.append(pauli_decompose(1j * m, spec.n_sites, tol=1e-12))
    return out


def every_site_family_constants(
    family: str,
    n_sites: int,
    coupling: float = 1.0,
    field: float = 0.0,
    exponent: float = 2.0,
) -> tuple[int, float, int]:
    """:func:`mpfkit.hamiltonians.family_constants` with every site folded.

    Each site's doubled head is shared from site to site and its whole tail
    is left-folded onto it, O(N) per site; the package folds only the sites
    whose prefix-sum estimate lies within the rounding allowance of the best.
    """
    if n_sites < 2:
        raise ValueError("need at least two sites for a chain")
    if family == "heisenberg":
        weights = [(1, abs(complex(coupling)))] * 3
        n_groups = (2 if n_sites > 2 else 1) + (field != 0.0)
    elif family == "long-range-zz":
        weights = [
            (d, abs(complex(coupling / float(d) ** exponent)))
            for d in range(1, n_sites)
        ]
        n_groups = n_sites - 1
    else:
        raise ValueError(f"no built-in family {family!r}")
    ds = [d for d, _ in weights]
    values = [a for _, a in weights]
    g = head = 0.0
    lo = 0
    for i in range((n_sites + 1) // 2):
        while lo < len(ds) and ds[lo] <= i:
            head = head + values[lo] + values[lo]
            lo += 1
        tail = values[lo : bisect_left(ds, n_sites - i)]
        g = max(g, reduce(add, tail, head))
    if family == "heisenberg":
        g += abs(complex(field))
    return 2, g, n_groups


def groups_commute(spec: HamiltonianSpec) -> bool:
    """Whether every two terms of one group commute."""
    return all(
        terms_commute(s.x_mask, s.z_mask, t.x_mask, t.z_mask)
        for (s, g), (t, h) in itertools.combinations(spec.terms, 2)
        if g == h
    )


def lstsq_fit_line(xs, ys) -> tuple[float, float]:
    """Least-squares line ``ys ~ a xs + b`` by ``lstsq``: (a, RMS residual)."""
    xs = np.asarray(xs, dtype=float)
    design = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(design, ys, rcond=None)
    residual = float(np.sqrt(np.mean((design @ sol - ys) ** 2)))
    return float(sol[0]), residual


def fraction_closed_form_coefficients(k_values) -> list[Fraction]:
    """c_j = prod_{i != j} k_j^2 / (k_j^2 - k_i^2), one Fraction step per factor."""
    ks = [Fraction(k) for k in k_values]
    out = []
    for j, kj in enumerate(ks):
        c = Fraction(1)
        for i, ki in enumerate(ks):
            if i != j:
                c *= kj * kj / (kj * kj - ki * ki)
        out.append(c)
    return out


def array_vandermonde_residuals(k_values, c_values) -> np.ndarray:
    """Row-wise defect of the Richardson system, summed by numpy."""
    ks = np.asarray(k_values, dtype=float)
    cs = np.asarray(c_values, dtype=float)
    out = np.empty(len(ks))
    for i in range(len(ks)):
        target = 1.0 if i == 0 else 0.0
        out[i] = abs(float(np.sum(cs * ks ** (-2.0 * i))) - target)
    return out


@dataclass(frozen=True)
class GScalingReport:
    """Extensiveness-versus-size fit across a family of specs."""

    sizes: tuple[int, ...]
    g_values: tuple[float, ...]
    power_slope: float
    power_residual: float
    log_residual: float
    regime: str


def g_scaling_report(
    builder: Callable[[int], HamiltonianSpec],
    sizes: Sequence[int],
    constant_slope_tol: float = 0.05,
) -> GScalingReport:
    """Fit how the extensiveness grows with system size.

    Compares a power law ``g ~ N^s`` (log-log least squares) against a
    logarithmic model ``g ~ a + b ln N`` and labels the regime as
    ``"constant"``, ``"logarithmic"`` or ``"power"`` by slope size and
    residual comparison.
    """
    if len(sizes) < 3:
        raise ValueError("need at least three sizes to fit")
    gs = [builder(n).extensiveness for n in sizes]
    if min(gs) <= 0.0:
        raise ValueError("extensiveness must be positive to fit scaling")
    ln_n = np.log(np.asarray(sizes, dtype=float))
    g_arr = np.asarray(gs, dtype=float)
    power_slope, power_residual = lstsq_fit_line(ln_n, np.log(g_arr))
    _, log_residual = lstsq_fit_line(ln_n, g_arr)
    # that residual is in g units; rescale to be comparable with the log-log fit
    log_residual /= float(np.mean(g_arr))
    if abs(power_slope) < constant_slope_tol:
        regime = "constant"
    elif log_residual < power_residual:
        regime = "logarithmic"
    else:
        regime = "power"
    return GScalingReport(
        sizes=tuple(int(n) for n in sizes),
        g_values=tuple(float(g) for g in gs),
        power_slope=power_slope,
        power_residual=power_residual,
        log_residual=log_residual,
        regime=regime,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Growth of the weight and node 1-norms across a J-sweep."""

    j_values: tuple[int, ...]
    norm_c_values: tuple[float, ...]
    norm_k_values: tuple[float, ...]
    power_exponent: float
    power_residual: float
    log_residual: float
    subpolynomial: bool


def linear_k_specs(
    j_max: int, base_order: int = 2, j_min: int = 1
) -> list[MPFSpec]:
    """Solved specs for the k_j = j scheme across J = j_min..j_max."""
    return [build_mpf(j, base_order) for j in range(j_min, j_max + 1)]


def condition_report(specs: Sequence[MPFSpec]) -> ConditionReport:
    """Fit how the weight 1-norm grows with the term count.

    Compares a power law ``norm ~ J^s`` against a logarithmic model
    ``norm ~ a + b ln J``; the scheme counts as sub-polynomial when the
    logarithmic model fits at least as well.  Purely diagnostic.
    """
    ordered = sorted(specs, key=lambda s: s.j_count)
    js = [s.j_count for s in ordered]
    if len(js) < 3 or len(set(js)) != len(js):
        raise ValueError("need at least three specs with distinct term counts")
    norm_c = np.array([s.norm_c_1 for s in ordered])
    norm_k = np.array([s.norm_k_1 for s in ordered])
    ln_j = np.log(np.asarray(js, dtype=float))
    power_exponent, power_residual = lstsq_fit_line(ln_j, np.log(norm_c))
    _, log_residual = lstsq_fit_line(ln_j, norm_c)
    log_residual /= float(np.mean(norm_c))
    return ConditionReport(
        j_values=tuple(js),
        norm_c_values=tuple(float(x) for x in norm_c),
        norm_k_values=tuple(float(x) for x in norm_k),
        power_exponent=power_exponent,
        power_residual=power_residual,
        log_residual=log_residual,
        subpolynomial=log_residual <= power_residual,
    )
