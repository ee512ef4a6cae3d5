"""Terminating, memoized skein-recursion evaluator.

The rewrite applied at a crossing is always
``D(cur) = D(switched) + z * (D(A) - D(B))`` with the current diagram in
the positive role; the A/B labeling flips under switching, which makes
this self-consistent for the unoriented invariant.  Termination follows
the descending-diagram strategy: reduce whenever a crossing-removing move
exists, otherwise switch the first crossing met as an under-strand in the
deterministic traversal.  The switch count of that strategy upper-bounds
the crossing-change distance used in the lexicographic induction.

An evaluation is two passes.  The walk (``_walk``) pops the skein
tree's diagrams off an explicit stack, so the Python stack stays flat
however deep the tree is.  It codes, reduces, switches and smooths,
counts the node budget and records the code and kind of each visit; it
does no ring arithmetic and writes no memo value, so a budget error
leaves the memo as it was.  The fold (``_fold``) reads that record in order, does
all the ring arithmetic and puts each finished code in the memo.  The
memo's code table (``MemoTable.codes``) spares coding a diagram rebuilt
with the same labels again under the same memo.

The skein tree depends on the diagram and on the keys already in the
memo, never on the ring.  Each evaluation without ``select`` therefore
keeps the walk's record as a plan (see ``_Plan``).  Every diagram's
``mate`` family (its switches, resolutions and flattenings) shares one
plan store, whatever built it: a parser, ``add_kink``,
``remove_crossings``, ``disjoint_union`` or a perturbation.  Plans live
as long as one diagram of the family does.  A plan's key is the root's
crossings and free loops and the memo's lineage: ``None`` for an empty
memo, else the plan of the memo's last evaluation, valid only while the
memo holds just what that evaluation left.  A plan is kept only when no
key was put in during its walk.  When the key has a plan and there is no
``on_expand``, the evaluation replays it: it checks the plan's node
count against the budget and folds it, with no code, reduction or
smoothing.  So the second ring, or the second ``n`` over a table of
resolutions, costs a fraction of the first, and a replay leaves
``MemoTable.codes`` empty.

The evaluation runs in integer rings (see :class:`ring._IntPoly`): in
``Z[a^±1, z^±1]`` for the Laurent ring, and in ``Z[t^±1]`` with
``a = t^(n+1)``, ``z = t - t^-1`` for the series ring, with no
truncation.  Memo values are these integer polynomials.  The value
returned is converted once at the end: to a ``LaurentPoly``, or expanded
at ``t = e^x`` into a ``PowerSeries`` of the requested order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, NamedTuple, Optional

from .diagram import (
    DiagramError,
    FramedDiagram,
    apply_reduction,
    detect_reduction,
    parse_diagram,
)
from .ring import (
    _Z_LIMIT,
    LaurentPoly,
    PowerSeries,
    _IntPoly,
    loop_factor_series,
    series_exp,
)

DEFAULT_NODE_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """The skein tree grew past the configured node budget."""


class AuditError(ValueError):
    """Skein parameters violate a defining identity."""


class _Engine(NamedTuple):
    """The rewrite constants in the evaluator's integer ring, and the map
    from that ring back to the public value ring."""

    alpha: _IntPoly
    alpha_inv: _IntPoly
    z: _IntPoly
    delta: _IntPoly
    unknot: _IntPoly
    value: Callable[[_IntPoly], object]
    z_reach: int  # largest |z-degree| of a packed constant, 0 unpacked


@dataclass(frozen=True)
class SkeinParams:
    """Rewrite-rule constants for one value ring.

    ``alpha`` is the factor of a positive kink, ``skein_z`` the skein
    factor, ``delta`` the disjoint-circle factor and ``one`` the ring
    unit.  The consistency identity ``alpha - alpha^-1 = z * (delta - 1)``
    is forced by applying the skein relation to a kink.
    """

    ring: str  # "laurent" or "series"
    alpha: object
    skein_z: object
    delta: object
    unknot_value: object
    one: object
    n: int | None = None
    order: int | None = None
    normalization: str = "unit"

    @cached_property
    def alpha_inv(self):
        return self.alpha ** -1

    @cached_property
    def _engine(self) -> _Engine:
        """The constants in the evaluator's integer ring.

        Laurent fields are packed as they are, and must have integer
        coefficients.  Series constants are built from ``n`` in
        ``Z[t^±1]``: ``alpha = t^(n+1)``, ``z = t - t^-1``, ``delta`` the
        loop factor and the unknot value ``delta`` or 1.
        :func:`convention_audit` checks that each constant, converted
        back, equals its field.
        """
        if self.ring == "laurent":
            consts = []
            for name in ("alpha", "skein_z", "delta", "unknot_value"):
                try:
                    consts.append(_IntPoly.of_laurent(getattr(self, name)))
                except ValueError as e:
                    raise AuditError(
                        f"{name} is not in Z[a^±1, z^±1]: {e}") from None
            alpha, z, delta, unknot = consts
            value = _IntPoly.to_laurent
            z_reach = max(c.max_z_degree() for c in consts)
        elif self.ring == "series" and self.n is not None:
            alpha = _IntPoly({self.n + 1: 1})
            z = _IntPoly({1: 1, -1: -1})
            delta = _IntPoly.loop_factor(self.n)
            unknot = delta if self.normalization == "delta" else _IntPoly.one()
            value = partial(_IntPoly.t_series, order=self.order)
            z_reach = 0
        else:
            raise AuditError(f"no integer ring for the {self.ring!r} ring "
                             f"with n = {self.n!r}")
        try:
            alpha_inv = alpha ** -1
        except ArithmeticError:
            raise AuditError("alpha is not a unit of the integer ring") \
                from None
        return _Engine(alpha, alpha_inv, z, delta, unknot, value, z_reach)


@cache
def default_params(ring: str = "laurent", n: int = 0, order: int = 8,
                   normalization: str = "unit") -> SkeinParams:
    """The preset parameter set of a ring.  Presets are cached, so equal
    calls return the same object; ``SkeinParams`` is frozen, and callers
    that need other fields use ``dataclasses.replace``."""
    if normalization not in ("unit", "delta", "prop42"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if ring == "laurent":
        a = LaurentPoly.var_a()
        z = LaurentPoly.var_z()
        one = LaurentPoly.one()
        a_minus = a - a ** -1
        if normalization == "prop42":
            # Alternative normalization with the (a + a^-1)/z loop value
            # and inverse kink factor; fails the convention audit (the
            # sign conventions of the two rule sets do not match).
            aplus = a + a ** -1
            return SkeinParams(
                ring, alpha=a ** -1, skein_z=z,
                delta=aplus * z ** -1 - one,
                unknot_value=aplus * z ** -1 + one,
                one=one, normalization=normalization)
        delta = one + a_minus * z ** -1
        unknot = delta if normalization == "delta" else one
        return SkeinParams(ring, alpha=a, skein_z=z, delta=delta,
                           unknot_value=unknot, one=one,
                           normalization=normalization)
    if ring == "series":
        one = PowerSeries.one(order)
        alpha = series_exp(n + 1, order)          # t^(n+1)
        z = series_exp(1, order) - series_exp(-1, order)
        delta = loop_factor_series(n, order)
        unknot = delta if normalization == "delta" else one
        if normalization == "prop42":
            raise AuditError("prop42 preset is only defined over the Laurent ring")
        return SkeinParams(ring, alpha=alpha, skein_z=z, delta=delta,
                           unknot_value=unknot, one=one, n=n, order=order,
                           normalization=normalization)
    raise ValueError(f"unknown ring {ring!r}")


@dataclass
class AuditReport:
    ok: bool
    failures: list[str]

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AuditError("; ".join(self.failures))


def convention_audit(params: SkeinParams) -> AuditReport:
    """Check the parameter set against the defining one-crossing identities."""
    failures = []
    lhs = params.alpha - params.alpha_inv
    rhs = params.skein_z * (params.delta - params.one)
    if lhs != rhs:
        failures.append("consistency identity violated: "
                        "alpha - alpha^-1 != z*(delta - 1)")
    try:
        eng = params._engine
    except AuditError as e:
        failures.append(str(e))
        return AuditReport(ok=False, failures=failures)
    try:
        for name, const in (("alpha", eng.alpha), ("skein_z", eng.z),
                            ("delta", eng.delta), ("unknot_value", eng.unknot)):
            if eng.value(const) != getattr(params, name):
                failures.append(f"engine constant {name} differs from the "
                                "field")
        pos = parse_diagram("s1", "braid")
        neg = parse_diagram("s1^-1", "braid")
        two_loops = parse_diagram("O\nO", "pd")
        got_pos = _evaluate_unchecked(pos, params)
        got_neg = _evaluate_unchecked(neg, params)
        got_uu = _evaluate_unchecked(two_loops, params)
        if got_pos != params.alpha * params.unknot_value:
            failures.append("positive kink does not evaluate to alpha * unknot")
        if got_neg != params.alpha_inv * params.unknot_value:
            failures.append("negative kink does not evaluate to alpha^-1 * unknot")
        if got_uu != params.delta * params.unknot_value:
            failures.append("U|_|U does not evaluate to delta * unknot")
    except Exception as e:  # pragma: no cover - diagnostic path
        failures.append(f"engine run failed during audit: {e}")
    return AuditReport(ok=not failures, failures=failures)


_audited: set[SkeinParams] = set()


def _ensure_audited(params: SkeinParams) -> None:
    # A flag on the object spares hashing every field on each evaluate;
    # equal objects share the audit through the set.
    if "_audit_passed" in params.__dict__:
        return
    if params not in _audited:
        convention_audit(params).raise_if_failed()
        _audited.add(params)
    params.__dict__["_audit_passed"] = True


# ---------------------------------------------------------------------------
# Complexity and crossing selection


@dataclass(frozen=True, order=True)
class Complexity:
    u_bound: int
    c: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.u_bound, self.c)


def select_crossing(d: FramedDiagram) -> tuple[int, dict]:
    """First crossing met as an under-strand in the descending traversal.

    Only defined on irreducible diagrams that are not already descending.
    """
    bad = d.bad_crossings()
    if not bad or detect_reduction(d) is not None:
        raise DiagramError("reducible or resolved")
    return bad[0], {"switches_remaining": len(bad)}


def complexity_bound(d: FramedDiagram) -> Complexity:
    """Switch count of the descending strategy, paired with the crossing
    count; ordered lexicographically."""
    u = 0
    stack = [d]
    while stack:
        cur = stack.pop()
        red = detect_reduction(cur)
        if red is not None:
            smaller, bk = apply_reduction(cur, red)
            stack.append(smaller)
            if bk.remainder is not None:
                stack.append(bk.remainder)
            continue
        bad = cur.bad_crossings()
        if bad:
            u += 1
            stack.append(cur.switch_crossing(bad[0]))
    return Complexity(u, d.n_crossings)


# ---------------------------------------------------------------------------
# The evaluator


# The kind of a plan visit: a memo hit, a descending leaf (its writhe
# and component count follow as two more ops), a branch point (the visits
# of the switched, A and B children follow), or a reduction step: a kink
# of either sign, a free loop, an R2 move or a split (the first piece's
# visits follow, then the remainder's).
_HIT, _LEAF, _BRANCH, _KINK_POS, _KINK_NEG, _DELTA, _R2, _SPLIT = range(8)
_TAGS = {("kink", 1): _KINK_POS, ("kink", -1): _KINK_NEG,
         ("delta", 0): _DELTA, ("none", 0): _R2, ("split", 0): _SPLIT}
_ARITY = (0, 0, 3, 1, 1, 1, 1, 2)  # the child subtrees after each kind


class _Plan:
    """The skein tree of one evaluation, as the visits the walk made.

    ``visits`` holds the code of each visit and ``ops`` its kind, both in
    visit order; a leaf's kind is followed by its writhe and component
    count.  ``nodes`` counts the visits that are not memo hits, and
    ``size`` is the memo's length after the evaluation.
    """

    __slots__ = ("visits", "ops", "nodes", "size")

    def __init__(self, visits: list[str], ops: array, nodes: int, size: int):
        self.visits, self.ops = visits, ops
        self.nodes, self.size = nodes, size


class MemoTable(dict):
    """Memo map with the single-valuedness invariant.

    Its values belong to one parameter set: the first evaluation that
    uses the table binds it, and a later one under other parameters is
    refused.

    ``codes`` maps the stored form ``(crossings, mate, free_loops)`` of
    each diagram coded under this memo to its code, so a diagram rebuilt
    with the same labels costs one tuple hash, not a code.  It stays for
    speed: without it T(4,8) = ``(s1 s2 s3)^8`` took a median 1.14x as
    long and benchmark passes up to 1.09x as long (alternating A/B
    runs), though T(4,8) peaked at 45 MB instead of 82 MB.

    ``lineage`` is ``None`` in a new memo, and then the plan of the
    last evaluation that followed or left one.  The memo holds just what
    that evaluation left while its length is the plan's ``size``; that
    test needs keys to be only added, never removed.  Only the fold
    writes to the table, each key after those of the subtree below it.
    A replay checks each visit's hit or miss against the table, and
    raises ``AssertionError`` where they differ.
    """

    def __init__(self):
        super().__init__()
        self.params: Optional[SkeinParams] = None
        self.codes: dict[tuple, str] = {}
        self.lineage: object = None

    def bind(self, params: SkeinParams) -> None:
        if self.params is None:
            self.params = params
        elif self.params != params:
            raise ValueError("memo table holds values for other skein "
                             "parameters")

    def __setitem__(self, key, value):
        if key in self and super().__getitem__(key) != value:
            raise AssertionError(
                f"memo table would overwrite {key!r} with a different value")
        super().__setitem__(key, value)


def evaluate(d: FramedDiagram, params: SkeinParams,
             budget: int = DEFAULT_NODE_BUDGET,
             memo: Optional[MemoTable] = None,
             on_expand: Optional[Callable[[FramedDiagram, FramedDiagram], None]] = None,
             select: Optional[Callable[[FramedDiagram], int]] = None):
    """Value of the skein invariant on a resolved diagram.

    ``on_expand`` is called with (parent, child) at every skein-rewrite
    edge; ``select`` can override the crossing choice (the result must be
    independent of it, which the test-suite exercises).
    """
    _ensure_audited(params)
    return _evaluate_unchecked(d, params, budget=budget, memo=memo,
                               on_expand=on_expand, select=select)


def _evaluate_unchecked(d: FramedDiagram, params: SkeinParams,
                        budget: int = DEFAULT_NODE_BUDGET,
                        memo: Optional[MemoTable] = None,
                        on_expand=None, select=None):
    if d.is_singular():
        raise DiagramError("cannot evaluate a diagram with flat crossings; "
                           "resolve them first")
    if d.n_crossings == 0 and d.free_loops == 0:
        raise DiagramError("empty diagram has no invariant value")
    eng = params._engine
    if eng.z_reach * (7 * d.n_crossings + 2 * d.free_loops) >= _Z_LIMIT:
        # A node of c crossings and k components has |z-degree| at most
        # z_reach * (3c + 2k - 1), and k <= 2c + free loops.
        raise DiagramError("diagram too large for the packed exponents")
    memo = MemoTable() if memo is None else memo
    memo.bind(params)
    lineage, start = memo.lineage, len(memo)
    # The tree depends on the root form and the memo's keys alone.  The
    # keys are known in an empty memo, and in one that holds just what
    # the plan in its lineage left: inserts only add keys, so that is
    # when its length is still the plan's size.
    key = plan = None
    if select is None and (start == 0 or type(lineage) is _Plan
                           and lineage.size == start):
        key = (d.crossings, d.free_loops, lineage if start else None)
        plan = d._plans.get(key)
    replay = plan is not None and on_expand is None
    visits, ops, nodes = ((plan.visits, plan.ops, plan.nodes) if replay
                          else _walk(d, memo, budget, on_expand, select))
    if nodes > budget:
        raise BudgetExceededError(
            f"skein tree exceeded the node budget of {budget}")
    # Keep a new plan only when no key was put in during the walk.
    keep = key is not None and plan is None and len(memo) == start
    val = _fold(visits, ops, memo, eng, replay)
    if keep:
        plan = d._plans[key] = _Plan(visits, ops, nodes, len(memo))
    if plan is not None:
        memo.lineage = plan
    return eng.value(val)


def _walk(d: FramedDiagram, memo: MemoTable, budget: int, on_expand, select):
    """The skein tree of ``d`` as ``(visits, ops, nodes)`` (see
    ``_Plan``), or its first ``budget + 1`` nodes.

    Children are visited in the order switched, A, B, or first piece,
    remainder.  Under a visit's children the stack holds its code, which
    marks the subtree finished when it is popped; a visit is a hit when
    its code is in the memo or finished, not when it is merely open.
    """
    codes = memo.codes
    visits: list[str] = []
    ops = array("i")
    finished: set[str] = set()
    nodes = 0
    stack: list = [d]
    while stack:
        cur = stack.pop()
        if cur.__class__ is str:
            finished.add(cur)
            continue
        form = (cur.crossings, cur.mate, cur.free_loops)
        code = codes.get(form)
        if code is None:
            code = codes[form] = cur.canonical_code()
        visits.append(code)
        if code in memo or code in finished:
            ops.append(_HIT)
            continue
        nodes += 1
        if nodes > budget:
            break
        red = detect_reduction(cur)
        if red is not None:
            cur, bk = apply_reduction(cur, red)
            ops.append(_TAGS[bk.kind, bk.kink_sign])
            stack += ((code, cur) if bk.remainder is None
                      else (code, bk.remainder, cur))
            continue
        bad = cur.bad_crossings()
        if not bad:
            ops.extend((_LEAF, cur.total_self_writhe(), cur.n_components()))
            finished.add(code)
            continue
        ops.append(_BRANCH)
        c = bad[0] if select is None else select(cur)
        switched = cur.switch_crossing(c)
        a_sm, b_sm = cur.smooth(c, "A"), cur.smooth(c, "B")
        if on_expand is not None:
            for child in (switched, a_sm, b_sm):
                on_expand(cur, child)
        stack += (code, b_sm, a_sm, switched)
    return visits, ops, nodes


def _fold(visits: list[str], ops: array, memo: MemoTable, eng: _Engine,
          replay: bool):
    """The root value of a walk's record.  This is the only code that
    does ring arithmetic or writes the memo: each code goes in when its
    subtree is finished, in the walk's post-order.  A replay checks each
    visit's hit or miss against the memo; a first walk's need not match
    it, since ``on_expand`` may have put keys in."""
    alpha, alpha_inv, delta, z = eng.alpha, eng.alpha_inv, eng.delta, eng.z
    vals: list = []  # the finished children of the pending visits
    # code, kind, and the length of ``vals`` when its last child finishes
    pending: list[tuple[str, int, int]] = []
    pos = 0
    for code in visits:
        tag = ops[pos]
        pos += 1
        if replay and (code in memo) != (tag == _HIT):
            raise AssertionError("skein plan does not match the memo")
        if tag == _HIT:
            val = memo[code]
        elif tag == _LEAF:
            # A globally descending diagram is a stacked framed unlink;
            # the kink and loop laws force its value.  A crossingless
            # irreducible diagram is a single circle (m = 1, w = 0).
            val = alpha ** ops[pos] * delta ** (ops[pos + 1] - 1) * eng.unknot
            pos += 2
            memo[code] = val
        else:
            pending.append((code, tag, len(vals) + _ARITY[tag] - 1))
            continue
        # ``val`` is the last child of each pending visit it finishes.
        while pending and pending[-1][2] == len(vals):
            code, tag, _ = pending.pop()
            if tag == _BRANCH:
                a = vals.pop()
                val = vals.pop().skein_step(z, a, val)
            elif tag == _DELTA:
                val = delta * val
            elif tag == _KINK_POS:
                val = alpha * val
            elif tag == _KINK_NEG:
                val = alpha_inv * val
            elif tag == _SPLIT:
                val = delta * vals.pop() * val
            memo[code] = val
        vals.append(val)
    return val


def evaluate_series(d: FramedDiagram, n: int, order: int,
                    budget: int = DEFAULT_NODE_BUDGET) -> PowerSeries:
    """Truncated series value whose x^m coefficient is the m-th
    finite-type coefficient of the diagram."""
    if order < 0:
        raise ValueError("order must be non-negative")
    return evaluate(d, default_params("series", n=n, order=order),
                    budget=budget)


def evaluate_laurent(d: FramedDiagram,
                     budget: int = DEFAULT_NODE_BUDGET) -> LaurentPoly:
    return evaluate(d, default_params("laurent"), budget=budget)

