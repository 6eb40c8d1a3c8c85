"""TPTP THF0 emission, so external higher-order provers can discharge
embedded queries.

A problem file lists the type declarations for the signature constants,
the eight axioms in the fixed order AV, PV1, PV2, OB1..OB5, and one
conjecture: the validity closure of the embedded formula.  Emission is
pure string building and byte-deterministic for a given input; no prover
is invoked here.

Rendering conventions: application is `@`, fully parenthesized and left
associative; binder variables are renamed V0, V1, ... by binder depth;
the existential pattern (negated universal of a negation) and the
conjunction pattern print as `?[...]` and `&`.  A quantifier constant
applied to something that is not a syntactic lambda is eta-expanded
(`hol.eta_expand`), so every quantifier prints in binder notation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import hol
from .hol import (EQ_NAME, NOT_NAME, OR_NAME, PI_NAME, Abs, App, Arrow,
                  BaseType, Bound, Const, Free, HolTerm, HolType, _applies,
                  beta_eta_normalize, embed, eta_expand, vld)
from .syntax import RESERVED_ATOMS, Formula, atoms


class ExportError(Exception):
    pass


@functools.cache
def thf_type(ty: HolType) -> str:
    if isinstance(ty, BaseType):
        return "$" + ty.name
    left = thf_type(ty.arg)
    if isinstance(ty.arg, Arrow):
        left = f"({left})"
    return f"{left} > {thf_type(ty.res)}"


AV_TYPE, PV_TYPE, OB_TYPE, ATOM_TYPE = (
    thf_type(ty) for ty in (hol.AV.ty, hol.PV.ty, hol.OB.ty, hol.TAU))


def _render(t: HolTerm, names: tuple[str, ...]) -> str:
    kind = type(t)  # one type test per node, then only what the node needs
    if kind is App:
        fn, arg = t.fn, t.arg
        fn_kind = type(fn)
        if fn_kind is Const:
            if fn.name == NOT_NAME:
                if type(arg) is App:
                    inner = arg.fn
                    inner_kind = type(inner)
                    # the existential ¬Pi (λx. ¬s)
                    if (inner_kind is Const and inner.name == PI_NAME
                            and type(arg.arg) is Abs
                            and _applies(arg.arg.body, NOT_NAME)):
                        name = f"V{len(names)}"
                        return (f"?[{name}:{thf_type(arg.arg.var_ty)}]: "
                                + _render(arg.arg.body.arg,
                                          names + (name,)))
                    # the conjunction ¬(¬a ∨ ¬b)
                    if (inner_kind is App and type(inner.fn) is Const
                            and inner.fn.name == OR_NAME
                            and _applies(inner.arg, NOT_NAME)
                            and _applies(arg.arg, NOT_NAME)):
                        return (f"({_render(inner.arg.arg, names)} & "
                                f"{_render(arg.arg.arg, names)})")
                return "~" + _delimited(arg, names)
            if fn.name == PI_NAME:
                if type(arg) is not Abs:
                    arg = eta_expand(arg, fn.ty.arg)
                name = f"V{len(names)}"
                return (f"![{name}:{thf_type(fn.ty.arg.arg)}]: "
                        + _render(arg.body, names + (name,)))
        elif fn_kind is App and type(fn.fn) is Const:
            if fn.fn.name == OR_NAME:
                return f"({_render(fn.arg, names)} | {_render(arg, names)})"
            if fn.fn.name == EQ_NAME:
                return (f"({_delimited(fn.arg, names)} = "
                        f"{_delimited(arg, names)})")
        return f"({_delimited(fn, names)} @ {_delimited(arg, names)})"
    if kind is Abs:
        name = f"V{len(names)}"
        return (f"^[{name}:{thf_type(t.var_ty)}]: "
                + _render(t.body, names + (name,)))
    if kind is Bound:
        if t.index >= len(names):
            raise ExportError(f"dangling bound variable index {t.index}")
        return names[len(names) - 1 - t.index]
    if kind is Const:
        if t.name in hol.LOGICAL_NAMES:
            raise ExportError(
                f"logical constant {t.name!r} occurs unapplied; cannot "
                "render in THF0")
        return t.name
    if kind is Free:
        raise ExportError(f"free variable {t.name!r} in a closed rendering")
    raise ExportError(f"unrenderable term {t!r}")


def _delimited(t: HolTerm, names: tuple[str, ...]) -> str:
    s = _render(t, names)
    kind = type(t)
    if kind is Const or kind is Bound or s.startswith("("):
        return s
    return f"({s})"


def to_thf_term(t: HolTerm) -> str:
    """Render a closed, well-typed term as a THF0 formula string."""
    return _render(t, ())


@dataclass(frozen=True)
class ThfProblem:
    """Ordered THF0 problem: (name, role, content) triples."""

    entries: tuple[tuple[str, str, str], ...]

    def text(self) -> str:
        return "".join(f"thf({name}, {role}, {content}).\n"
                       for name, role, content in self.entries)

    def __str__(self) -> str:
        return self.text()


def _signature_entries(atom_names: list[str]) -> list[tuple[str, str, str]]:
    for a in atom_names:
        if a in RESERVED_ATOMS:
            raise ExportError(
                f"atom name {a!r} collides with a reserved signature symbol")
    entries = [
        ("av_type", "type", f"av: {AV_TYPE}"),
        ("pv_type", "type", f"pv: {PV_TYPE}"),
        ("ob_type", "type", f"ob: {OB_TYPE}"),
    ]
    entries += [(f"{a}_type", "type", f"{a}: {ATOM_TYPE}") for a in atom_names]
    return entries


@functools.cache
def _axiom_entries() -> tuple[tuple[str, str, str], ...]:
    return tuple((name.lower(), "axiom", to_thf_term(term))
                 for name, term in hol.axioms())


def to_thf_problem(f: Formula) -> ThfProblem:
    """The full problem for "f is valid": declarations, the eight axioms,
    and the quantified embedding as the conjecture."""
    entries = _signature_entries(sorted(atoms(f)))
    entries += _axiom_entries()
    goal = beta_eta_normalize(vld(embed(f)))
    entries.append(("goal", "conjecture", to_thf_term(goal)))
    return ThfProblem(tuple(entries))


def axioms_problem() -> ThfProblem:
    """Declarations and the eight axioms only (no conjecture)."""
    return ThfProblem((*_signature_entries([]), *_axiom_entries()))
