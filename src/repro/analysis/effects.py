"""Symbolic per-handler effect analysis and the static conflict matrix.

:func:`~repro.analysis.lint.predict_footprints` predicts *concrete*
operation sets (which variables, which events).  This module extends the
same interprocedural walk to **symbolic** read/write effect summaries:

* program variables split into reads, *blind* writes (``ctx.write``) and
  atomic read-modify-writes (``ctx.update``) -- the distinction the
  merge-order and conflict analyses depend on;
* transactional store keys abstracted into :class:`KeySym` values --
  constant keys, route-parameter-derived keys within a statically-known
  *family* (the ``"page:" + title`` shape, recognised by proving the key
  helper is a pure string composition), and computed-key top (⊤, an
  unbounded footprint);
* per-route *closures*: the set of handler functions a request can
  transitively activate (transaction callbacks plus statically-known
  event registrations), with the callback's payload-derived keys
  substituted by what the parent ``tx_get`` actually passes.

On top of the summaries sit two consumers, both offline (nothing on the
audit path imports this package):

* a **conflict matrix / commutativity relation** between route pairs:
  two routes conflict exactly when one blind-writes a variable the other
  touches (or either footprint is unbounded); atomic updates commute
  (their precedence chains are advice-ordered) and store keys are
  transaction-protected (``repro analyze --conflicts``);
* lint rules **R6-R9** (blind write-write pairs, SNAPSHOT write-skew
  candidates, unprotected read-modify-write, footprint widening),
  reported through the existing :class:`~repro.analysis.report.LintReport`.

No verdict depends on anything here: the auditor neither schedules nor
deduplicates by these summaries.  Their soundness is gated on its own
terms -- an observed effect a summary missed fails CI
(:mod:`repro.analysis.crosscheck`).

The machine-readable form is the ``repro.effects/1`` schema
(:meth:`AppEffects.to_dict`), surfaced by ``repro analyze``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.ctxutil import (
    CtxSlot,
    ParsedFunction,
    call_argument,
    collect_helper_calls,
    context_names,
    context_params,
    ctx_method_call,
    literal_str,
    parse_function,
)
from repro.analysis.dataflow import TaintEnv
from repro.analysis.report import ERROR, WARN, Violation
from repro.analysis.rules import HandlerInfo, check_r2, check_r3
from repro.kem.program import AppSpec

EFFECTS_SPEC = "repro.effects/1"

#: Source-location triple ``(file, line, col)``.
Site = Tuple[str, int, int]

KIND_CONST = "const"
KIND_PARAM = "param"
KIND_COMPUTED = "computed"
KIND_PAYLOAD = "payload"

#: Internal evaluation markers, never stored in a summary: the callback
#: payload parameter itself, its ``extra`` sub-dictionary, and the
#: request-inputs dictionary of a request handler.
_KIND_PAYLOAD_ROOT = "payload-root"
_KIND_EXTRA_ROOT = "extra-root"
_KIND_REQ_ROOT = "req-root"


@dataclass(frozen=True, order=True)
class KeySym:
    """One symbolic store key.

    ``prefix`` is a statically-proven constant prefix of every concrete
    key this symbol stands for; ``exact`` means the prefix *is* the key.
    An empty prefix with kind ``computed`` is ⊤ -- the analysis cannot
    bound the key at all.  ``payload`` kinds are placeholders for values
    the parent activation passed through a ``tx_get`` payload; they are
    substituted away during route composition (``field`` says which
    payload slot: ``"key"``, ``"extra:<name>"``, or ``""`` for the whole
    envelope).
    """

    kind: str
    prefix: str
    exact: bool
    source: str
    field: str = ""

    @property
    def unbounded(self) -> bool:
        """⊤: no static bound on the keyspace this symbol can touch."""
        return self.kind == KIND_COMPUTED and self.prefix == ""

    def covers(self, key: str) -> bool:
        """Could this symbol denote the concrete ``key``?"""
        if self.kind == KIND_PAYLOAD:
            # Unsubstituted payload symbol: conservatively unbounded.
            return True
        if self.exact:
            return key == self.prefix
        return key.startswith(self.prefix)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "prefix": self.prefix,
            "exact": self.exact,
            "source": self.source,
        }
        if self.field:
            out["field"] = self.field
        return out


#: The ⊤ symbol: a key about which nothing is statically known.
TOP = KeySym(kind=KIND_COMPUTED, prefix="", exact=False, source="<computed>")

Syms = FrozenSet[KeySym]

_TOP_SET: Syms = frozenset({TOP})


def any_covers(syms: Iterable[KeySym], key: str) -> bool:
    return any(sym.covers(key) for sym in syms)


# -- pure key helpers ---------------------------------------------------------


#: Keyed by ``id(fn)`` but storing ``fn`` itself in the value: the pinned
#: reference keeps the function alive, so a recycled ``id`` after garbage
#: collection can never inherit a stale prefix (the identity check below
#: catches the mismatch and re-analyzes).
_HELPER_CACHE: Dict[int, Tuple[Any, Optional[str]]] = {}


def _fold_key_expr(node: ast.expr, param: str) -> Optional[Tuple[str, bool]]:
    """``(prefix, saw_param)`` of a pure string composition, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value, False)
    if isinstance(node, ast.Name):
        if node.id == param:
            return ("", True)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _fold_key_expr(node.left, param)
        right = _fold_key_expr(node.right, param)
        if left is None or right is None:
            return None
        pl, sl = left
        pr, sr = right
        if sl:
            return (pl, True)
        return (pl + pr, sr)
    return None


def key_helper_prefix(fn: Any) -> Optional[str]:
    """The constant key-family prefix of a pure key helper, or ``None``.

    A *pure key helper* is a single-parameter function whose body is one
    ``return`` of a string composition over constants and the parameter
    (``return "page:" + title``).  For such a helper ``f``,
    ``f(x) == prefix + x`` for every ``x`` -- so applying it to any
    argument symbol yields a key in a statically-known family.
    """
    cached = _HELPER_CACHE.get(id(fn))
    if cached is not None and cached[0] is fn:
        return cached[1]
    result: Optional[str] = None
    parsed = parse_function(fn)
    if parsed is not None:
        func_def = parsed.func_def
        params = [a.arg for a in func_def.args.posonlyargs + func_def.args.args]
        if (
            len(params) == 1
            and not func_def.args.kwonlyargs
            and len(func_def.body) == 1
            and isinstance(func_def.body[0], ast.Return)
            and func_def.body[0].value is not None
        ):
            folded = _fold_key_expr(func_def.body[0].value, params[0])
            if folded is not None and folded[1]:
                result = folded[0]
    _HELPER_CACHE[id(fn)] = (fn, result)
    return result


# -- effect summaries ---------------------------------------------------------


@dataclass(frozen=True)
class GetEdge:
    """One ``ctx.tx_get`` site: what the named callback will receive."""

    callback: str  # literal callback fid ("" when dynamic)
    keys: Syms
    extra: Tuple[Tuple[str, Syms], ...]  # literal extra-dict field symbols
    site: Site

    def extra_field(self, name: str) -> Optional[Syms]:
        for fname, syms in self.extra:
            if fname == name:
                return syms
        return None


@dataclass(frozen=True)
class KVSite:
    """One store-key use, for diagnostics (R9) and JSON output."""

    op: str  # "tx_get" | "tx_put"
    sym: KeySym
    site: Site


@dataclass
class EffectSummary:
    """Symbolic effect summary of one handler, helpers merged in."""

    fid: str
    var_reads: Set[str] = field(default_factory=set)
    var_writes: Set[str] = field(default_factory=set)  # blind ctx.write
    var_updates: Set[str] = field(default_factory=set)  # atomic RMW
    dynamic_vars: bool = False
    kv_reads: Set[KeySym] = field(default_factory=set)
    kv_writes: Set[KeySym] = field(default_factory=set)
    kv_sites: List[KVSite] = field(default_factory=list)
    get_edges: List[GetEdge] = field(default_factory=list)
    emits: Set[str] = field(default_factory=set)
    dynamic_emits: bool = False
    registers: Set[Tuple[str, str]] = field(default_factory=set)
    unregisters: Set[Tuple[str, str]] = field(default_factory=set)
    dynamic_registrations: bool = False
    tx_callbacks: Set[str] = field(default_factory=set)
    dynamic_callbacks: bool = False
    tx_ops: Set[str] = field(default_factory=set)
    responds: bool = False
    branch_sites: int = 0
    control_sites: int = 0
    nondet_sites: int = 0
    opaque: bool = False  # source unavailable: predict nothing
    read_sites: Dict[str, Site] = field(default_factory=dict)
    write_sites: Dict[str, Site] = field(default_factory=dict)
    update_sites: Dict[str, Site] = field(default_factory=dict)
    uncacheable: List[str] = field(default_factory=list)

    def merge(self, other: "EffectSummary") -> None:
        self.var_reads |= other.var_reads
        self.var_writes |= other.var_writes
        self.var_updates |= other.var_updates
        self.dynamic_vars |= other.dynamic_vars
        self.kv_reads |= other.kv_reads
        self.kv_writes |= other.kv_writes
        self.kv_sites.extend(other.kv_sites)
        self.get_edges.extend(other.get_edges)
        self.emits |= other.emits
        self.dynamic_emits |= other.dynamic_emits
        self.registers |= other.registers
        self.unregisters |= other.unregisters
        self.dynamic_registrations |= other.dynamic_registrations
        self.tx_callbacks |= other.tx_callbacks
        self.dynamic_callbacks |= other.dynamic_callbacks
        self.tx_ops |= other.tx_ops
        self.responds |= other.responds
        self.branch_sites += other.branch_sites
        self.control_sites += other.control_sites
        self.nondet_sites += other.nondet_sites
        self.opaque |= other.opaque
        for var, site in other.read_sites.items():
            self.read_sites.setdefault(var, site)
        for var, site in other.write_sites.items():
            self.write_sites.setdefault(var, site)
        for var, site in other.update_sites.items():
            self.update_sites.setdefault(var, site)
        for reason in other.uncacheable:
            if reason not in self.uncacheable:
                self.uncacheable.append(reason)

    @property
    def cacheable(self) -> bool:
        return not self.uncacheable and not self.opaque

    def all_vars(self) -> Set[str]:
        return self.var_reads | self.var_writes | self.var_updates

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fid": self.fid,
            "var_reads": sorted(self.var_reads),
            "var_writes": sorted(self.var_writes),
            "var_updates": sorted(self.var_updates),
            "dynamic_vars": self.dynamic_vars,
            "kv_reads": [s.to_dict() for s in sorted(self.kv_reads)],
            "kv_writes": [s.to_dict() for s in sorted(self.kv_writes)],
            "emits": sorted(self.emits),
            "registers": sorted(map(list, self.registers)),
            "unregisters": sorted(map(list, self.unregisters)),
            "tx_callbacks": sorted(self.tx_callbacks),
            "tx_ops": sorted(self.tx_ops),
            "responds": self.responds,
            "branch_sites": self.branch_sites,
            "control_sites": self.control_sites,
            "nondet_sites": self.nondet_sites,
            "opaque": self.opaque,
            "cacheable": self.cacheable,
            "uncacheable": list(self.uncacheable),
        }


# -- the symbolic walker ------------------------------------------------------


class _SymbolicWalker:
    """One handler function's symbolic evaluation.

    Flow-insensitive over names (assignments *union* into the
    environment, so a name bound differently on two branches keeps both
    symbol sets -- conservative for the soundness gate) and
    syntax-directed over expressions: every ``ctx`` operation is recorded
    exactly once, with its key arguments evaluated in the current
    environment.  Lambdas are per-slot pure code and are not descended
    into (their keys surface as ⊤).
    """

    def __init__(
        self,
        summary: EffectSummary,
        parsed: ParsedFunction,
        ctx_names: Set[str],
        fn: Any,
        is_request_handler: bool,
    ) -> None:
        self.summary = summary
        self.parsed = parsed
        self.ctx_names = ctx_names
        self.fn = fn
        self.env: Dict[str, Syms] = {}
        self.dicts: Dict[str, Dict[str, Syms]] = {}
        # Per-node memo: the walk visits each expression once, except that
        # ctx-method calls evaluate every argument up front *and* the
        # branch logic re-evaluates the slots it consumes.  Memoising on
        # node identity keeps each effect recorded exactly once (the tree
        # is pinned by ``parsed``, so ids are stable for the walk).
        self._evaluated: Dict[int, Syms] = {}
        params = [
            a.arg
            for a in parsed.func_def.args.posonlyargs + parsed.func_def.args.args
        ]
        data_params = [p for p in params if p not in ctx_names]
        root_kind = _KIND_REQ_ROOT if is_request_handler else _KIND_PAYLOAD_ROOT
        for p in data_params:
            self.env[p] = frozenset({KeySym(root_kind, "", False, p, field="")})

    def _site(self, node: ast.AST) -> Site:
        return (
            self.parsed.filename,
            self.parsed.abs_line(node),
            getattr(node, "col_offset", 0),
        )

    # -- environment ----------------------------------------------------------

    def _bind(self, name: str, syms: Syms) -> None:
        self.env[name] = self.env.get(name, frozenset()) | syms

    # -- expression evaluation -------------------------------------------------

    def eval(self, node: Optional[ast.expr]) -> Syms:
        if node is None:
            return _TOP_SET
        cached = self._evaluated.get(id(node))
        if cached is not None:
            return cached
        syms = self._eval_inner(node)
        self._evaluated[id(node)] = syms
        return syms

    def _eval_inner(self, node: ast.expr) -> Syms:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                return frozenset(
                    {KeySym(KIND_CONST, node.value, True, repr(node.value))}
                )
            return _TOP_SET
        if isinstance(node, ast.Name):
            if node.id in self.dicts:
                # A dict literal used as a value: union of its members.
                union: Set[KeySym] = set()
                for syms in self.dicts[node.id].values():
                    union |= syms
                return frozenset(union) or _TOP_SET
            return self.env.get(node.id, _TOP_SET)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return self._eval_concat(node)
        if isinstance(node, ast.JoinedStr):
            return self._eval_fstring(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.Lambda,)):
            # Per-slot pure code: not descended into.
            return _TOP_SET
        if isinstance(node, ast.Dict):
            # Anonymous dict literal (e.g. a tx_get extra argument):
            # evaluate members for effect recording; the value itself is
            # handled at the use site.
            for key in node.keys:
                if key is not None:
                    self.eval(key)
            for value in node.values:
                self.eval(value)
            return _TOP_SET
        if isinstance(node, ast.NamedExpr):
            syms = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self._bind(node.target.id, syms)
            return syms
        # Default: evaluate children for effect recording, result is ⊤.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return _TOP_SET

    def _eval_subscript(self, node: ast.Subscript) -> Syms:
        index = node.slice
        lit = literal_str(index) if isinstance(index, ast.expr) else None
        if isinstance(node.value, ast.Name) and node.value.id in self.dicts:
            members = self.dicts[node.value.id]
            if lit is not None and lit in members:
                return members[lit]
            union: Set[KeySym] = set()
            for syms in members.values():
                union |= syms
            return frozenset(union) or _TOP_SET
        base = self.eval(node.value)
        if isinstance(index, ast.expr) and lit is None:
            self.eval(index)
        out: Set[KeySym] = set()
        for sym in base:
            if sym.kind == _KIND_PAYLOAD_ROOT:
                if lit == "key":
                    out.add(
                        KeySym(KIND_PAYLOAD, "", False, "payload['key']", field="key")
                    )
                elif lit == "extra":
                    out.add(
                        KeySym(
                            _KIND_EXTRA_ROOT, "", False, "payload['extra']", field=""
                        )
                    )
                else:
                    out.add(TOP)
            elif sym.kind == _KIND_EXTRA_ROOT:
                if lit is not None:
                    out.add(
                        KeySym(
                            KIND_PAYLOAD,
                            "",
                            False,
                            f"payload['extra'][{lit!r}]",
                            field=f"extra:{lit}",
                        )
                    )
                else:
                    out.add(
                        KeySym(KIND_PAYLOAD, "", False, "payload['extra'][?]", field="")
                    )
            elif sym.kind == _KIND_REQ_ROOT:
                # Request-inputs subscript: a route parameter.
                name = lit if lit is not None else "?"
                out.add(KeySym(KIND_PARAM, "", False, f"req[{name!r}]"))
            else:
                out.add(TOP)
        return frozenset(out) or _TOP_SET

    def _eval_concat(self, node: ast.BinOp) -> Syms:
        left = self.eval(node.left)
        right = self.eval(node.right)
        out: Set[KeySym] = set()
        for ls in left:
            for rs in right:
                if ls.kind == KIND_CONST and ls.exact:
                    kind = rs.kind
                    if kind in (
                        _KIND_PAYLOAD_ROOT,
                        _KIND_EXTRA_ROOT,
                        _KIND_REQ_ROOT,
                        KIND_PAYLOAD,
                    ):
                        kind = KIND_COMPUTED
                    out.add(
                        KeySym(
                            kind=kind,
                            prefix=ls.prefix + rs.prefix,
                            exact=ls.exact and rs.exact and rs.kind == KIND_CONST,
                            source=f"{ls.source}+{rs.source}",
                        )
                    )
                else:
                    kind = KIND_COMPUTED if ls.kind != KIND_PARAM else KIND_PARAM
                    out.add(
                        KeySym(
                            kind=kind,
                            prefix=ls.prefix,
                            exact=False,
                            source=f"{ls.source}+...",
                        )
                    )
        return frozenset(out) or _TOP_SET

    def _eval_fstring(self, node: ast.JoinedStr) -> Syms:
        prefix = ""
        exact = True
        for part in node.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                if exact:
                    prefix += part.value
            else:
                if isinstance(part, ast.FormattedValue):
                    self.eval(part.value)
                exact = False
        if exact:
            return frozenset({KeySym(KIND_CONST, prefix, True, "f-string")})
        return frozenset({KeySym(KIND_COMPUTED, prefix, False, "f-string")})

    def _apply_helper(self, prefix: str, args: Syms, source: str) -> Syms:
        out: Set[KeySym] = set()
        for sym in args:
            if sym.kind == KIND_CONST and sym.exact:
                out.add(KeySym(KIND_CONST, prefix + sym.prefix, True, source))
            elif sym.kind == KIND_PARAM:
                out.add(KeySym(KIND_PARAM, prefix + sym.prefix, False, source))
            else:
                out.add(KeySym(KIND_COMPUTED, prefix + sym.prefix, False, source))
        return frozenset(out) or frozenset(
            {KeySym(KIND_COMPUTED, prefix, False, source)}
        )

    def _eval_call(self, node: ast.Call) -> Syms:
        method = ctx_method_call(node, self.ctx_names)
        if method is None:
            for arg in node.args:
                self.eval(arg)
            for kw in node.keywords:
                self.eval(kw.value)
            return _TOP_SET
        record = self.summary
        # Every argument of a ctx-method call is evaluated up front --
        # positional or keyword, consumed by the branch below or not --
        # so nested ctx operations (``ctx.write('v', value=ctx.read('w'))``)
        # are always recorded.  eval memoises per node, so the
        # slot-specific re-evaluation below never double-records.
        for arg in node.args:
            self.eval(arg)
        for kw in node.keywords:
            self.eval(kw.value)
        if method in ("read", "write", "update"):
            arg = call_argument(node, 0, "var_id")
            var_id = literal_str(arg) if arg is not None else None
            for extra_arg in node.args[1:]:
                self.eval(extra_arg)
            if var_id is None:
                record.dynamic_vars = True
                if arg is not None:
                    self.eval(arg)
            elif method == "read":
                record.var_reads.add(var_id)
                record.read_sites.setdefault(var_id, self._site(node))
            elif method == "write":
                record.var_writes.add(var_id)
                record.write_sites.setdefault(var_id, self._site(node))
            else:
                record.var_updates.add(var_id)
                record.update_sites.setdefault(var_id, self._site(node))
            return _TOP_SET
        if method == "apply":
            fn_arg = call_argument(node, 0, "fn")
            arg_syms = [self.eval(a) for a in node.args[1:]]
            prefix: Optional[str] = None
            source = "<apply>"
            if isinstance(fn_arg, ast.Name):
                target = getattr(self.fn, "__globals__", {}).get(fn_arg.id)
                if target is not None and callable(target):
                    prefix = key_helper_prefix(target)
                    source = f"{fn_arg.id}(...)"
            if prefix is not None and len(arg_syms) == 1:
                return self._apply_helper(prefix, arg_syms[0], source)
            return _TOP_SET
        if method == "emit":
            arg = call_argument(node, 0, "event")
            event = literal_str(arg) if arg is not None else None
            if event is None:
                record.dynamic_emits = True
            else:
                record.emits.add(event)
            payload = call_argument(node, 1, "payload")
            if payload is not None:
                self.eval(payload)
            return _TOP_SET
        if method in ("register", "unregister"):
            event_arg = call_argument(node, 0, "event")
            fid_arg = call_argument(node, 1, "function_id")
            event = literal_str(event_arg) if event_arg is not None else None
            target_fid = literal_str(fid_arg) if fid_arg is not None else None
            if event is None or target_fid is None:
                record.dynamic_registrations = True
            elif method == "register":
                record.registers.add((event, target_fid))
            else:
                record.unregisters.add((event, target_fid))
            return _TOP_SET
        if method == "tx_get":
            record.tx_ops.add("tx_get")
            key_arg = call_argument(node, 1, "key")
            keys = self.eval(key_arg) if key_arg is not None else _TOP_SET
            cb_arg = call_argument(node, 2, "callback_fid")
            callback = literal_str(cb_arg) if cb_arg is not None else None
            if callback is None:
                record.dynamic_callbacks = True
                callback = ""
            else:
                record.tx_callbacks.add(callback)
            extra_arg = call_argument(node, 3, "extra")
            extra_fields: List[Tuple[str, Syms]] = []
            if isinstance(extra_arg, ast.Dict):
                for k, v in zip(extra_arg.keys, extra_arg.values):
                    fname = literal_str(k) if k is not None else None
                    syms = self.eval(v)
                    if fname is not None:
                        extra_fields.append((fname, syms))
            elif extra_arg is not None:
                self.eval(extra_arg)
            site = self._site(node)
            record.kv_reads |= keys
            for sym in keys:
                record.kv_sites.append(KVSite("tx_get", sym, site))
            record.get_edges.append(
                GetEdge(
                    callback=callback,
                    keys=keys,
                    extra=tuple(extra_fields),
                    site=site,
                )
            )
            return _TOP_SET
        if method == "tx_put":
            record.tx_ops.add("tx_put")
            key_arg = call_argument(node, 1, "key")
            keys = self.eval(key_arg) if key_arg is not None else _TOP_SET
            value_arg = call_argument(node, 2, "value")
            if value_arg is not None:
                self.eval(value_arg)
            site = self._site(node)
            record.kv_writes |= keys
            for sym in keys:
                record.kv_sites.append(KVSite("tx_put", sym, site))
            return _TOP_SET
        if method in ("tx_start", "tx_commit", "tx_abort"):
            record.tx_ops.add(method)
            for arg in node.args:
                self.eval(arg)
            return _TOP_SET
        if method == "respond":
            record.responds = True
            for arg in node.args:
                self.eval(arg)
            return _TOP_SET
        if method == "branch":
            record.branch_sites += 1
            for arg in node.args:
                self.eval(arg)
            return _TOP_SET
        if method == "control":
            record.control_sites += 1
            for arg in node.args:
                self.eval(arg)
            return _TOP_SET
        if method == "nondet":
            record.nondet_sites += 1
            return _TOP_SET
        for arg in node.args:
            self.eval(arg)
        return _TOP_SET

    # -- statement walk --------------------------------------------------------

    def walk(self) -> None:
        self._walk_body(self.parsed.func_def.body)

    def _walk_body(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._walk_assign(stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                syms = self.eval(stmt.value)
                if isinstance(stmt.target, ast.Name):
                    self._bind(stmt.target.id, syms)
        elif isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self._bind(stmt.target.id, _TOP_SET)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self.eval(stmt.iter)
            if isinstance(stmt.target, ast.Name):
                self._bind(stmt.target.id, _TOP_SET)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr)
            self._walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._walk_body(handler.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise,)):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            pass  # Nested defs/classes: per-slot code, not walked.
        elif isinstance(
            stmt,
            (
                ast.Pass,
                ast.Break,
                ast.Continue,
                ast.Global,
                ast.Nonlocal,
                ast.Import,
                ast.ImportFrom,
            ),
        ):
            pass  # No expressions, no bindings the analysis tracks.
        else:
            self._walk_fallback(stmt)

    def _walk_fallback(self, stmt: ast.stmt) -> None:
        """Conservative walk of a statement form with no dedicated handler
        (``match``, ``async for``/``async with``, ``try*``, ``del``, ...).

        The summaries must over-approximate -- a silently skipped
        statement would let a ctx operation escape the effect summary and
        unsoundly narrow the dedup digest -- so every name the statement
        can bind degrades to ⊤, every embedded expression is evaluated
        (recording any ctx operations inside it), and nested statement
        bodies go back through :meth:`_walk_stmt`.
        """
        for node in ast.walk(stmt):
            name: Optional[str] = None
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, (ast.MatchAs, ast.MatchStar)):
                name = node.name
            elif isinstance(node, ast.MatchMapping):
                name = node.rest
            if name:
                members = self.dicts.pop(name, None)
                if members is not None:
                    for syms in members.values():
                        self._bind(name, syms)
                self._bind(name, _TOP_SET)
        self._walk_fallback_children(stmt)

    def _walk_fallback_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._walk_stmt(child)
            elif isinstance(child, ast.expr):
                self.eval(child)
            else:
                # Patterns, withitems, except handlers: descend through.
                self._walk_fallback_children(child)

    def _walk_assign(self, stmt: ast.Assign) -> None:
        if isinstance(stmt.value, ast.Dict):
            fields: Dict[str, Syms] = {}
            literal_keys = True
            for k, v in zip(stmt.value.keys, stmt.value.values):
                fname = literal_str(k) if k is not None else None
                syms = self.eval(v)
                if fname is None:
                    literal_keys = False
                else:
                    fields[fname] = syms
            for target in stmt.targets:
                if isinstance(target, ast.Name) and literal_keys:
                    self.dicts[target.id] = fields
            return
        syms = self.eval(stmt.value)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, syms)
            elif isinstance(target, ast.Tuple) and isinstance(stmt.value, ast.Tuple):
                if len(target.elts) == len(stmt.value.elts):
                    for tgt, val in zip(target.elts, stmt.value.elts):
                        if isinstance(tgt, ast.Name):
                            self._bind(tgt.id, self.eval(val))


# -- per-handler summarisation -------------------------------------------------


def _summarize_effects(
    fid: str,
    fn: Any,
    ctx_slot: CtxSlot,
    is_request_handler: bool,
    seen: Set[int],
) -> EffectSummary:
    if id(fn) in seen:
        return EffectSummary(fid=fid)
    seen.add(id(fn))
    parsed = parse_function(fn)
    if parsed is None:
        return EffectSummary(fid=fid, opaque=True)
    ctx_param_names = context_params(parsed.func_def, position=ctx_slot)
    ctx_names = context_names(parsed.func_def, ctx_param_names)
    summary = EffectSummary(fid=fid)
    walker = _SymbolicWalker(summary, parsed, ctx_names, fn, is_request_handler)
    walker.walk()
    for helper_name, helper_slot in collect_helper_calls(
        parsed.func_def, ctx_names
    ).items():
        helper = getattr(fn, "__globals__", {}).get(helper_name)
        if helper is None or not callable(helper):
            summary.opaque = True
            continue
        summary.merge(
            _summarize_effects(
                f"{fid}>{helper_name}", helper, helper_slot, False, seen
            )
        )
    summary.fid = fid
    return summary


def _cacheability_reasons(fid: str, fn: Any) -> List[str]:
    """Why this handler is statically uncacheable (empty = cacheable).

    A handler is uncacheable when re-executing it from a digested slice
    could observe state the digest does not pin: unwrapped
    nondeterminism (R3 errors) or module-level side channels (R2 errors)
    anywhere in its helper closure, or source the analysis cannot see.
    """
    reasons: List[str] = []
    seen: Set[int] = set()

    def visit(label: str, target: Any, slot: CtxSlot) -> None:
        if id(target) in seen:
            return
        seen.add(id(target))
        parsed = parse_function(target)
        if parsed is None:
            reasons.append(f"{label}: source unavailable")
            return
        params = [
            a.arg
            for a in parsed.func_def.args.posonlyargs + parsed.func_def.args.args
        ]
        ctx_param_names = context_params(parsed.func_def, position=slot)
        ctx_names = context_names(parsed.func_def, ctx_param_names)
        seed = [p for p in params if p not in ctx_param_names]
        info = HandlerInfo(
            fid=label,
            fn=target,
            parsed=parsed,
            ctx_names=ctx_names,
            taint=TaintEnv(parsed.func_def, ctx_names, seed_tainted=seed),
            is_request_handler=False,
        )
        for violation in check_r3(info):
            if violation.severity == ERROR:
                reasons.append(f"{label}: unwrapped nondeterminism ({violation.message})")
        for violation in check_r2(info):
            if violation.severity == ERROR:
                reasons.append(f"{label}: side-channel state ({violation.message})")
        for helper_name, helper_slot in collect_helper_calls(
            parsed.func_def, ctx_names
        ).items():
            helper = getattr(target, "__globals__", {}).get(helper_name)
            if helper is None or not callable(helper):
                continue
            visit(f"{label}>{helper_name}", helper, helper_slot)

    visit(fid, fn, 0)
    return reasons


# -- route composition --------------------------------------------------------


@dataclass
class RouteEffect:
    """A route's transitive effect: root handler plus everything its
    activation tree can reach, payload symbols substituted."""

    route: str
    root_fid: str
    closure: Tuple[str, ...]
    widened: bool  # dynamic callbacks/registrations forced closure = all
    effect: EffectSummary

    def to_dict(self) -> Dict[str, Any]:
        return {
            "route": self.route,
            "root": self.root_fid,
            "closure": list(self.closure),
            "widened": self.widened,
            "effect": self.effect.to_dict(),
        }


def _substitute_payload(
    summary: EffectSummary, edges: List[GetEdge]
) -> EffectSummary:
    """``summary`` with payload symbols replaced by what parents pass."""

    def subst(sym: KeySym) -> Syms:
        if sym.kind != KIND_PAYLOAD:
            return frozenset({sym})
        if not edges:
            return frozenset(
                {KeySym(KIND_COMPUTED, "", False, f"{sym.source} (no parent edge)")}
            )
        out: Set[KeySym] = set()
        for edge in edges:
            if sym.field == "key":
                out |= edge.keys
            elif sym.field.startswith("extra:"):
                fname = sym.field[len("extra:"):]
                got = edge.extra_field(fname)
                if got is None:
                    out |= edge.keys
                    for _fname, syms in edge.extra:
                        out |= syms
                else:
                    out |= got
            else:
                out |= edge.keys
                for _fname, syms in edge.extra:
                    out |= syms
        return frozenset(out) or _TOP_SET

    def subst_all(syms: Set[KeySym]) -> Set[KeySym]:
        out: Set[KeySym] = set()
        for sym in syms:
            out |= subst(sym)
        return out

    clone = EffectSummary(fid=summary.fid)
    clone.merge(summary)
    clone.kv_reads = subst_all(summary.kv_reads)
    clone.kv_writes = subst_all(summary.kv_writes)
    clone.kv_sites = [
        KVSite(site.op, sub, site.site)
        for site in summary.kv_sites
        for sub in subst(site.sym)
    ]
    return clone


def _registration_map(
    init_registrations: Iterable[Tuple[str, str]],
    summaries: Dict[str, EffectSummary],
) -> Dict[str, Set[str]]:
    events: Dict[str, Set[str]] = {}
    for event, fid in init_registrations:
        events.setdefault(event, set()).add(fid)
    for summary in summaries.values():
        for event, fid in summary.registers:
            events.setdefault(event, set()).add(fid)
    return events


def _route_closure(
    root_fid: str,
    summaries: Dict[str, EffectSummary],
    registrations: Dict[str, Set[str]],
) -> Tuple[Set[str], bool]:
    closure: Set[str] = set()
    widened = False
    frontier = [root_fid]
    while frontier:
        fid = frontier.pop()
        if fid in closure or fid not in summaries:
            continue
        closure.add(fid)
        summary = summaries[fid]
        if summary.dynamic_callbacks or summary.dynamic_registrations or summary.dynamic_emits:
            widened = True
        for callback in summary.tx_callbacks:
            frontier.append(callback)
        for event in summary.emits:
            for listener in registrations.get(event, ()):
                frontier.append(listener)
    if widened:
        closure = set(summaries)
    return closure, widened


# -- conflicts ----------------------------------------------------------------


@dataclass(frozen=True)
class RouteConflict:
    """Whether two routes' activations can conflict, and why.

    ``commutes`` is the complement: all shared state is touched only
    through atomic updates (advice-ordered precedence chains) and
    transaction-protected store keys, so re-execution groups of the two
    routes merge identically in any order.
    """

    a: str
    b: str
    reasons: Tuple[str, ...]

    @property
    def conflicts(self) -> bool:
        return bool(self.reasons)

    @property
    def commutes(self) -> bool:
        return not self.reasons

    def to_dict(self) -> Dict[str, Any]:
        return {
            "a": self.a,
            "b": self.b,
            "conflicts": self.conflicts,
            "commutes": self.commutes,
            "reasons": list(self.reasons),
        }


def _route_conflict(a: RouteEffect, b: RouteEffect) -> RouteConflict:
    reasons: List[str] = []
    ea, eb = a.effect, b.effect
    if ea.dynamic_vars:
        reasons.append(f"route {a.route!r} has an unbounded variable footprint")
    if eb.dynamic_vars and a.route != b.route:
        reasons.append(f"route {b.route!r} has an unbounded variable footprint")
    if ea.opaque:
        reasons.append(f"route {a.route!r} reaches a handler without source")
    if eb.opaque and a.route != b.route:
        reasons.append(f"route {b.route!r} reaches a handler without source")
    if not reasons:
        for var in sorted(
            ea.var_writes & (eb.var_writes | eb.var_reads | eb.var_updates)
        ):
            reasons.append(f"blind write of {var!r} in {a.route!r} vs access in {b.route!r}")
        if a.route != b.route:
            for var in sorted(
                eb.var_writes & (ea.var_writes | ea.var_reads | ea.var_updates)
            ):
                reasons.append(
                    f"blind write of {var!r} in {b.route!r} vs access in {a.route!r}"
                )
    return RouteConflict(a=a.route, b=b.route, reasons=tuple(reasons))


# -- the app-level analysis ---------------------------------------------------


@dataclass
class AppEffects:
    """Everything the effect analysis knows about one application."""

    app_name: str
    handlers: Dict[str, EffectSummary]
    routes: Dict[str, RouteEffect]
    conflicts: Dict[Tuple[str, str], RouteConflict]

    def conflict(self, route_a: str, route_b: str) -> Optional[RouteConflict]:
        key = (min(route_a, route_b), max(route_a, route_b))
        return self.conflicts.get(key)

    def uncacheable_handlers(self) -> Dict[str, List[str]]:
        return {
            fid: list(summary.uncacheable) + (["source unavailable"] if summary.opaque else [])
            for fid, summary in sorted(self.handlers.items())
            if not summary.cacheable
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": EFFECTS_SPEC,
            "app": self.app_name,
            "handlers": {
                fid: summary.to_dict()
                for fid, summary in sorted(self.handlers.items())
            },
            "routes": {
                route: eff.to_dict() for route, eff in sorted(self.routes.items())
            },
            "conflicts": [
                self.conflicts[key].to_dict() for key in sorted(self.conflicts)
            ],
            "uncacheable": self.uncacheable_handlers(),
        }


def analyze_effects(app: AppSpec) -> AppEffects:
    """Run the symbolic effect analysis over every handler of ``app``."""
    init_ctx = app.run_init()
    request_fids = {
        fid
        for event, fid in init_ctx.global_handlers
        if event.startswith("request/")
    }
    summaries: Dict[str, EffectSummary] = {}
    for fid, fn in sorted(app.functions.items()):
        summary = _summarize_effects(fid, fn, 0, fid in request_fids, set())
        summary.uncacheable = _cacheability_reasons(fid, fn)
        summaries[fid] = summary

    registrations = _registration_map(init_ctx.global_handlers, summaries)
    routes: Dict[str, RouteEffect] = {}
    for event, root_fid in sorted(init_ctx.global_handlers):
        if not event.startswith("request/"):
            continue
        route = event[len("request/"):]
        closure, widened = _route_closure(root_fid, summaries, registrations)
        # Parent get-edges per callback, for payload substitution.
        edges_for: Dict[str, List[GetEdge]] = {}
        for fid in closure:
            for edge in summaries[fid].get_edges:
                if edge.callback:
                    edges_for.setdefault(edge.callback, []).append(edge)
        merged = EffectSummary(fid=f"route:{route}")
        for fid in sorted(closure):
            merged.merge(
                _substitute_payload(summaries[fid], edges_for.get(fid, []))
            )
        merged.fid = f"route:{route}"
        routes[route] = RouteEffect(
            route=route,
            root_fid=root_fid,
            closure=tuple(sorted(closure)),
            widened=widened,
            effect=merged,
        )

    conflicts: Dict[Tuple[str, str], RouteConflict] = {}
    names = sorted(routes)
    for i, ra in enumerate(names):
        for rb in names[i:]:
            conflicts[(ra, rb)] = _route_conflict(routes[ra], routes[rb])
    return AppEffects(
        app_name=app.name,
        handlers=summaries,
        routes=routes,
        conflicts=conflicts,
    )


# -- R6-R9 --------------------------------------------------------------------


def _site_violation(
    rule: str,
    severity: str,
    fid: str,
    site: Optional[Site],
    message: str,
) -> Violation:
    file, line, col = site if site is not None else ("<unknown>", 1, 0)
    return Violation(
        rule=rule,
        severity=severity,
        fid=fid,
        file=file,
        line=line,
        col=col,
        message=message,
    )


def _first_kv_site(effect: EffectSummary) -> Optional[Site]:
    if effect.kv_sites:
        return effect.kv_sites[0].site
    return None


def effect_violations(effects: AppEffects) -> List[Violation]:
    """The R6-R9 findings over one app's effect summaries.

    =====  ==================================================================
    R6     a variable blind-written (``ctx.write``) by two handlers (or two
           activations of one handler): the writes race with no
           advice-orderable precedence between them (ERROR)
    R7     SNAPSHOT write-skew candidate: two routes read each other's
           written key family without writing their own read set -- the
           classic r/w crossing snapshot isolation admits (WARN)
    R8     a handler reads a variable and then blind-writes it: a
           read-modify-write with no transactional protection; the atomic
           form is ``ctx.update`` (ERROR)
    R9     the static footprint widens to the whole keyspace or variable
           space (computed ⊤ key, dynamic variable id): every conflict
           and dedup decision over this handler degrades to the
           conservative fallback (WARN)
    =====  ==================================================================
    """
    out: List[Violation] = []
    fids = sorted(effects.handlers)

    # R6: blind write-write pairs (self-pairs included: two activations).
    for i, fa in enumerate(fids):
        ea = effects.handlers[fa]
        for fb in fids[i:]:
            eb = effects.handlers[fb]
            for var in sorted(ea.var_writes & eb.var_writes):
                pair = fa if fa == fb else f"{fa} and {fb}"
                out.append(
                    _site_violation(
                        "R6", ERROR, fa, ea.write_sites.get(var),
                        f"blind ctx.write of {var!r} in {pair}: concurrent "
                        "activations race with no advice-orderable precedence; "
                        "use ctx.update",
                    )
                )

    # R7: SNAPSHOT write-skew candidates over key families, route pairs.
    route_names = sorted(effects.routes)
    for i, ra in enumerate(route_names):
        A = effects.routes[ra]
        for rb in route_names[i:]:
            B = effects.routes[rb]
            a_reads = {s.prefix for s in A.effect.kv_reads if s.prefix}
            a_writes = {s.prefix for s in A.effect.kv_writes if s.prefix}
            b_reads = {s.prefix for s in B.effect.kv_reads if s.prefix}
            b_writes = {s.prefix for s in B.effect.kv_writes if s.prefix}
            for f in sorted(a_reads & b_writes):
                for g in sorted(a_writes & b_reads):
                    if f == g:
                        continue
                    if f in a_writes or g in b_writes:
                        continue  # the read set is also written: not skew
                    out.append(
                        _site_violation(
                            "R7", WARN, A.root_fid,
                            _first_kv_site(A.effect),
                            f"SNAPSHOT write-skew candidate: route {ra!r} "
                            f"reads family {f!r} and writes {g!r} while "
                            f"route {rb!r} reads {g!r} and writes {f!r}; "
                            "under snapshot isolation both commits can "
                            "succeed",
                        )
                    )

    # R8: read-then-blind-write of the same variable in one handler.
    for fid in fids:
        eff = effects.handlers[fid]
        for var in sorted(eff.var_reads & eff.var_writes):
            out.append(
                _site_violation(
                    "R8", ERROR, fid, eff.write_sites.get(var),
                    f"read-modify-write of {var!r} without tx protection: "
                    "the ctx.read and the blind ctx.write log as independent "
                    "accesses and interleave; use ctx.update",
                )
            )

    # R9: footprint widening (⊤ keys, dynamic variable ids).
    for fid in fids:
        eff = effects.handlers[fid]
        seen_sites: Set[Site] = set()
        for kv in eff.kv_sites:
            if kv.sym.unbounded and kv.site not in seen_sites:
                seen_sites.add(kv.site)
                out.append(
                    _site_violation(
                        "R9", WARN, fid, kv.site,
                        f"store key of {kv.op} is not statically bounded "
                        "(computed ⊤): the footprint widens to the whole "
                        "keyspace and disables static scheduling for this "
                        "handler",
                    )
                )
        if eff.dynamic_vars:
            out.append(
                _site_violation(
                    "R9", WARN, fid, None,
                    "variable id is not statically bounded: the footprint "
                    "widens to every program variable",
                )
            )
    return out


__all__ = [
    "EFFECTS_SPEC",
    "TOP",
    "AppEffects",
    "EffectSummary",
    "GetEdge",
    "KVSite",
    "KeySym",
    "RouteConflict",
    "RouteEffect",
    "analyze_effects",
    "any_covers",
    "effect_violations",
    "key_helper_prefix",
]
