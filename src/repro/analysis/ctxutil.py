"""Shared context-parameter resolution for the static analyses.

Every handler function receives the instrumented operation API as a
parameter (``repro.kem.context.HandlerContext``), conventionally named
``ctx`` and passed first.  Neither convention is load-bearing: handlers
may rename the parameter, annotate it, alias it locally (``c = ctx``),
or hand it to helper functions at any argument position.  The
instrumentation linter and its footprint prediction (which the annotation
analyzer consumes) need to see *through* all of that -- a context access
the analysis cannot attribute is a Completeness hazard (section 5) -- so
the resolution logic lives here, once.

The exported helpers are purely syntactic (AST-level):

* :func:`parse_function` -- source -> the function's ``ast.FunctionDef``
  plus the absolute file/line coordinates needed for diagnostics;
* :func:`context_params` -- which parameters carry the context, by
  annotation when one names a ``*Context`` type, by position otherwise;
* :func:`context_names` -- the context parameters plus every local alias
  reachable through simple assignments, to a fixpoint;
* :func:`ctx_method_call` / :func:`helper_ctx_positions` -- classify a
  ``Call`` node as a context-API operation or as a helper invocation that
  forwards the context (at any argument position).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple, Union

#: A helper's context-parameter slot: a positional index or, for
#: keyword-forwarded contexts (``helper(x, ctx=c)``), the parameter name.
CtxSlot = Union[int, str]


@dataclass(frozen=True)
class ParsedFunction:
    """A function's AST plus the coordinates to map it back to source."""

    func_def: ast.FunctionDef
    filename: str
    firstline: int  # absolute line number of ``func_def`` line 1
    source_lines: Tuple[str, ...]

    def abs_line(self, node: ast.AST) -> int:
        """Absolute source line of ``node`` (for diagnostics)."""
        return self.firstline + getattr(node, "lineno", 1) - 1

    def source_line(self, abs_lineno: int) -> str:
        idx = abs_lineno - self.firstline
        if 0 <= idx < len(self.source_lines):
            return self.source_lines[idx]
        return ""


def parse_function(fn: Any) -> Optional[ParsedFunction]:
    """Parse ``fn``'s source into a :class:`ParsedFunction`.

    Returns ``None`` when the source is unavailable (C functions,
    interactively defined callables, ...) -- callers must treat that as
    "analysis impossible", never as "no accesses".
    """
    try:
        lines, firstline = inspect.getsourcelines(fn)
        source = textwrap.dedent("".join(lines))
        tree = ast.parse(source)
        filename = inspect.getsourcefile(fn) or "<unknown>"
    except (OSError, TypeError, SyntaxError):
        return None
    func_def = next(
        (
            n
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ),
        None,
    )
    if func_def is None:
        return None
    # ``firstline`` points at the first *source* line, which may be a
    # decorator; re-anchor on the def itself so abs_line stays exact.
    firstline = firstline + func_def.lineno - 1
    return ParsedFunction(
        func_def=func_def,
        filename=filename,
        firstline=firstline,
        source_lines=tuple(line.rstrip("\n") for line in lines[func_def.lineno - 1:]),
    )


def _positional_params(func_def: ast.FunctionDef) -> List[ast.arg]:
    return list(func_def.args.posonlyargs) + list(func_def.args.args)


def _is_context_annotation(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value
    else:
        try:
            text = ast.unparse(annotation)
        except Exception:  # pragma: no cover - malformed annotation
            return False
    tail = text.split(".")[-1]
    return tail.endswith("Context")


def context_params(func_def: ast.FunctionDef, position: CtxSlot = 0) -> List[str]:
    """Parameter names that carry the handler context.

    Annotation wins over position: a parameter annotated with a
    ``*Context`` type is the context wherever it sits.  Without an
    annotation the parameter at ``position`` (the caller's argument slot,
    0 for request/callback handlers) is assumed; a string slot names the
    parameter the caller forwarded the context into by keyword.
    """
    params = _positional_params(func_def)
    annotated = [a.arg for a in params if _is_context_annotation(a.annotation)]
    if annotated:
        return annotated
    if isinstance(position, str):
        all_params = params + list(func_def.args.kwonlyargs)
        if any(a.arg == position for a in all_params):
            return [position]
        return []
    if 0 <= position < len(params):
        return [params[position].arg]
    return []


def _alias_step(node: ast.AST, names: Set[str]) -> bool:
    """One alias-propagation step over a single statement; True if grown."""
    changed = False
    if isinstance(node, ast.Assign):
        if isinstance(node.value, ast.Name) and node.value.id in names:
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id not in names:
                    names.add(target.id)
                    changed = True
        elif isinstance(node.value, ast.NamedExpr):
            # ``c = (alias := ctx)``: the walrus case is handled below,
            # but the outer assignment also aliases once it resolves.
            inner = node.value
            if isinstance(inner.value, ast.Name) and inner.value.id in names:
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.add(target.id)
                        changed = True
        elif isinstance(node.value, ast.Tuple):
            # Positional tuple unpacking: ``a, c = payload, ctx``.  Only
            # star-free, length-matched patterns propagate.
            for target in node.targets:
                if (
                    isinstance(target, ast.Tuple)
                    and len(target.elts) == len(node.value.elts)
                    and not any(isinstance(e, ast.Starred) for e in target.elts)
                ):
                    for tgt, val in zip(target.elts, node.value.elts):
                        if (
                            isinstance(tgt, ast.Name)
                            and isinstance(val, ast.Name)
                            and val.id in names
                            and tgt.id not in names
                        ):
                            names.add(tgt.id)
                            changed = True
    elif isinstance(node, ast.NamedExpr):
        # Walrus rename: ``(c := ctx)`` aliases wherever it appears.
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in names
            and isinstance(node.target, ast.Name)
            and node.target.id not in names
        ):
            names.add(node.target.id)
            changed = True
    return changed


def context_names(func_def: ast.FunctionDef, ctx_params: List[str]) -> Set[str]:
    """``ctx_params`` plus all local aliases (``c = ctx``), to a fixpoint.

    Simple ``Name = Name`` chains, walrus renames (``(c := ctx)``), and
    star-free positional tuple unpacking propagate; anything fancier
    falls out of the alias set and is instead caught dynamically by the
    crosscheck layer.
    """
    names = set(ctx_params)
    changed = True
    while changed:
        changed = False
        for node in ast.walk(func_def):
            if _alias_step(node, names):
                changed = True
    return names


def ctx_method_call(node: ast.Call, ctx_names: Set[str]) -> Optional[str]:
    """The context-API method name if ``node`` is ``<ctx>.<method>(...)``."""
    fn = node.func
    if (
        isinstance(fn, ast.Attribute)
        and isinstance(fn.value, ast.Name)
        and fn.value.id in ctx_names
    ):
        return fn.attr
    return None


def helper_ctx_positions(node: ast.Call, ctx_names: Set[str]) -> Optional[Tuple[str, CtxSlot]]:
    """Detect a helper invocation that forwards the context.

    Returns ``(helper_name, slot)`` when ``node`` is a plain-name call
    with a context name at any positional argument slot (``slot`` is the
    index) or passed by keyword (``slot`` is the keyword name); the
    interprocedural analyses follow such calls with ``slot`` identifying
    the helper's context parameter.
    """
    if not isinstance(node.func, ast.Name):
        return None
    for i, arg in enumerate(node.args):
        if isinstance(arg, ast.Name) and arg.id in ctx_names:
            return (node.func.id, i)
    for kw in node.keywords:
        if (
            kw.arg is not None
            and isinstance(kw.value, ast.Name)
            and kw.value.id in ctx_names
        ):
            return (node.func.id, kw.arg)
    return None


def iter_calls(func_def: ast.FunctionDef) -> Iterator[ast.Call]:
    """All ``Call`` nodes in ``func_def`` including inside nested lambdas."""
    for node in ast.walk(func_def):
        if isinstance(node, ast.Call):
            yield node


def resolve_global(fn: Any, dotted: str) -> Any:
    """Best-effort resolution of a dotted name through ``fn.__globals__``."""
    parts = dotted.split(".")
    obj = getattr(fn, "__globals__", {}).get(parts[0])
    for part in parts[1:]:
        if obj is None:
            return None
        obj = getattr(obj, part, None)
    return obj


def call_target_path(node: ast.Call) -> Optional[str]:
    """Dotted path of the called object, e.g. ``"random.randint"``."""
    parts: List[str] = []
    cur = node.func
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def literal_str(node: ast.expr) -> Optional[str]:
    """The value of a string-literal expression, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def call_argument(node: ast.Call, position: int, keyword: str) -> Optional[ast.expr]:
    """The argument at ``position`` or passed as ``keyword=``, if present."""
    if len(node.args) > position:
        return node.args[position]
    for kw in node.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def walk_scoped(func_def: ast.FunctionDef) -> Iterator[ast.AST]:
    """Yield all nodes of ``func_def``'s own scope (no lambdas/nested defs).

    The ``func_def`` node itself is not yielded.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(func_def))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def collect_helper_calls(
    func_def: ast.FunctionDef, ctx_names: Set[str]
) -> Dict[str, CtxSlot]:
    """Helper name -> context argument slot, for every forwarding call."""
    helpers: Dict[str, CtxSlot] = {}
    for call in iter_calls(func_def):
        if ctx_method_call(call, ctx_names) is not None:
            continue
        hit = helper_ctx_positions(call, ctx_names)
        if hit is not None and hit[0] not in helpers:
            helpers[hit[0]] = hit[1]
    return helpers
