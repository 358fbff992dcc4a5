"""Delta-debugging reducer for fuzzer-found divergences.

Given a program that trips the oracle, the reducer shrinks it while a
caller-supplied predicate keeps holding (canonically: *the same triage
bucket still fires*).  It works on the AST, not on text lines, so every
intermediate candidate is structurally plausible — the classic ddmin
failure mode of spending 95% of its iterations on unparseable files
does not arise.

The search is greedy multi-pass over whole-declaration removals
(classes, functions, globals, methods, fields), statement-chunk
removals inside every body (halves, then quarters, down to single
statements), and compound-statement hoisting (an ``if``/``while``/
``for``/block replaced by its own body).  Each pass restarts after an
accepted removal; the loop runs to fixpoint.  Reduction is best-effort
and deterministic — same input, same predicate, same output.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import replace

from ..lang import ast, parse_program
from ..lang.unparse import unparse_program


def count_nodes(obj: object) -> int:
    """Number of AST nodes in ``obj`` (any node or container of nodes)."""
    if isinstance(obj, ast.Node):
        return 1 + sum(
            count_nodes(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name != "location"
        )
    if isinstance(obj, (tuple, list)):
        return sum(count_nodes(item) for item in obj)
    return 0


# ----------------------------------------------------------------------
# Body-site traversal: every tuple[Stmt, ...] in the program, pre-order.


def _transform_bodies(program: ast.Program, fn):
    """Rebuild ``program`` with ``fn(site_index, body)`` applied to every
    statement tuple (function/method bodies and every nested compound)."""
    counter = itertools.count()

    def walk_body(body: tuple) -> tuple:
        body = tuple(fn(next(counter), tuple(body)))
        return tuple(walk_stmt(stmt) for stmt in body)

    def walk_stmt(stmt: ast.Stmt) -> ast.Stmt:
        if isinstance(stmt, ast.If):
            return replace(
                stmt,
                then_body=walk_body(stmt.then_body),
                else_body=walk_body(stmt.else_body),
            )
        if isinstance(stmt, ast.While):
            return replace(stmt, body=walk_body(stmt.body))
        if isinstance(stmt, ast.For):
            return replace(stmt, body=walk_body(stmt.body))
        if isinstance(stmt, ast.Block):
            return replace(stmt, body=walk_body(stmt.body))
        return stmt

    functions = tuple(
        replace(func, body=walk_body(func.body)) for func in program.functions
    )
    classes = tuple(
        replace(
            cls,
            methods=tuple(
                replace(method, body=walk_body(method.body))
                for method in cls.methods
            ),
        )
        for cls in program.classes
    )
    return replace(program, classes=classes, functions=functions)


def _body_sites(program: ast.Program) -> list[tuple[int, tuple]]:
    sites: list[tuple[int, tuple]] = []

    def record(index: int, body: tuple) -> tuple:
        sites.append((index, body))
        return body

    _transform_bodies(program, record)
    return sites


def _with_body(program: ast.Program, site: int, new_body: tuple) -> ast.Program:
    return _transform_bodies(
        program, lambda index, body: new_body if index == site else body
    )


# ----------------------------------------------------------------------
# Expression sites: every replaceable (non-lvalue) expression, pre-order.


def _transform_exprs(program: ast.Program, fn):
    """Rebuild ``program`` with ``fn(site_index, expr)`` applied to every
    non-lvalue expression.  When ``fn`` returns a different node the
    subtree is replaced wholesale (children are not visited)."""
    counter = itertools.count()

    def walk_expr(expr):
        if expr is None:
            return None
        new = fn(next(counter), expr)
        if new is not expr:
            return new
        if isinstance(expr, ast.FieldAccess):
            return replace(expr, obj=walk_expr(expr.obj))
        if isinstance(expr, ast.IndexAccess):
            return replace(
                expr, array=walk_expr(expr.array), index=walk_expr(expr.index)
            )
        if isinstance(expr, ast.UnaryOp):
            return replace(expr, operand=walk_expr(expr.operand))
        if isinstance(expr, ast.BinaryOp):
            return replace(
                expr, left=walk_expr(expr.left), right=walk_expr(expr.right)
            )
        if isinstance(expr, (ast.NewObject, ast.FunctionCall, ast.SuperCall)):
            return replace(expr, args=tuple(walk_expr(a) for a in expr.args))
        if isinstance(expr, ast.MethodCall):
            return replace(
                expr,
                receiver=walk_expr(expr.receiver),
                args=tuple(walk_expr(a) for a in expr.args),
            )
        return expr

    def walk_stmt(stmt):
        if isinstance(stmt, ast.ExprStmt):
            return replace(stmt, expr=walk_expr(stmt.expr))
        if isinstance(stmt, ast.VarDecl):
            return replace(stmt, init=walk_expr(stmt.init))
        if isinstance(stmt, ast.Assign):
            # The target is an lvalue — replacing it with a literal can
            # only produce parse-invalid candidates; leave it alone.
            return replace(stmt, value=walk_expr(stmt.value))
        if isinstance(stmt, ast.If):
            return replace(
                stmt,
                condition=walk_expr(stmt.condition),
                then_body=walk_body(stmt.then_body),
                else_body=walk_body(stmt.else_body),
            )
        if isinstance(stmt, ast.While):
            return replace(
                stmt, condition=walk_expr(stmt.condition), body=walk_body(stmt.body)
            )
        if isinstance(stmt, ast.For):
            return replace(
                stmt,
                init=walk_stmt(stmt.init) if stmt.init is not None else None,
                condition=walk_expr(stmt.condition),
                step=walk_stmt(stmt.step) if stmt.step is not None else None,
                body=walk_body(stmt.body),
            )
        if isinstance(stmt, ast.Return):
            return replace(stmt, value=walk_expr(stmt.value))
        if isinstance(stmt, ast.Block):
            return replace(stmt, body=walk_body(stmt.body))
        return stmt

    def walk_body(body):
        return tuple(walk_stmt(stmt) for stmt in body)

    functions = tuple(
        replace(func, body=walk_body(func.body)) for func in program.functions
    )
    classes = tuple(
        replace(
            cls,
            methods=tuple(
                replace(method, body=walk_body(method.body))
                for method in cls.methods
            ),
        )
        for cls in program.classes
    )
    globals_ = tuple(
        replace(decl, init=walk_expr(decl.init)) for decl in program.globals
    )
    return replace(
        program, classes=classes, functions=functions, globals=globals_
    )


def _expr_sites(program: ast.Program) -> list[tuple[int, ast.Expr]]:
    sites: list[tuple[int, ast.Expr]] = []

    def record(index, expr):
        sites.append((index, expr))
        return expr

    _transform_exprs(program, record)
    return sites


def _with_expr(program: ast.Program, site: int, new_expr: ast.Expr):
    return _transform_exprs(
        program, lambda index, expr: new_expr if index == site else expr
    )


# ----------------------------------------------------------------------
# Candidate generation.


def _candidates(program: ast.Program):
    """Yield smaller variants of ``program``, roughly biggest cut first."""
    # Whole declarations.
    for index in range(len(program.classes)):
        yield replace(
            program,
            classes=program.classes[:index] + program.classes[index + 1 :],
        )
    for index, func in enumerate(program.functions):
        if func.name == "main":
            continue
        yield replace(
            program,
            functions=program.functions[:index] + program.functions[index + 1 :],
        )
    for index in range(len(program.globals)):
        yield replace(
            program,
            globals=program.globals[:index] + program.globals[index + 1 :],
        )
    # Members.
    for cindex, cls in enumerate(program.classes):
        for mindex in range(len(cls.methods)):
            smaller = replace(
                cls, methods=cls.methods[:mindex] + cls.methods[mindex + 1 :]
            )
            yield replace(
                program,
                classes=program.classes[:cindex]
                + (smaller,)
                + program.classes[cindex + 1 :],
            )
        for findex in range(len(cls.fields)):
            smaller = replace(
                cls, fields=cls.fields[:findex] + cls.fields[findex + 1 :]
            )
            yield replace(
                program,
                classes=program.classes[:cindex]
                + (smaller,)
                + program.classes[cindex + 1 :],
            )
    # Statement chunks: halves, quarters, ..., singles per body site.
    for site, body in _body_sites(program):
        n = len(body)
        if n == 0:
            continue
        chunk = max(1, n // 2)
        while chunk >= 1:
            for start in range(0, n, chunk):
                yield _with_body(
                    program, site, body[:start] + body[start + chunk :]
                )
            if chunk == 1:
                break
            chunk //= 2
        # Hoist compound statements into their enclosing body.
        for index, stmt in enumerate(body):
            inner = None
            if isinstance(stmt, (ast.While, ast.Block)):
                inner = stmt.body
            elif isinstance(stmt, ast.If):
                inner = stmt.then_body + stmt.else_body
            elif isinstance(stmt, ast.For):
                inner = stmt.body
            if inner is not None:
                yield _with_body(
                    program, site, body[:index] + inner + body[index + 1 :]
                )
    # Expression pruning: any multi-node expression collapses to 0.
    for site, expr in _expr_sites(program):
        if count_nodes(expr) > 1:
            yield _with_expr(
                program, site, ast.IntLiteral(location=expr.location, value=0)
            )


def reduce_program(program: ast.Program, predicate, *, max_rounds: int = 40):
    """Greedily shrink ``program`` while ``predicate(candidate)`` holds.

    ``predicate`` receives an :class:`ast.Program` and returns ``True``
    when the candidate still exhibits the behaviour being chased.  The
    input program itself must satisfy the predicate.
    """
    if not predicate(program):
        raise ValueError("input program does not satisfy the predicate")
    for _ in range(max_rounds):
        shrunk = False
        for candidate in _candidates(program):
            if count_nodes(candidate) >= count_nodes(program):
                continue
            try:
                if predicate(candidate):
                    program = candidate
                    shrunk = True
                    break
            except Exception:
                continue  # a candidate that crashes the checker is rejected
        if not shrunk:
            return program
    return program


def reduce_source(
    source: str,
    predicate_kind: str,
    *,
    seed: int = -1,
    builds=None,
    max_steps: int | None = None,
    max_rounds: int = 40,
) -> str:
    """Shrink ``source`` while the oracle still reports the same bug.

    Returns the unparsed reduced program.  ``predicate_kind`` is a
    divergence ``kind`` (``output-mismatch``, ``optimize-error``, ...)
    that picks which of the input's divergences to chase: the first one
    of that kind.  A candidate is kept only if the oracle reports that
    divergence's full triage key, so the reduced program shows the same
    bug, not merely some bug of the same kind.
    """
    from .oracle import DEFAULT_MAX_STEPS, FUZZ_BUILDS, check_program

    builds = tuple(builds) if builds is not None else FUZZ_BUILDS
    max_steps = DEFAULT_MAX_STEPS if max_steps is None else max_steps

    def triage_keys(text: str) -> list[str]:
        result = check_program(text, seed=seed, builds=builds, max_steps=max_steps)
        return [d.triage_key for d in result.divergences if d.kind == predicate_kind]

    found = triage_keys(source)
    if not found:
        raise ValueError(f"input program has no {predicate_kind!r} divergence")
    chased = found[0]

    def predicate(candidate: ast.Program) -> bool:
        return chased in triage_keys(unparse_program(candidate))

    program = parse_program(source, filename=f"<reduce:{seed}>")
    reduced = reduce_program(program, predicate, max_rounds=max_rounds)
    return unparse_program(reduced)
