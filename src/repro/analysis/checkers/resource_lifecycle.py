"""RL800/RL801/RL802: deterministic teardown on every CFG path.

The executors this repo grew all own heavyweight resources: shard and
dispatcher threads, ``np.memmap`` views of a score-store snapshot,
write-ahead journal files, registration locks. A leak is not just
untidy — a mapped view that outlives its owner keeps the snapshot file
pinned, an unjoined thread races test teardown, and a
lock with no exception-safe release converts the first error into a
deadlock. These rules check the *paths*, not the happy line: the CFG's
exception edges are exactly the paths the unit tests don't walk.

* **RL800** — a ``Thread``/``Process`` constructed without
  ``daemon=True`` and with no ``.join()`` on the binding anywhere in
  the enclosing class (for ``self.<attr>``) or function (for a local).
  Either discipline is fine; having neither means shutdown order is
  whatever the scheduler felt like.
* **RL801** — a handle from ``open()``/``tempfile.mkstemp()``/
  ``np.memmap()`` with a CFG path to function exit that meets no
  release (``close``/``os.unlink``/a sibling method that releases the
  attribute). Locals must release on *all* paths (or visibly escape by
  being returned/stored); ``self.<attr>`` resources intentionally
  outlive the method, so only *exception* paths are checked — the
  window where the half-built object unwinds and no caller holds a
  reference to clean up. Exception liveness uses a calls-only raise
  model: plain attribute stores between creation and the protecting
  ``try`` don't count as escape hatches, calls do.
* **RL802** — ``.acquire()`` with no exception-safe ``.release()``:
  not in a ``finally``, and not the probe (``blocking=False`` with an
  immediate release) or delegation (inside ``acquire``/``__enter__``)
  idioms. The fix is almost always ``with lock:``.
"""

from __future__ import annotations

import ast

from repro.analysis.dataflow import CFG, build_cfg, own_calls
from repro.analysis.findings import Finding
from repro.analysis.project import FunctionInfo, Module

__all__ = ["check", "RESOURCE_FACTORIES"]

#: Calls that produce a resource needing deterministic teardown.
RESOURCE_FACTORIES = frozenset(
    {"open", "fdopen", "mkstemp", "memmap", "open_memmap", "TemporaryFile"}
)

#: Terminal call names that release a file-ish resource.
RELEASE_NAMES = frozenset({"close", "unlink", "remove", "cleanup"})

THREADLIKE = frozenset({"Thread", "Process"})


def _terminal(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _self_attr(expr: ast.expr) -> str | None:
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _mentions_name(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == name for n in ast.walk(node)
    )


def _mentions_self_attr(node: ast.AST, attr: str) -> bool:
    return any(
        _self_attr(n) == attr
        for n in ast.walk(node)
        if isinstance(n, ast.expr)
    )


def _stmt_has_call(stmt: ast.stmt) -> bool:
    """Calls-only raise model (see module docstring)."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    return bool(own_calls(stmt))


def _stmts_after(block_stmts: list[ast.stmt], stmt: ast.stmt) -> list[ast.stmt]:
    seen = False
    out: list[ast.stmt] = []
    for candidate in block_stmts:
        if seen:
            out.append(candidate)
        if candidate is stmt:
            seen = True
    return out


class _LeakQuery:
    """Path queries over one function's CFG for a single resource."""

    def __init__(
        self, cfg: CFG, release_blocks: set[int], creation_block: int,
        creation_stmt: ast.stmt,
    ) -> None:
        self.cfg = cfg
        self.release = release_blocks
        self.cb = creation_block
        self.cs = creation_stmt

    def _post_creation_reach(self) -> tuple[set[int], bool]:
        """(blocks reachable after creation avoiding release, whether the
        creation block itself still raises after the creation ran)."""
        block = self.cfg.blocks[self.cb]
        tail = _stmts_after(block.stmts, self.cs)
        tail_release = any(
            self._is_release_stmt(stmt) for stmt in tail
        )
        tail_raises = any(_stmt_has_call(s) for s in tail)
        if tail_release:
            # Straight-line release inside the creation block covers the
            # normal path; only a call between the two can still escape.
            starts: set[int] = set()
        else:
            starts = set(block.succs) - block.raises_to
        reach: set[int] = set()
        # sorted: worklist order can't affect the reach set, but the
        # analyzer holds itself to its own RL601 discipline.
        stack = [s for s in sorted(starts) if s not in self.release]
        reach.update(stack)
        while stack:
            for succ in self.cfg.blocks[stack.pop()].succs:
                if succ in self.release or succ in reach:
                    continue
                reach.add(succ)
                stack.append(succ)
        return reach, tail_raises

    def _is_release_stmt(self, stmt: ast.stmt) -> bool:
        raise NotImplementedError

    def _block_is_release(self, block_id: int) -> bool:
        return block_id in self.release

    def normal_leak(self) -> bool:
        """Exit reachable on normal edges without meeting a release."""
        reach, _ = self._post_creation_reach()
        return self.cfg.exit in reach

    def exception_leak(self) -> bool:
        """An exception raised after creation can unwind past release."""
        reach, tail_raises = self._post_creation_reach()
        raising = {b for b in reach if self._block_raises(b)}
        if tail_raises:
            raising.add(self.cb)
        for b in raising:
            for target in self.cfg.blocks[b].raises_to:
                if target == self.cfg.exit:
                    return True
                if target not in self.release and self.cfg.path_avoiding(
                    target, self.cfg.exit, self.release
                ):
                    return True
        return False

    def _block_raises(self, block_id: int) -> bool:
        if block_id == self.cb:
            return False
        return any(
            _stmt_has_call(s) for s in self.cfg.blocks[block_id].stmts
        )


class _ResourceQuery(_LeakQuery):
    def __init__(
        self,
        cfg: CFG,
        creation_block: int,
        creation_stmt: ast.stmt,
        is_release_stmt,  # Callable[[ast.stmt], bool]
    ) -> None:
        self._release_pred = is_release_stmt
        release_blocks = {
            b.id
            for b in cfg.blocks.values()
            if any(is_release_stmt(s) for s in b.stmts)
            and not (
                b.id == creation_block
                and not any(
                    is_release_stmt(s)
                    for s in _stmts_after(b.stmts, creation_stmt)
                )
            )
        }
        super().__init__(cfg, release_blocks, creation_block, creation_stmt)

    def _is_release_stmt(self, stmt: ast.stmt) -> bool:
        return bool(self._release_pred(stmt))


def _creation_calls(stmt: ast.stmt) -> ast.Call | None:
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and _terminal(value.func) in RESOURCE_FACTORIES:
        return value
    return None


def _binding(target: ast.expr) -> tuple[list[str], list[str]]:
    """(local names, self attrs) bound by an assignment target."""
    names: list[str] = []
    attrs: list[str] = []
    elements = (
        list(target.elts) if isinstance(target, (ast.Tuple, ast.List)) else [target]
    )
    for element in elements:
        if isinstance(element, ast.Name):
            names.append(element.id)
        else:
            attr = _self_attr(element)
            if attr is not None:
                attrs.append(attr)
    return names, attrs


def _escapes(fn: FunctionInfo, names: list[str]) -> bool:
    """Does ownership of any bound name visibly leave the function?"""
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            if value is not None and any(
                _mentions_name(value, n) for n in names
            ):
                return True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and any(
                    _mentions_name(node.value, n) for n in names
                ):
                    return True
    return False


def _class_release_sites(
    module: Module, cls: str | None, attr: str
) -> list[str]:
    """Sibling methods of ``cls`` that release ``self.<attr>``."""
    if cls is None:
        return []
    sites: list[str] = []
    for name, info in module.classes.get(cls, {}).items():
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in RELEASE_NAMES
                ):
                    if _self_attr(func.value) == attr or any(
                        _mentions_self_attr(arg, attr) for arg in node.args
                    ):
                        sites.append(name)
                        break
                elif _terminal(func) in RELEASE_NAMES and any(
                    _mentions_self_attr(arg, attr) for arg in node.args
                ):
                    sites.append(name)
                    break
    return sites


def _check_handles(fn: FunctionInfo, module: Module) -> list[Finding]:
    findings: list[Finding] = []
    cfg = build_cfg(fn.node)
    for block in list(cfg.blocks.values()):
        for stmt in block.stmts:
            call = _creation_calls(stmt)
            if call is None:
                continue
            factory = _terminal(call.func) or "open"
            names, attrs = _binding(stmt.targets[0])
            if attrs:
                finding = _check_attr_resource(
                    fn, module, cfg, block.id, stmt, factory, attrs[0]
                )
            elif names:
                finding = _check_local_resource(
                    fn, module, cfg, block.id, stmt, factory, names
                )
            else:
                finding = None
            if finding is not None:
                findings.append(finding)
    return findings


def _check_local_resource(
    fn: FunctionInfo,
    module: Module,
    cfg: CFG,
    block_id: int,
    stmt: ast.stmt,
    factory: str,
    names: list[str],
) -> Finding | None:
    if _escapes(fn, names):
        return None
    # For mkstemp the *file* is the resource: closing the fd is not
    # enough, the path must be unlinked. For handles, close() releases.
    if factory == "mkstemp":
        resource = names[-1]  # (fd, path) — path owns the file

        def released(s: ast.stmt) -> bool:
            return any(
                _terminal(c.func) in {"unlink", "remove"}
                and any(_mentions_name(a, resource) for a in c.args)
                for c in own_calls(s)
            )

    else:
        resource = names[0]

        def released(s: ast.stmt) -> bool:
            for c in own_calls(s):
                func = c.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in RELEASE_NAMES
                    and _mentions_name(func.value, resource)
                ):
                    return True
                if _terminal(func) in RELEASE_NAMES and any(
                    _mentions_name(a, resource) for a in c.args
                ):
                    return True
            return False

    query = _ResourceQuery(cfg, block_id, stmt, released)
    if query.normal_leak() or query.exception_leak():
        kind = "normal" if query.normal_leak() else "exception"
        return Finding(
            path=module.rel,
            line=stmt.lineno,
            rule="RL801",
            message=(
                f"{factory}() handle {resource!r} has a {kind} path to "
                "exit with no release (use `with`, or release in a "
                "finally that covers every call after creation)"
            ),
            symbol=fn.qualname,
            chain=(f"{factory}@{stmt.lineno}", f"{kind} path escapes release"),
        )
    return None


def _check_attr_resource(
    fn: FunctionInfo,
    module: Module,
    cfg: CFG,
    block_id: int,
    stmt: ast.stmt,
    factory: str,
    attr: str,
) -> Finding | None:
    releasing_methods = _class_release_sites(module, fn.cls, attr)
    if not releasing_methods:
        return Finding(
            path=module.rel,
            line=stmt.lineno,
            rule="RL801",
            message=(
                f"self.{attr} holds a {factory}() resource but no method "
                "of this class releases it (add a close/unlink site)"
            ),
            symbol=fn.qualname,
            chain=(f"{factory}@{stmt.lineno}", "no class-wide release"),
        )

    def released(s: ast.stmt) -> bool:
        for c in own_calls(s):
            func = c.func
            if isinstance(func, ast.Attribute):
                if func.attr in RELEASE_NAMES and (
                    _self_attr(func.value) == attr
                    or any(_mentions_self_attr(a, attr) for a in c.args)
                ):
                    return True
                # Delegation to a sibling releasing method counts.
                if (
                    _self_attr(func) is not None
                    and func.attr in releasing_methods
                ):
                    return True
            elif _terminal(func) in RELEASE_NAMES and any(
                _mentions_self_attr(a, attr) for a in c.args
            ):
                return True
        return False

    # Stored resources outlive the method by design, and outside
    # __init__ the caller already holds the owner, so close() stays
    # reachable however the method unwinds. Only the constructor has
    # the orphan window: an exception after creation and no caller
    # with a reference to clean up.
    if fn.name != "__init__":
        return None
    query = _ResourceQuery(cfg, block_id, stmt, released)
    if query.exception_leak():
        return Finding(
            path=module.rel,
            line=stmt.lineno,
            rule="RL801",
            message=(
                f"an exception after self.{attr} = {factory}(...) "
                "unwinds without releasing it: no caller holds the "
                "half-built object, so the resource leaks (wrap the "
                "post-creation calls in try/except that releases)"
            ),
            symbol=fn.qualname,
            chain=(f"{factory}@{stmt.lineno}", "unprotected unwind path"),
        )
    return None


def _check_threads(fn: FunctionInfo, module: Module) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        value = node.value
        if not (
            isinstance(value, ast.Call) and _terminal(value.func) in THREADLIKE
        ):
            continue
        if any(
            kw.arg == "daemon"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in value.keywords
        ):
            continue
        kind = _terminal(value.func) or "Thread"
        names, attrs = _binding(node.targets[0])
        joined = False
        if attrs:
            scope: ast.AST | None = None
            if fn.cls is not None:
                methods = module.classes.get(fn.cls, {})
                joined = any(
                    any(
                        isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "join"
                        and _self_attr(n.func.value) == attrs[0]
                        for n in ast.walk(info.node)
                    )
                    for info in methods.values()
                )
            del scope
        elif names:
            joined = any(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "join"
                and _mentions_name(n.func.value, names[0])
                for n in ast.walk(fn.node)
            )
        if not joined:
            binding = f"self.{attrs[0]}" if attrs else (names[0] if names else "?")
            findings.append(
                Finding(
                    path=module.rel,
                    line=node.lineno,
                    rule="RL800",
                    message=(
                        f"{kind} bound to {binding} is neither daemon=True "
                        "nor joined anywhere: shutdown order is left to "
                        "the scheduler (join it in close(), or mark it "
                        "daemon)"
                    ),
                    symbol=fn.qualname,
                    chain=(f"{kind}@{node.lineno}", "no join, not daemon"),
                )
            )
    return findings


def _check_locks(fn: FunctionInfo, module: Module) -> list[Finding]:
    if fn.name in {"acquire", "__enter__"}:
        # Wrapper delegation: the caller owns the acquire/release pairing.
        return []
    findings: list[Finding] = []
    finally_releases: list[tuple[str, ast.Try]] = []
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Try):
            for stmt in node.finalbody:
                for call in own_calls(stmt):
                    func = call.func
                    if isinstance(func, ast.Attribute) and func.attr == "release":
                        finally_releases.append(
                            (ast.dump(func.value), node)
                        )
    for node in ast.walk(fn.node):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            continue
        nonblocking = any(
            isinstance(a, ast.Constant) and a.value is False for a in node.args
        ) or any(
            kw.arg == "blocking"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in node.keywords
        )
        if nonblocking:
            continue
        receiver = ast.dump(node.func.value)
        if any(recv == receiver for recv, _ in finally_releases):
            continue
        findings.append(
            Finding(
                path=module.rel,
                line=node.lineno,
                rule="RL802",
                message=(
                    "acquire() with no release() in a finally on this "
                    "receiver: the first exception between them leaves "
                    "the lock held forever (use `with`, or try/finally)"
                ),
                symbol=fn.qualname,
                chain=(f"acquire@{node.lineno}", "no finally release"),
            )
        )
    return findings


def check(modules: list[Module]) -> list[Finding]:
    findings: list[Finding] = []
    for module in modules:
        for fn in module.functions:
            findings.extend(_check_handles(fn, module))
            findings.extend(_check_threads(fn, module))
            findings.extend(_check_locks(fn, module))
    return findings
