"""AST-based invariant linter for the serving/determinism contracts.

The fast paths built in PRs 5-6 rest on invariants that plain review does
not reliably catch: replay steps must not allocate, nothing in ``src/``
may consume global RNG or wall-clock state, every ``REPRO_*`` escape
hatch must be registered and documented, every conv backend must export
the full kernel contract, and every op counter must be asserted by a
test.  This module checks all of them syntactically — ``repro lint src
benchmarks`` is a blocking CI step.

Rule catalog (details and examples in ``docs/analysis.md``):

========  ========  =====================================================
rule      severity  meaning
========  ========  =====================================================
HOT001    error     numpy allocation inside a hot-path function
HOT002    error     list growth (``.append``/``.extend``) inside a loop
                    in a hot-path function
DET001    error     global RNG use (``np.random.*`` / ``random.*``)
                    outside the blessed seed helper
DET002    error     wall-clock call (``time.time``, ``datetime.now``, ...)
DET003    error     public ``fit``/``train_*`` entry without an explicit
                    seed/rng/config parameter
ENV001    error     ``REPRO_*`` literal not in the env-var registry
ENV002    error     registry entry not referenced anywhere under ``docs/``,
                    or a ``REPRO_*`` name in ``docs/`` that is not registered
BCK001    error     conv backend module missing part of the kernel
                    contract (``forward``/``forward_fused``/
                    ``grad_weight``/``grad_input``)
CNT001    error     counter in ``backend/counters.py`` not asserted by
                    any test
ERR001    error     error swallowing: bare ``except:``, or an
                    ``except Exception``/``except BaseException`` handler
                    whose body is only ``pass``
WVR001    error     waiver comment without a justification
WVR002    warning   waiver that matched no violation
SYN001    error     file failed to parse
========  ========  =====================================================

A violation is silenced by a waiver comment on the offending line or the
line directly above, and every waiver must say *why*::

    buf = np.zeros(shape, DTYPE)  # repro: waive[HOT001] trace-time only

"Hot path" means: decorated ``@repro.analysis.hot_path`` (recognized
syntactically), or any function in the replay modules
(``nn/backend/{__init__,im2col,reference}.py``, ``nn/plan.py``,
``core/grouped.py``).  ``nn/backend/pool.py`` is deliberately *not* hot:
it is the allocator the ban steers hot code toward, and pool acquisition
(``take``/``take_persistent``/``scratch``/``buffer``) is always allowed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from . import envvars

__all__ = [
    "LintReport",
    "Violation",
    "Waiver",
    "run_lint",
]

#: Hot-by-location modules: replay code where a single stray allocation
#: regresses the steady-state serving numbers (posix rel-path suffixes).
HOT_MODULE_SUFFIXES: Tuple[str, ...] = (
    "nn/backend/__init__.py",
    "nn/backend/im2col.py",
    "nn/backend/reference.py",
    "nn/plan.py",
    "core/grouped.py",
)

#: numpy callables that allocate a fresh buffer (HOT001).
_ALLOC_ATTRS = frozenset(
    {
        "zeros",
        "empty",
        "ones",
        "full",
        "zeros_like",
        "empty_like",
        "ones_like",
        "full_like",
        "concatenate",
        "stack",
        "vstack",
        "hstack",
        "tile",
    }
)

#: ``np.random.<attr>`` calls that do NOT touch the global state (DET001).
_RNG_ALLOWED = frozenset({"default_rng", "Generator", "RandomState", "SeedSequence"})

#: Dotted wall-clock calls (DET002).  ``time.perf_counter`` (and
#: ``monotonic``) stay legal: they time, they do not date.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "time.strftime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "date.today",
        "datetime.date.today",
    }
)

#: Parameter names that satisfy DET003 (explicit seed threading — a
#: config object counts because ``TrainConfig`` carries the seed).
_SEED_PARAMS = frozenset({"seed", "rng", "generator", "config", "cfg", "train_config"})

#: Function names whose *calls* mark pool acquisition (exempt by contract).
_POOL_ACQUIRE = frozenset({"take", "take_persistent", "scratch", "buffer"})

#: The blessed seed helper: the one function allowed to touch global RNGs.
_BLESSED_SEED_HELPER = "seed_everything"

_ENV_LITERAL = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")
#: A ``REPRO_*`` name in docs prose; a trailing ``*`` marks a wildcard.
_DOC_ENV_TOKEN = re.compile(r"REPRO_[A-Z0-9_]+\*?")
_WAIVE_COMMENT = re.compile(r"#\s*repro:\s*waive\[([A-Z0-9_,\s]+)\]\s*(.*)$")


@dataclass
class Violation:
    """One rule hit at one source location."""

    rule: str
    severity: str  # "error" | "warning"
    path: str  # path as given to run_lint (relative when possible)
    line: int
    message: str
    waived: bool = False

    def format(self) -> str:
        tag = " (waived)" if self.waived else ""
        return f"{self.path}:{self.line}: {self.rule} [{self.severity}]{tag} {self.message}"


@dataclass
class Waiver:
    """One ``# repro: waive[RULE,...]`` comment."""

    rules: Tuple[str, ...]
    line: int
    justification: str
    used: bool = False


@dataclass
class LintReport:
    """Everything one ``run_lint`` call found."""

    violations: List[Violation] = field(default_factory=list)
    waived: List[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == "warning"]

    def counts(self) -> Dict[str, int]:
        return {
            "files": self.files_checked,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "waived": len(self.waived),
        }

    def format(self, verbose: bool = False) -> str:
        lines = [v.format() for v in self.violations]
        if verbose:
            lines.extend(v.format() for v in self.waived)
        counts = self.counts()
        lines.append(
            f"{counts['files']} files: {counts['errors']} errors, "
            f"{counts['warnings']} warnings, {counts['waived']} waived"
        )
        return "\n".join(lines)


class _FileContext:
    """Parsed source + waivers for one file."""

    def __init__(self, path: Path, display: str, relpath: str, source: str) -> None:
        self.path = path
        self.display = display
        #: posix path relative to the lint root (drives hot-by-location).
        self.relpath = relpath
        self.source = source
        self.tree: Optional[ast.AST] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source)
        except SyntaxError as exc:  # SYN001
            self.syntax_error = exc
        self.waivers: List[Waiver] = self._parse_waivers(source)

    @staticmethod
    def _parse_waivers(source: str) -> List[Waiver]:
        waivers: List[Waiver] = []
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return waivers
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _WAIVE_COMMENT.search(tok.string)
            if match is None:
                continue
            rules = tuple(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            waivers.append(
                Waiver(
                    rules=rules,
                    line=tok.start[0],
                    justification=match.group(2).strip(),
                )
            )
        return waivers

    @property
    def is_hot_module(self) -> bool:
        return self.relpath.endswith(HOT_MODULE_SUFFIXES)

    def violation(self, rule: str, line: int, message: str, severity: str = "error") -> Violation:
        return Violation(rule=rule, severity=severity, path=self.display, line=line, message=message)


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_hot_decorated(node: ast.AST) -> bool:
    decorators = getattr(node, "decorator_list", [])
    for dec in decorators:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = _dotted(target)
        if name is not None and name.split(".")[-1] == "hot_path":
            return True
    return False


def _param_names(args: ast.arguments) -> Set[str]:
    names = {a.arg for a in args.args}
    names.update(a.arg for a in args.posonlyargs)
    names.update(a.arg for a in args.kwonlyargs)
    return names


# ----------------------------------------------------------------------
# Per-file rules
# ----------------------------------------------------------------------
class _HotPathVisitor(ast.NodeVisitor):
    """HOT001 (allocations) and HOT002 (list growth in loops)."""

    def __init__(self, ctx: _FileContext) -> None:
        self.ctx = ctx
        self.violations: List[Violation] = []
        self._hot_depth = 0
        self._loop_depth = 0
        self._module_hot = ctx.is_hot_module

    # -- scope tracking ---------------------------------------------------
    def _enter_function(self, node: ast.AST) -> None:
        hot = self._module_hot or self._hot_depth > 0 or _is_hot_decorated(node)
        self._hot_depth += 1 if hot else 0
        outer_loop = self._loop_depth
        self._loop_depth = 0
        self.generic_visit(node)
        self._loop_depth = outer_loop
        self._hot_depth -= 1 if hot else 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter_function(node)

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    # -- checks -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self._hot_depth > 0:
            name = _dotted(node.func)
            if name is not None:
                head, _, attr = name.rpartition(".")
                if head in ("np", "numpy") and attr in _ALLOC_ATTRS:
                    self.violations.append(
                        self.ctx.violation(
                            "HOT001",
                            node.lineno,
                            f"`{name}` allocates inside a hot-path function; "
                            "use the buffer pool (`take`/`scratch`) or move "
                            "the allocation to trace/setup time",
                        )
                    )
                last = name.split(".")[-1]
                if (
                    self._loop_depth > 0
                    and last in ("append", "extend")
                    and "." in name
                    and name.split(".")[0] not in ("self",)
                ):
                    self.violations.append(
                        self.ctx.violation(
                            "HOT002",
                            node.lineno,
                            f"`.{last}()` grows a list inside a loop in a "
                            "hot-path function; preallocate or hoist out of "
                            "the replay path",
                        )
                    )
        self.generic_visit(node)


def _rule_hot(ctx: _FileContext) -> Iterator[Violation]:
    visitor = _HotPathVisitor(ctx)
    visitor.visit(ctx.tree)
    yield from visitor.violations


class _DeterminismVisitor(ast.NodeVisitor):
    """DET001 (global RNG), DET002 (wall clock)."""

    def __init__(self, ctx: _FileContext) -> None:
        self.ctx = ctx
        self.violations: List[Violation] = []
        self._blessed_depth = 0

    def _enter_function(self, node: ast.AST) -> None:
        blessed = getattr(node, "name", None) == _BLESSED_SEED_HELPER
        self._blessed_depth += 1 if blessed else 0
        self.generic_visit(node)
        self._blessed_depth -= 1 if blessed else 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name is not None and self._blessed_depth == 0:
            parts = name.split(".")
            # np.random.<x> / numpy.random.<x> with x outside the
            # Generator-constructing allowlist consumes global RNG state.
            if (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in _RNG_ALLOWED
            ):
                self.violations.append(
                    self.ctx.violation(
                        "DET001",
                        node.lineno,
                        f"`{name}` consumes global numpy RNG state; thread an "
                        "explicit `np.random.Generator` instead",
                    )
                )
            elif len(parts) == 2 and parts[0] == "random" and parts[1] not in (
                "Random",
                "SystemRandom",
            ):
                self.violations.append(
                    self.ctx.violation(
                        "DET001",
                        node.lineno,
                        f"`{name}` consumes the stdlib global RNG; use a "
                        "dedicated `random.Random(seed)` (or numpy Generator)",
                    )
                )
            if name in _WALL_CLOCK:
                self.violations.append(
                    self.ctx.violation(
                        "DET002",
                        node.lineno,
                        f"`{name}` makes output depend on wall-clock time; "
                        "pass timestamps in explicitly "
                        "(`time.perf_counter` is fine for timing)",
                    )
                )
        self.generic_visit(node)


def _rule_det_calls(ctx: _FileContext) -> Iterator[Violation]:
    visitor = _DeterminismVisitor(ctx)
    visitor.visit(ctx.tree)
    yield from visitor.violations


def _rule_det_entries(ctx: _FileContext) -> Iterator[Violation]:
    """DET003: module-level ``fit``/``train_*`` must thread a seed."""
    for node in ast.iter_child_nodes(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name != "fit" and not node.name.startswith("train_"):
            continue
        if node.name.startswith("_"):
            continue
        if not _param_names(node.args) & _SEED_PARAMS:
            yield ctx.violation(
                "DET003",
                node.lineno,
                f"public training entry `{node.name}` takes none of "
                f"{sorted(_SEED_PARAMS)}; determinism must be callable-in, "
                "not ambient",
            )


def _rule_env_literals(ctx: _FileContext) -> Iterator[Violation]:
    """ENV001: every ``REPRO_*`` literal must be registered."""
    if ctx.relpath.endswith("analysis/envvars.py"):
        return  # the registry itself defines the names
    known = envvars.registered()
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            continue
        if _ENV_LITERAL.fullmatch(node.value) and node.value not in known:
            yield ctx.violation(
                "ENV001",
                node.lineno,
                f"`{node.value}` is not registered in "
                "repro.analysis.envvars; register it (with docs) or rename",
            )


def _rule_backend_contract(ctx: _FileContext) -> Iterator[Violation]:
    """BCK001: conv kernel modules must export the full contract."""
    if "nn/backend/" not in ctx.relpath:
        return
    module_funcs: Set[str] = set()
    declares_name = False
    for node in ast.iter_child_nodes(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module_funcs.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "NAME"
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    declares_name = True
    if not declares_name:
        return  # not a kernel module (pool, counters, ...)
    required = ("forward", "forward_fused", "grad_weight", "grad_input")
    missing = [fn for fn in required if fn not in module_funcs]
    if missing:
        yield ctx.violation(
            "BCK001",
            1,
            f"conv backend module is missing {missing} — the dispatcher in "
            "nn/backend/__init__.py requires the full kernel contract "
            f"{list(required)}",
        )


_BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


def _broad_exception_types(node: ast.expr) -> List[str]:
    """The Exception-wide names a handler's type expression catches."""
    names = (
        [element for element in node.elts if isinstance(element, ast.Name)]
        if isinstance(node, ast.Tuple)
        else [node] if isinstance(node, ast.Name) else []
    )
    return [name.id for name in names if name.id in _BROAD_EXCEPTION_NAMES]


def _body_is_only_pass(body: List[ast.stmt]) -> bool:
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


def _rule_error_swallowing(ctx: _FileContext) -> Iterator[Violation]:
    """ERR001: no bare ``except:``; no Exception-wide handlers that only pass.

    A bare ``except:`` also traps ``SystemExit``/``KeyboardInterrupt``,
    and an ``except Exception: pass`` turns every failure — including
    corruption the robustness layer exists to surface — into silence.
    Narrow, typed best-effort handlers (``except OSError: pass`` around a
    close) stay legal: they state which failure is being tolerated.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield ctx.violation(
                "ERR001",
                node.lineno,
                "bare `except:` also catches SystemExit/KeyboardInterrupt; "
                "name the exception type you mean to handle",
            )
            continue
        broad = _broad_exception_types(node.type)
        if broad and _body_is_only_pass(node.body):
            yield ctx.violation(
                "ERR001",
                node.lineno,
                f"`except {broad[0]}: pass` swallows every failure silently; "
                "narrow the type, handle the error, or re-raise",
            )


_FILE_RULES = (
    _rule_hot,
    _rule_det_calls,
    _rule_det_entries,
    _rule_env_literals,
    _rule_backend_contract,
    _rule_error_swallowing,
)


# ----------------------------------------------------------------------
# Project-level rules
# ----------------------------------------------------------------------
def _rule_env_docs(root: Path) -> Iterator[Violation]:
    """ENV002: the registry and ``docs/`` name the same variables.

    Every registry entry must be referenced under ``docs/``, and every
    ``REPRO_*`` name a docs page mentions must be registered, so a deleted
    variable cannot stay documented.  Wildcards (``REPRO_NN_*``) are prose
    and pass.
    """
    docs_dir = root / "docs"
    if not docs_dir.is_dir():
        return
    pages = {
        page.name: page.read_text(encoding="utf-8", errors="replace")
        for page in sorted(docs_dir.glob("*.md"))
    }
    corpus = "\n".join(pages.values())
    for name in envvars.ENV_VARS:
        if name not in corpus:
            yield Violation(
                rule="ENV002",
                severity="error",
                path="src/repro/analysis/envvars.py",
                line=1,
                message=(
                    f"registered env var `{name}` is not mentioned in any "
                    "docs/*.md page; document it (docs/config.md holds the "
                    "table)"
                ),
            )
    for page, text in pages.items():
        for lineno, line in enumerate(text.splitlines(), start=1):
            for token in _DOC_ENV_TOKEN.findall(line):
                if token.endswith("*") or token in envvars.ENV_VARS:
                    continue
                yield Violation(
                    rule="ENV002",
                    severity="error",
                    path=f"docs/{page}",
                    line=lineno,
                    message=(
                        f"`{token}` is documented but not registered in "
                        "repro.analysis.envvars; register it or drop it "
                        "from the docs"
                    ),
                )


def _rule_counter_discipline(root: Path) -> Iterator[Violation]:
    """CNT001: every backend counter must appear in at least one test."""
    counters_path = root / "src" / "repro" / "nn" / "backend" / "counters.py"
    tests_dir = root / "tests"
    if not (counters_path.is_file() and tests_dir.is_dir()):
        return
    try:
        tree = ast.parse(counters_path.read_text(encoding="utf-8"))
    except SyntaxError:
        return  # SYN001 fires if counters.py is part of the linted set
    keys: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        if "_COUNTS" not in targets or not isinstance(node.value, ast.Dict):
            continue
        for key in node.value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.append((key.value, key.lineno))
    if not keys:
        return
    corpus = "\n".join(
        test.read_text(encoding="utf-8", errors="replace")
        for test in sorted(tests_dir.glob("*.py"))
    )
    for key, lineno in keys:
        if key not in corpus:
            yield Violation(
                rule="CNT001",
                severity="error",
                path="src/repro/nn/backend/counters.py",
                line=lineno,
                message=(
                    f"counter `{key}` is not asserted by any file in tests/; "
                    "an unasserted counter is an invariant nobody checks"
                ),
            )


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def _collect_files(paths: Sequence, root: Path) -> List[Path]:
    files: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if not path.is_absolute():
            path = root / path
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    seen: Set[Path] = set()
    unique = []
    for path in files:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _apply_waivers(
    ctx: _FileContext, found: List[Violation]
) -> Tuple[List[Violation], List[Violation]]:
    """Split ``found`` into live vs waived, marking waivers used."""
    by_line: Dict[int, List[Waiver]] = {}
    for waiver in ctx.waivers:
        by_line.setdefault(waiver.line, []).append(waiver)
    live: List[Violation] = []
    waived: List[Violation] = []
    for violation in found:
        matched = None
        for line in (violation.line, violation.line - 1):
            for waiver in by_line.get(line, []):
                if violation.rule in waiver.rules:
                    matched = waiver
                    break
            if matched:
                break
        if matched is not None and matched.justification:
            matched.used = True
            violation.waived = True
            waived.append(violation)
        else:
            live.append(violation)
    return live, waived


def run_lint(paths: Sequence, root=None, project_rules: bool = True) -> LintReport:
    """Lint ``paths`` (files or directories) and return a :class:`LintReport`.

    ``root`` anchors relative paths, hot-by-location matching, and the
    project-level rules (docs/tests cross-checks); it defaults to the
    current working directory.  ``project_rules=False`` restricts the run
    to per-file rules — the fixture tests use it to isolate one rule at a
    time.
    """
    root = Path(root) if root is not None else Path.cwd()
    report = LintReport()
    for path in _collect_files(paths, root):
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        source = path.read_text(encoding="utf-8")
        ctx = _FileContext(path=path, display=relpath, relpath=relpath, source=source)
        report.files_checked += 1

        if ctx.syntax_error is not None:
            report.violations.append(
                ctx.violation(
                    "SYN001",
                    ctx.syntax_error.lineno or 1,
                    f"file does not parse: {ctx.syntax_error.msg}",
                )
            )
            continue

        found: List[Violation] = []
        for rule in _FILE_RULES:
            found.extend(rule(ctx))
        live, waived = _apply_waivers(ctx, found)
        report.violations.extend(live)
        report.waived.extend(waived)

        for waiver in ctx.waivers:
            if not waiver.justification:
                report.violations.append(
                    ctx.violation(
                        "WVR001",
                        waiver.line,
                        f"waiver for {list(waiver.rules)} has no justification; "
                        "say why the rule does not apply here",
                    )
                )
            elif not waiver.used:
                report.violations.append(
                    ctx.violation(
                        "WVR002",
                        waiver.line,
                        f"waiver for {list(waiver.rules)} matched no violation; "
                        "delete it (stale waivers hide future regressions)",
                        severity="warning",
                    )
                )

    if project_rules:
        report.violations.extend(_rule_env_docs(root))
        report.violations.extend(_rule_counter_discipline(root))

    return report
