"""Repo-invariant linter: AST checks generic linters cannot express.

The codebase keeps several correctness-critical invariants by convention;
this module turns each into a machine check over the source tree
(``python -m repro.analysis lint``, gated in CI):

``cache-key-drift``
    Any :class:`~repro.config.FuserConfig` field read inside the
    plan-shaping modules (``search/``, ``runtime/cache.py``, ``graphs/``)
    must either appear in ``cache_key_fields()`` or be explicitly listed
    in :data:`PLAN_NEUTRAL_CONFIG_FIELDS`.  A new config field that steers
    the search but is missing from the key silently poisons every shared
    cache — this check makes the omission a lint failure instead.
``plan-neutral-fields``
    Every :data:`PLAN_NEUTRAL_CONFIG_FIELDS` entry names a current
    :class:`~repro.config.FuserConfig` field, so an exemption cannot
    outlive its knob.  Tree-wide, like ``metric-names``.
``lock-discipline``
    In classes that create a ``self._lock``, methods that use the lock
    must not mutate lock-guarded attributes outside their ``with
    self._lock`` blocks.  (An attribute counts as guarded once any method
    of the class mutates it under the lock; ``__init__`` and helpers that
    run entirely under a caller-held lock are exempt.)
``nondeterminism``
    ``time.time()``, ``datetime.now()`` and unseeded module-level
    ``random`` calls are banned in the deterministic layers (search,
    dataflow, codegen, simulation, IR, graphs, hardware, obs): plans and
    costs must be pure functions of their inputs or cache keys lose
    meaning.  :data:`NONDETERMINISM_ALLOWLIST` exempts the one sanctioned
    wall-clock authority (``obs/trace.py``) per file.
``to-dict-order``
    ``to_dict``/``snapshot`` methods returning a dict literal must pin the
    schema: constant, duplicate-free string keys and no ``**`` spreads, so
    serialized artifacts diff cleanly across runs.
``silent-except``
    ``except``-and-``pass`` over broad exception types (``Exception``,
    ``OSError``, bare) swallows failures invisibly; handle, count, or
    narrow them.
``metric-names``
    Every ``repro_*`` name literal passed to ``.counter(``, ``.gauge(``
    or ``.histogram(`` has exactly one call site in the package and a row
    in the metric catalog of ``docs/OBSERVABILITY.md``, and every catalog
    row has a call site — so each metric is recorded in one place and
    documented.  This check spans the whole tree, so it runs in
    :meth:`Linter.lint_tree` (and :func:`run_repo_lint`) only.

False positives can be suppressed per line with ``# lint: allow[<check>]``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: FuserConfig fields that deliberately do NOT participate in the cache
#: key: they cannot change which plan the search selects, only how (or
#: whether) the search runs.  Adding a field here is an explicit claim of
#: plan-neutrality — see docs/ANALYSIS.md before extending it.
PLAN_NEUTRAL_CONFIG_FIELDS = frozenset(
    {
        # The device is part of the key via its fingerprint, not as a field.
        "device",
        # Cache wiring: where entries live, never what they contain.
        "cache",
    }
)

#: Package-relative prefixes whose modules must be deterministic.
DETERMINISTIC_PREFIXES = (
    "search",
    "dataflow",
    "codegen",
    "dsm_comm",
    "sim",
    "ir",
    "graphs",
    "hardware",
    "obs",
)

#: Per-file exemptions from the nondeterminism check: the tracer is the
#: one sanctioned wall-clock authority (span timestamps must be wall time
#: to line up across processes); every other module obtains timestamps via
#: ``repro.obs.trace.now_us`` instead of reading the clock itself.
NONDETERMINISM_ALLOWLIST: Dict[str, frozenset] = {
    "obs/trace.py": frozenset({"time.time"}),
}

#: Package-relative prefixes scanned for cache-key drift.
KEY_DRIFT_PREFIXES = ("search", "graphs", "runtime/cache.py")

#: Module-level ``random`` functions that draw from the unseeded global
#: generator (``random.Random(seed)`` instances are fine).
UNSEEDED_RANDOM_CALLS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "getrandbits",
    }
)

CHECK_KEY_DRIFT = "cache-key-drift"
CHECK_PLAN_NEUTRAL_FIELDS = "plan-neutral-fields"
CHECK_LOCK_DISCIPLINE = "lock-discipline"
CHECK_NONDETERMINISM = "nondeterminism"
CHECK_TO_DICT_ORDER = "to-dict-order"
CHECK_SILENT_EXCEPT = "silent-except"
CHECK_METRIC_NAMES = "metric-names"

ALL_CHECKS = (
    CHECK_KEY_DRIFT,
    CHECK_PLAN_NEUTRAL_FIELDS,
    CHECK_LOCK_DISCIPLINE,
    CHECK_NONDETERMINISM,
    CHECK_TO_DICT_ORDER,
    CHECK_SILENT_EXCEPT,
    CHECK_METRIC_NAMES,
)

#: Registry methods whose first argument names a metric.
METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

#: A catalog row: a Markdown table row whose first cell is a backticked
#: ``repro_*`` metric name.
_CATALOG_ROW = re.compile(r"^\|\s*`(repro_[A-Za-z0-9_]+)`\s*\|")


@dataclass(frozen=True)
class LintViolation:
    """One linter finding.

    Parameters
    ----------
    check:
        The check identifier (one of :data:`ALL_CHECKS`).
    path:
        Source file (or synthetic label) the finding is in.
    line:
        1-based line number.
    message:
        Human-readable description.
    """

    check: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def _allowed_lines(source: str) -> Dict[int, Set[str]]:
    """Per-line ``# lint: allow[check]`` suppressions."""
    allowed: Dict[int, Set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        marker = "# lint: allow["
        index = text.find(marker)
        if index < 0:
            continue
        names = text[index + len(marker) :].split("]", 1)[0]
        allowed[number] = {name.strip() for name in names.split(",")}
    return allowed


def _self_target_attr(node: ast.expr) -> Optional[str]:
    """For a store target rooted at ``self``, the first attribute name."""
    chain: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and chain:
        return chain[-1]
    return None


def _is_config_read(node: ast.Attribute) -> bool:
    """Whether an attribute read is idiomatically a FuserConfig access.

    Matches ``config.X``, ``cfg.X``, ``self.config.X``,
    ``self.compiler.config.X`` — any access whose immediate base is a name
    or attribute called ``config``/``cfg``/``base_config``.
    """
    base = node.value
    if isinstance(base, ast.Name):
        return base.id in ("config", "cfg", "base_config")
    if isinstance(base, ast.Attribute):
        return base.attr in ("config", "cfg", "base_config")
    return False


class _FileChecker:
    """Run the applicable checks over one parsed module."""

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        checks: Sequence[str],
        config_fields: Set[str],
        key_fields: Set[str],
        allowlist: frozenset,
        nondeterminism_allow: frozenset = frozenset(),
    ) -> None:
        self.path = path
        self.tree = tree
        self.checks = set(checks)
        self.config_fields = config_fields
        self.key_fields = key_fields
        self.allowlist = allowlist
        self.nondeterminism_allow = nondeterminism_allow
        self.allowed = _allowed_lines(source)
        self.violations: List[LintViolation] = []

    def report(self, check: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if check in self.allowed.get(line, ()):
            return
        self.violations.append(
            LintViolation(check=check, path=self.path, line=line, message=message)
        )

    def run(self) -> List[LintViolation]:
        if CHECK_KEY_DRIFT in self.checks and self.config_fields:
            self._check_key_drift()
        if CHECK_LOCK_DISCIPLINE in self.checks:
            self._check_lock_discipline()
        if CHECK_NONDETERMINISM in self.checks:
            self._check_nondeterminism()
        if CHECK_TO_DICT_ORDER in self.checks:
            self._check_to_dict_order()
        if CHECK_SILENT_EXCEPT in self.checks:
            self._check_silent_except()
        return self.violations

    # -- cache-key-drift ------------------------------------------------ #
    def _check_key_drift(self) -> None:
        sanctioned = self.key_fields | self.allowlist
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in self.config_fields or node.attr in sanctioned:
                continue
            if not _is_config_read(node):
                continue
            self.report(
                CHECK_KEY_DRIFT,
                node,
                f"FuserConfig.{node.attr} is read in a plan-shaping module "
                "but is neither in cache_key_fields() nor in "
                "PLAN_NEUTRAL_CONFIG_FIELDS — a shared cache would serve "
                "plans compiled under a different setting",
            )

    # -- lock-discipline ------------------------------------------------ #
    def _check_lock_discipline(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class_locks(node)

    def _check_class_locks(self, cls: ast.ClassDef) -> None:
        methods = [
            item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if not any(self._creates_lock(method) for method in methods):
            return
        guarded: Set[str] = set()
        for method in methods:
            for attr, under in self._self_mutations(method):
                if under and attr != "_lock":
                    guarded.add(attr)
        for method in methods:
            if method.name == "__init__":
                continue
            if not self._uses_lock(method):
                # Helpers without a with-block run under a caller-held
                # lock (enforced dynamically via locks.require_held).
                continue
            for attr, under in self._self_mutations(method):
                if attr in guarded and not under:
                    self.report(
                        CHECK_LOCK_DISCIPLINE,
                        method,
                        f"{cls.name}.{method.name} mutates lock-guarded "
                        f"attribute self.{attr} outside 'with self._lock'",
                    )

    @staticmethod
    def _creates_lock(method: ast.AST) -> bool:
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "_lock"
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return True
        return False

    @staticmethod
    def _is_self_lock(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "_lock"
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _uses_lock(self, method: ast.AST) -> bool:
        for node in ast.walk(method):
            if isinstance(node, ast.With) and any(
                self._is_self_lock(item.context_expr) for item in node.items
            ):
                return True
        return False

    def _self_mutations(
        self, method: ast.AST, under: bool = False
    ) -> Iterable[Tuple[str, bool]]:
        """Yield (attribute, under-lock) for every ``self.X`` store."""
        for stmt in getattr(method, "body", []):
            yield from self._stmt_mutations(stmt, under)

    def _stmt_mutations(
        self,
        stmt: ast.AST,
        under: bool,
    ) -> Iterable[Tuple[str, bool]]:
        """Statement-level walk tracking whether ``self._lock`` is held."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(stmt, ast.With):
            inside = under or any(
                self._is_self_lock(item.context_expr) for item in stmt.items
            )
            for child in stmt.body:
                yield from self._stmt_mutations(child, inside)
            return
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            attr = _self_target_attr(target)
            if attr is not None:
                yield attr, under
        # Compound statements (if/for/while/try): their nested blocks run
        # under the same lock state as the statement itself.
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(stmt, field, []):
                if isinstance(child, ast.ExceptHandler):
                    for inner in child.body:
                        yield from self._stmt_mutations(inner, under)
                else:
                    yield from self._stmt_mutations(child, under)

    # -- nondeterminism -------------------------------------------------- #
    def _check_nondeterminism(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            if isinstance(base, ast.Name) and base.id == "time" and func.attr == "time":
                if "time.time" in self.nondeterminism_allow:
                    continue
                self.report(
                    CHECK_NONDETERMINISM,
                    node,
                    "time.time() in a deterministic module; use an input "
                    "timestamp or move the wall-clock read to the runtime "
                    "layer",
                )
            elif (
                isinstance(base, ast.Name)
                and base.id == "random"
                and func.attr in UNSEEDED_RANDOM_CALLS
            ):
                self.report(
                    CHECK_NONDETERMINISM,
                    node,
                    f"unseeded random.{func.attr}() in a deterministic "
                    "module; construct random.Random(seed) instead",
                )
            elif func.attr == "now" and isinstance(base, (ast.Name, ast.Attribute)):
                name = base.id if isinstance(base, ast.Name) else base.attr
                if name == "datetime":
                    self.report(
                        CHECK_NONDETERMINISM,
                        node,
                        "datetime.now() in a deterministic module",
                    )

    # -- to-dict-order --------------------------------------------------- #
    def _check_to_dict_order(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in ("to_dict", "snapshot"):
                continue
            for ret in ast.walk(node):
                if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Dict):
                    self._check_dict_literal(node.name, ret.value)

    def _check_dict_literal(self, method: str, literal: ast.Dict) -> None:
        seen: Set[str] = set()
        for key in literal.keys:
            if key is None:
                self.report(
                    CHECK_TO_DICT_ORDER,
                    literal,
                    f"{method}() uses a '**' spread in its returned dict; "
                    "schema keys must be spelled out so their order is "
                    "pinned",
                )
                continue
            if not isinstance(key, ast.Constant) or not isinstance(key.value, str):
                self.report(
                    CHECK_TO_DICT_ORDER,
                    key,
                    f"{method}() returns a dict with a computed key; "
                    "serialized schemas must use constant string keys",
                )
                continue
            if key.value in seen:
                self.report(
                    CHECK_TO_DICT_ORDER,
                    key,
                    f"{method}() repeats key {key.value!r}",
                )
            seen.add(key.value)

    # -- silent-except --------------------------------------------------- #
    def _check_silent_except(self) -> None:
        broad = ("Exception", "BaseException", "OSError")
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not all(isinstance(stmt, ast.Pass) for stmt in node.body):
                continue
            names: List[str] = []
            handler_type = node.type
            types = (
                handler_type.elts
                if isinstance(handler_type, ast.Tuple)
                else [handler_type]
            )
            for item in types:
                if isinstance(item, ast.Name):
                    names.append(item.id)
                elif isinstance(item, ast.Attribute):
                    names.append(item.attr)
            if handler_type is None or any(name in broad for name in names):
                label = ", ".join(names) or "everything"
                self.report(
                    CHECK_SILENT_EXCEPT,
                    node,
                    f"except-and-pass over {label} swallows failures "
                    "invisibly; handle, count, or narrow the exception",
                )


class Linter:
    """AST linter enforcing the repo invariants listed in the module doc.

    Parameters
    ----------
    config_fields:
        All :class:`FuserConfig` dataclass field names (parsed from
        ``config.py`` by :meth:`for_package`).
    key_fields:
        Field names returned by ``cache_key_fields()``.
    allowlist:
        Plan-neutral fields exempt from the drift check.

    Example
    -------
    >>> linter = Linter(config_fields={"top_k"}, key_fields=set())
    >>> bad = "def f(config):\\n    return config.top_k\\n"
    >>> [v.check for v in linter.lint_source(bad, "x.py", key_drift=True)]
    ['cache-key-drift']
    """

    def __init__(
        self,
        config_fields: Optional[Set[str]] = None,
        key_fields: Optional[Set[str]] = None,
        allowlist: frozenset = PLAN_NEUTRAL_CONFIG_FIELDS,
    ) -> None:
        self.config_fields = set(config_fields or ())
        self.key_fields = set(key_fields or ())
        self.allowlist = allowlist

    # -- construction ---------------------------------------------------- #
    @classmethod
    def for_package(cls, package_root) -> "Linter":
        """Build a linter keyed to a ``repro`` package tree's config.py."""
        config_fields, key_fields = parse_config_fields(
            Path(package_root) / "config.py"
        )
        return cls(config_fields=config_fields, key_fields=key_fields)

    # -- entry points ---------------------------------------------------- #
    def lint_source(
        self,
        source: str,
        path: str = "<synthetic>",
        *,
        deterministic: bool = False,
        key_drift: bool = False,
        checks: Optional[Sequence[str]] = None,
        nondeterminism_allow: frozenset = frozenset(),
    ) -> List[LintViolation]:
        """Lint one source string.

        ``deterministic`` and ``key_drift`` opt the snippet into the
        path-scoped checks; the structural checks (lock discipline,
        to_dict order, silent except) always run unless ``checks``
        restricts them explicitly.  ``nondeterminism_allow`` names
        sanctioned nondeterministic calls (e.g. ``"time.time"``) that the
        nondeterminism check skips for this file — see
        :data:`NONDETERMINISM_ALLOWLIST`.
        """
        if checks is None:
            selected = [
                CHECK_LOCK_DISCIPLINE,
                CHECK_TO_DICT_ORDER,
                CHECK_SILENT_EXCEPT,
            ]
            if deterministic:
                selected.append(CHECK_NONDETERMINISM)
            if key_drift:
                selected.append(CHECK_KEY_DRIFT)
        else:
            selected = list(checks)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                LintViolation(
                    check="syntax",
                    path=path,
                    line=exc.lineno or 0,
                    message=str(exc),
                )
            ]
        checker = _FileChecker(
            path=path,
            source=source,
            tree=tree,
            checks=selected,
            config_fields=self.config_fields,
            key_fields=self.key_fields,
            allowlist=self.allowlist,
            nondeterminism_allow=nondeterminism_allow,
        )
        return checker.run()

    def lint_file(self, path, package_root=None) -> List[LintViolation]:
        """Lint one file, deriving its check set from its package path."""
        path = Path(path)
        rel = (
            path.relative_to(package_root).as_posix()
            if package_root is not None
            else path.name
        )
        return self.lint_source(
            path.read_text(encoding="utf-8"),
            path=str(path),
            deterministic=rel.startswith(DETERMINISTIC_PREFIXES),
            key_drift=rel.startswith(KEY_DRIFT_PREFIXES),
            nondeterminism_allow=NONDETERMINISM_ALLOWLIST.get(rel, frozenset()),
        )

    def lint_tree(self, package_root) -> List[LintViolation]:
        """Lint every module under a ``repro`` package tree.

        Beyond the per-file checks this runs the tree-wide
        ``plan-neutral-fields`` and ``metric-names`` checks
        (:func:`check_metric_names`).
        """
        package_root = Path(package_root)
        violations: List[LintViolation] = []
        for path in sorted(package_root.rglob("*.py")):
            violations.extend(self.lint_file(path, package_root=package_root))
        if self.config_fields:
            violations.extend(
                LintViolation(
                    CHECK_PLAN_NEUTRAL_FIELDS,
                    str(package_root / "config.py"),
                    1,
                    f"PLAN_NEUTRAL_CONFIG_FIELDS exempts {name!r}, which is "
                    "not a FuserConfig field; drop the stale exemption",
                )
                for name in sorted(self.allowlist - self.config_fields)
            )
        violations.extend(check_metric_names(package_root))
        return violations


def _metric_sites(tree: ast.AST) -> Iterable[Tuple[str, int]]:
    """``(name, line)`` of every ``.counter/.gauge/.histogram("repro_*")``."""
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in METRIC_FACTORIES
        ):
            continue
        for argument in node.args[:1]:
            if (
                isinstance(argument, ast.Constant)
                and isinstance(argument.value, str)
                and argument.value.startswith("repro_")
            ):
                yield argument.value, node.lineno


def check_metric_names(package_root) -> List[LintViolation]:
    """The ``metric-names`` check over one package tree.

    The catalog is ``docs/OBSERVABILITY.md`` of the repository holding
    the tree (``<package_root>/../../docs``, the ``src/repro`` layout):
    its table rows whose first cell is a backticked ``repro_*`` name.  A
    missing catalog lists nothing, so every recorded metric is flagged.

    Parameters
    ----------
    package_root:
        The ``repro`` package directory whose modules are scanned.
    """
    package_root = Path(package_root)
    sites: Dict[str, List[Tuple[str, int]]] = {}
    for path in sorted(package_root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # reported by the per-file checks
        allowed = _allowed_lines(source)
        for name, line in _metric_sites(tree):
            if CHECK_METRIC_NAMES not in allowed.get(line, ()):
                sites.setdefault(name, []).append((str(path), line))
    catalog_path = package_root.parent.parent / "docs" / "OBSERVABILITY.md"
    catalog: Dict[str, int] = {}
    if catalog_path.is_file():
        lines = catalog_path.read_text(encoding="utf-8").splitlines()
        for number, text in enumerate(lines, start=1):
            match = _CATALOG_ROW.match(text)
            if match:
                catalog.setdefault(match.group(1), number)
    violations: List[LintViolation] = []

    def flag(path, line: int, message: str) -> None:
        violations.append(LintViolation(CHECK_METRIC_NAMES, str(path), line, message))

    for name in sorted(sites):
        (first_path, first_line), *others = sites[name]
        for path, line in others:
            flag(
                path,
                line,
                f"metric {name!r} is also recorded at {first_path}:{first_line}; "
                "every metric has exactly one recording site",
            )
        if name not in catalog:
            flag(
                first_path,
                first_line,
                f"metric {name!r} is missing from the catalog in {catalog_path.name}",
            )
    for name in sorted(set(catalog) - set(sites)):
        flag(catalog_path, catalog[name], f"metric {name!r} has no recording site")
    return violations


def parse_config_fields(config_path) -> Tuple[Set[str], Set[str]]:
    """Extract FuserConfig's field names and its declared key fields.

    Parses ``config.py`` without importing it: the dataclass's annotated
    assignments give the field set, and the dict literal returned by
    ``cache_key_fields`` gives the canonical key-field set the drift check
    compares reads against.

    Parameters
    ----------
    config_path:
        Path to ``src/repro/config.py`` (or a synthetic equivalent).
    """
    tree = ast.parse(Path(config_path).read_text(encoding="utf-8"))
    config_fields: Set[str] = set()
    key_fields: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.name != "FuserConfig":
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                config_fields.add(item.target.id)
            if isinstance(item, ast.FunctionDef) and item.name == "cache_key_fields":
                for ret in ast.walk(item):
                    if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Dict):
                        for key in ret.value.keys:
                            if isinstance(key, ast.Constant) and isinstance(
                                key.value, str
                            ):
                                key_fields.add(key.value)
    return config_fields, key_fields


def run_repo_lint(package_root=None) -> List[LintViolation]:
    """Lint the installed ``repro`` package tree.

    The tree is located from the package's own ``__file__`` so the check
    is independent of the working directory; CI runs it via
    ``python -m repro.analysis lint``.

    Parameters
    ----------
    package_root:
        Override the package directory (used by tests to lint synthetic
        trees laid out like ``repro``).

    Example
    -------
    ::

        from repro.analysis import run_repo_lint

        assert run_repo_lint() == []   # the repo holds its own invariants
    """
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).parent
    package_root = Path(package_root)
    return Linter.for_package(package_root).lint_tree(package_root)
