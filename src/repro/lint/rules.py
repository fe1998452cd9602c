"""The contract rules and their registry.

Every rule receives the whole :class:`~repro.lint.analyzer.Project` — most
work module-locally, but RNG002 (label uniqueness) and SCH001 (schema
fingerprint) are inherently cross-module.  Rules yield
:class:`~repro.lint.findings.Finding` records; suppression and baseline
filtering happen in the runner, so a rule never needs to know about either.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.lint.analyzer import KernelFunction, Project, SourceModule
from repro.lint.findings import Finding
from repro.lint import schema as schema_mod

__all__ = ["Rule", "RULE_REGISTRY", "all_rules", "register"]


class Rule:
    """One contract check.  Subclasses set the class attributes and
    implement :meth:`check`."""

    id: str = ""
    severity: str = "error"
    summary: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (ids must be unique)."""
    if not rule_cls.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule_cls.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    RULE_REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules(only: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate the registered rules (optionally a subset), id-sorted."""
    wanted = set(only) if only is not None else None
    if wanted is not None:
        unknown = wanted - set(RULE_REGISTRY)
        if unknown:
            raise KeyError(f"unknown rule ids: {sorted(unknown)}")
    return [
        rule_cls()
        for rule_id, rule_cls in sorted(RULE_REGISTRY.items())
        if wanted is None or rule_id in wanted
    ]


# --------------------------------------------------------------------- PARSE


@register
class ParseRule(Rule):
    """A file that does not parse cannot be vouched for by any other rule."""

    id = "LNT000"
    severity = "error"
    summary = "source file failed to parse"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if module.parse_error is not None:
                yield Finding(
                    path=module.rel, line=1, column=1, rule=self.id,
                    severity=self.severity,
                    message=f"syntax error: {module.parse_error}",
                )


# -------------------------------------------------------------------- RNG001

#: The one module allowed to construct generators: the RandomStreams home.
_RNG_SANCTUARY = "sim/rng.py"


@register
class RngSourceRule(Rule):
    """All randomness must flow from :class:`repro.sim.rng.RandomStreams`.

    Flags, outside ``sim/rng.py``: any call into ``numpy.random`` (module
    API *or* generator construction — ``default_rng``, ``SeedSequence``,
    legacy ``np.random.<dist>`` draws, ``np.random.seed``), calls to a bare
    ``default_rng`` imported from ``numpy.random``, and any import of the
    stdlib ``random`` module.  Type annotations and ``isinstance`` checks
    against ``np.random.Generator`` are attribute *references*, not calls,
    and are never flagged.
    """

    id = "RNG001"
    severity = "error"
    summary = "RNG constructed or drawn outside RandomStreams"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_parsed():
            if module.rel == _RNG_SANCTUARY or module.rel.endswith(
                "/" + _RNG_SANCTUARY
            ):
                continue
            assert module.tree is not None
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name == "random" or alias.name.startswith(
                            "random."
                        ):
                            yield module.finding(
                                node, self.id, self.severity,
                                "stdlib `random` imported; all draws must "
                                "flow from repro.sim.rng.RandomStreams",
                            )
                elif isinstance(node, ast.ImportFrom):
                    if node.module == "random" and not node.level:
                        yield module.finding(
                            node, self.id, self.severity,
                            "stdlib `random` imported; all draws must flow "
                            "from repro.sim.rng.RandomStreams",
                        )
                elif isinstance(node, ast.Call):
                    name = module.resolve_call(node.func)
                    if name is None:
                        continue
                    if name.startswith("numpy.random.") or name.startswith(
                        "random."
                    ):
                        yield module.finding(
                            node, self.id, self.severity,
                            f"`{name}(...)` bypasses RandomStreams; inject "
                            "a generator derived from the run's master seed "
                            "(repro.sim.rng) instead",
                        )


# -------------------------------------------------------------------- RNG002


@register
class StreamLabelRule(Rule):
    """Fast-mode child-stream labels must be unique per call site.

    Two distinct ``streams.child(name, label)`` (or
    ``child_stream(seq, label)``) call sites sharing one literal label get
    the *same* generator, silently correlating draws that the fast-mode
    statistical-equivalence argument assumes independent.  Non-literal
    labels cannot be checked statically and are surfaced as notes.
    """

    id = "RNG002"
    severity = "error"
    summary = "duplicate child-stream label"

    def check(self, project: Project) -> Iterator[Finding]:
        sites: Dict[Tuple[str, str], List[Tuple[SourceModule, ast.Call]]] = {}
        notes: List[Finding] = []
        for module in project.iter_parsed():
            if module.rel == _RNG_SANCTUARY or module.rel.endswith(
                "/" + _RNG_SANCTUARY
            ):
                continue  # the derivation helper itself takes label params
            assert module.tree is not None
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                key = self._site_key(module, node)
                if key is None:
                    continue
                stream, label = key
                if label is None:
                    notes.append(
                        module.finding(
                            node, self.id, "note",
                            "child-stream label is not a string literal; "
                            "uniqueness cannot be checked statically",
                        )
                    )
                    continue
                sites.setdefault((stream, label), []).append((module, node))
        for (stream, label), occurrences in sorted(sites.items()):
            if len(occurrences) < 2:
                continue
            first_module, first_node = occurrences[0]
            anchor = f"{first_module.rel}:{first_node.lineno}"
            for module, node in occurrences[1:]:
                yield module.finding(
                    node, self.id, self.severity,
                    f"child-stream label ({stream!r}, {label!r}) is already "
                    f"used at {anchor}; each draw site needs its own label "
                    "or the two sites share (and correlate) a stream",
                )
        yield from notes

    @staticmethod
    def _site_key(
        module: SourceModule, node: ast.Call
    ) -> Optional[Tuple[str, Optional[str]]]:
        """(stream, label) of a child-derivation call; None if not one.

        ``label is None`` means the call *is* a derivation site but its
        label is not a string literal.
        """
        func = node.func
        label_node: Optional[ast.expr] = None
        stream = "?"
        if isinstance(func, ast.Attribute) and func.attr == "child":
            if len(node.args) >= 2:
                stream_node, label_node = node.args[0], node.args[1]
                if isinstance(stream_node, ast.Constant) and isinstance(
                    stream_node.value, str
                ):
                    stream = stream_node.value
            else:
                return None
        else:
            name = module.resolve_call(func)
            if name is None or not name.endswith("child_stream"):
                return None
            if len(node.args) >= 2:
                stream = "child_stream"
                label_node = node.args[1]
            else:
                return None
        if isinstance(label_node, ast.Constant) and isinstance(
            label_node.value, str
        ):
            return stream, label_node.value
        return stream, None


# ------------------------------------------------------------ KRN001/KRN002

#: numpy.random.Generator draw methods (order- and count-sensitive).
_DRAW_METHODS = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "gamma", "geometric", "gumbel", "hypergeometric",
        "integers", "laplace", "logistic", "lognormal", "multinomial",
        "multivariate_normal", "negative_binomial", "noncentral_chisquare",
        "normal", "pareto", "permutation", "permuted", "poisson", "power",
        "random", "rayleigh", "shuffle", "standard_cauchy",
        "standard_exponential", "standard_gamma", "standard_normal",
        "triangular", "uniform", "vonmises", "wald", "weibull", "zipf",
    }
)

#: Wall-clock value sources: forbidden anywhere in simulation sources.
_WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Monotonic/CPU timers: allowed only behind the ``repro.obs.clock`` seam
#: (which carries its own scoped suppressions), forbidden raw everywhere
#: else — and forbidden in kernels even through the seam.
_KERNEL_CLOCKS = frozenset(
    {
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
    }
)

#: Observability timing entry points — instrumentation glue that reads the
#: monotonic clock.  Legal anywhere *except* inside ``@kernel`` bodies,
#: where a span bracket would smuggle a timer into the purity perimeter.
_OBS_TIMING_NAMES = frozenset({"repro.obs.span", "repro.obs.tracing"})
_OBS_TIMING_PREFIXES = ("repro.obs.clock.", "repro.obs.trace.")


def _is_constant_test(test: ast.expr) -> bool:
    """Whether a branch test is compile-time constant (feature-flag style)."""
    if isinstance(test, ast.Constant):
        return True
    if isinstance(test, ast.Name) and test.id in ("True", "False"):
        return True  # pre-3.8 AST compatibility spelling
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _is_constant_test(test.operand)
    return False


def _unordered_iter_reason(
    module: SourceModule, iter_node: ast.expr
) -> Optional[str]:
    """Why iterating ``iter_node`` has data-dependent order, if it does."""
    if isinstance(iter_node, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if isinstance(iter_node, (ast.Dict, ast.DictComp)):
        return "a dict literal/comprehension"
    if isinstance(iter_node, ast.Call):
        name = module.resolve_call(iter_node.func)
        if name in ("set", "frozenset"):
            return f"`{name}(...)`"
        func = iter_node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "keys", "values", "items"
        ):
            return f"dict `.{func.attr}()`"
    return None


@register
class KernelBranchedDrawRule(Rule):
    """Kernels must not make RNG draws under data-dependent branches, nor
    iterate unordered containers.

    The number and order of draws a kernel takes from its stream is part of
    the parity contract (macro-stepped runs equal per-frame runs, and the
    golden baselines pin the draw order); a draw gated by simulation state
    desynchronises the stream between two paths the moment the gate differs.
    Set/dict iteration makes emission order depend on hashing/insertion
    history — kernels iterate arrays, lists or ``sorted(...)`` views.
    Deliberate, parity-preserving gates must carry an explicit
    ``# lint: allow[KRN001]`` stating why the draw order is safe.
    """

    id = "KRN001"
    severity = "error"
    summary = "impure draw or unordered iteration in a @kernel body"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_parsed():
            for kernel in module.kernels:
                yield from self._check_kernel(module, kernel)

    def _check_kernel(
        self, module: SourceModule, kernel: KernelFunction
    ) -> Iterator[Finding]:
        findings: List[Finding] = []

        def scan(node: ast.AST, depth: int) -> None:
            for child in ast.iter_child_nodes(node):
                child_depth = depth
                if isinstance(child, (ast.If, ast.While)):
                    child_depth = depth + (
                        0 if _is_constant_test(child.test) else 1
                    )
                elif isinstance(child, ast.IfExp):
                    child_depth = depth + (
                        0 if _is_constant_test(child.test) else 1
                    )
                elif isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and child is not kernel.node:
                    continue  # nested defs are their own (unmarked) scope
                if isinstance(child, ast.Call):
                    func = child.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in _DRAW_METHODS
                        and child_depth > 0
                    ):
                        findings.append(
                            module.finding(
                                child, self.id, self.severity,
                                f"RNG draw `.{func.attr}(...)` under a "
                                "data-dependent branch in kernel "
                                f"`{kernel.qualname}`: the draw count/order "
                                "must not depend on simulation state "
                                "(suppress with a reason if the gate "
                                "keeps the parity draw order)",
                            )
                        )
                if isinstance(child, (ast.For, ast.AsyncFor)):
                    reason = _unordered_iter_reason(module, child.iter)
                    if reason is not None:
                        findings.append(
                            module.finding(
                                child, self.id, self.severity,
                                f"kernel `{kernel.qualname}` iterates "
                                f"{reason}: emission order depends on "
                                "hashing/insertion history; iterate an "
                                "array, list or `sorted(...)` view",
                            )
                        )
                scan(child, child_depth)

        scan(kernel.node, 0)
        yield from findings


@register
class KernelClockRule(Rule):
    """No wall clocks in simulation sources; no timers at all in kernels.

    Wall-clock reads (``time.time``, ``datetime.now``, ...) are
    nondeterministic inputs and are flagged anywhere under the linted tree
    — provenance metadata (e.g. the store's ``saved_unix``) is exempt from
    the determinism contract and carries a scoped suppression instead.
    Monotonic/CPU timers are flagged everywhere too: timing belongs behind
    the :mod:`repro.obs.clock` seam, the tree's single timing sanctuary
    (its own raw reads carry reasoned suppressions).  Inside ``@kernel``
    bodies not even the seam is allowed — span brackets, tracer calls and
    ``repro.obs.clock`` reads are all flagged there, because any timer in a
    kernel body breaks the "simulated time is the only clock" purity
    contract.  Metrics counters (:mod:`repro.obs.metrics`) read no clock
    and stay legal in kernels.
    """

    id = "KRN002"
    severity = "error"
    summary = "wall-clock/timer call in simulation code"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_parsed():
            assert module.tree is not None
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = module.resolve_call(node.func)
                if name is None:
                    continue
                kernel = module.kernel_at(node.lineno)
                if name in _WALL_CLOCK:
                    where = (
                        f"kernel `{kernel.qualname}`"
                        if kernel is not None
                        else "simulation code"
                    )
                    yield module.finding(
                        node, self.id, self.severity,
                        f"wall-clock read `{name}()` in {where}: "
                        "nondeterministic input; simulated time is the only "
                        "clock (suppress with a reason for provenance "
                        "metadata)",
                    )
                elif name in _KERNEL_CLOCKS:
                    if kernel is not None:
                        yield module.finding(
                            node, self.id, self.severity,
                            f"timer `{name}()` inside kernel "
                            f"`{kernel.qualname}`: kernels must not read "
                            "any clock; hoist timing to the caller",
                        )
                    else:
                        yield module.finding(
                            node, self.id, self.severity,
                            f"raw timer `{name}()`: route timing through "
                            "`repro.obs.clock` (the single suppressed "
                            "sanctuary) so tests can virtualise the clock "
                            "in one place",
                        )
                elif kernel is not None and (
                    name in _OBS_TIMING_NAMES
                    or name.startswith(_OBS_TIMING_PREFIXES)
                ):
                    yield module.finding(
                        node, self.id, self.severity,
                        f"observability timing call `{name}(...)` inside "
                        f"kernel `{kernel.qualname}`: spans and clock reads "
                        "are timers and must stay outside kernel bodies "
                        "(metrics counters are fine — they read no clock)",
                    )


# -------------------------------------------------------------------- FLT001

#: Path fragments whose modules form the fault-tolerance perimeter: the
#: executor retry paths, the store-backed executors and the faults
#: subsystem, where a swallowed exception silently loses a point.
_FLT_PATHS = (
    "api/executors.py",
    "store/caching.py",
    "faults/",
)

_BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


def _is_broad_handler(module: SourceModule,
                      handler: ast.ExceptHandler) -> bool:
    """Whether a handler catches ``Exception``/``BaseException`` (or all)."""
    if handler.type is None:
        return True  # bare `except:`
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        name = module.resolve_call(node)
        if name is None:
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
        if name is not None and name.rsplit(".", 1)[-1] in (
            _BROAD_EXCEPTION_NAMES
        ):
            return True
    return False


@register
class FaultSwallowRule(Rule):
    """Broad exception handlers on the fault-tolerance perimeter must
    re-raise or record.

    The retry/degradation contract says every point is *accounted for*: a
    failure either propagates (``raise``), or is recorded somewhere a
    caller can see it (the bound exception passed into a call — a
    ``FailedPoint`` constructor, an error list's ``append``).  A
    broad ``except Exception`` whose handler does neither silently loses
    the point, which is exactly the bug class the fault-injection suite
    exists to catch.  Scoped to the executor retry paths and the faults
    subsystem; narrow handlers (``except KeyError``) are
    out of scope.  Deliberate swallows (e.g. best-effort cleanup) must
    carry an explicit ``# lint: allow[FLT001]`` stating why losing the
    exception is safe.
    """

    id = "FLT001"
    severity = "error"
    summary = "broad except swallows a fault on the retry path"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.iter_parsed():
            if not any(fragment in module.rel for fragment in _FLT_PATHS):
                continue
            assert module.tree is not None
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if not _is_broad_handler(module, node):
                    continue
                if self._handler_accounts(node):
                    continue
                caught = (
                    "bare `except:`" if node.type is None
                    else "broad `except "
                         f"{ast.unparse(node.type)}`"
                )
                yield module.finding(
                    node, self.id, self.severity,
                    f"{caught} neither re-raises nor records the "
                    "exception: on the fault-tolerance perimeter every "
                    "failure must propagate or be passed into a recording "
                    "call, or the point is silently lost",
                )

    @staticmethod
    def _handler_accounts(handler: ast.ExceptHandler) -> bool:
        """Whether the handler re-raises or records the bound exception.

        "Records" means the bound name (``except ... as err``) appears
        somewhere inside a call's arguments — handed to a constructor,
        an ``append``, a ``fail(...)`` — where a caller can observe it.
        Nested function definitions are skipped: a ``raise`` in a closure
        is not executed by the handler.
        """
        bound = handler.name

        def scan(node: ast.AST) -> bool:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                return False
            if isinstance(node, ast.Raise):
                return True
            if bound is not None and isinstance(node, ast.Call):
                for arg in (*node.args, *node.keywords):
                    for name in ast.walk(
                        arg.value if isinstance(arg, ast.keyword) else arg
                    ):
                        if isinstance(name, ast.Name) and name.id == bound:
                            return True
            return any(scan(child) for child in ast.iter_child_nodes(node))

        return any(scan(statement) for statement in handler.body)


# -------------------------------------------------------------------- SCH001


@register
class SchemaFingerprintRule(Rule):
    """Scenario/parameter field changes must bump ``SCHEMA_VERSION``.

    Compares the AST fingerprint of the schema dataclasses against the
    committed ``schema_fingerprint.json``.  Drift while ``SCHEMA_VERSION``
    is unchanged is an error; drift *after* a bump only needs
    ``--update-baseline`` to re-record the pair and is surfaced as a note.
    """

    id = "SCH001"
    severity = "error"
    summary = "schema fields drifted without a SCHEMA_VERSION bump"

    def check(self, project: Project) -> Iterator[Finding]:
        fields = schema_mod.extract_schema_fields(project)
        if fields is None:
            return  # nothing schema-bearing under this root (fixture tree)
        anchor_module = None
        for _, suffix in schema_mod.SCHEMA_CLASSES:
            anchor_module = project.module_ending(suffix)
            if anchor_module is not None:
                break
        assert anchor_module is not None
        current = schema_mod.schema_fingerprint(fields)
        version = schema_mod.extract_schema_version(project)

        if project.fingerprint_path is None:
            return  # fingerprint checking disabled for this run
        recorded = schema_mod.load_recorded_fingerprint(
            project.fingerprint_path
        )
        if recorded is None:
            yield Finding(
                path=anchor_module.rel, line=1, column=1, rule=self.id,
                severity=self.severity,
                message=(
                    "no committed schema fingerprint at "
                    f"{project.fingerprint_path}; run `python -m repro lint "
                    "--update-baseline` to record the current schema"
                ),
            )
            return
        if current == recorded["fingerprint"]:
            if version is not None and version != recorded["schema_version"]:
                yield Finding(
                    path=anchor_module.rel, line=1, column=1, rule=self.id,
                    severity="note",
                    message=(
                        f"SCHEMA_VERSION is {version} but the committed "
                        f"fingerprint was recorded against "
                        f"{recorded['schema_version']}; run "
                        "`--update-baseline` to re-record"
                    ),
                )
            return
        changed = self._describe_drift(fields, recorded)
        if version is not None and version != recorded["schema_version"]:
            yield Finding(
                path=anchor_module.rel, line=1, column=1, rule=self.id,
                severity="note",
                message=(
                    "schema fields changed and SCHEMA_VERSION was bumped "
                    f"({recorded['schema_version']} -> {version}); run "
                    "`python -m repro lint --update-baseline` to re-record "
                    f"the fingerprint ({changed})"
                ),
            )
            return
        yield Finding(
            path=anchor_module.rel, line=1, column=1, rule=self.id,
            severity=self.severity,
            message=(
                f"schema fields changed ({changed}) but SCHEMA_VERSION is "
                f"still {recorded['schema_version']}: cached results would "
                "deserialise against the wrong field set; bump "
                "SCHEMA_VERSION in repro.store.serialization, then run "
                "`--update-baseline`"
            ),
        )

    @staticmethod
    def _describe_drift(
        fields: Dict[str, List[Dict[str, str]]], recorded: Dict[str, object]
    ) -> str:
        """Human-readable summary of which fields were added/removed."""
        recorded_fields = recorded.get("fields")
        if not isinstance(recorded_fields, dict):
            return "field details unavailable"
        pieces: List[str] = []
        for class_name, entries in sorted(fields.items()):
            now = {entry["name"] for entry in entries}
            raw_before = recorded_fields.get(class_name, [])
            before = (
                {str(name) for name in raw_before}
                if isinstance(raw_before, list)
                else set()
            )
            added = sorted(now - before)
            removed = sorted(before - now)
            if added:
                pieces.append(f"{class_name} += {', '.join(added)}")
            if removed:
                pieces.append(f"{class_name} -= {', '.join(removed)}")
        return (
            "; ".join(pieces)
            if pieces
            else "field annotations or defaults changed"
        )
