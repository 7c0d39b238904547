"""Config/CLI drift rules: the knob registry stays fully wired.

``CSPMConfig`` is the single source of truth for run knobs; the CLI
(``mine``) and the perf suite (``bench``) re-expose them as flags.  Two
drift modes have bitten similar projects (see docs/INVARIANTS.md,
family 4): a new config field that is silently unreachable from the
CLI, and a ``to_dict`` default-omission clause whose pinned constant
falls out of sync with the declared field default — which would change
serialised result documents (and the CLI golden file) without any test
noticing until the next full regeneration.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import Finding, LintContext, Rule, register

CONFIG_CLASS = "CSPMConfig"

#: Config field -> CLI flag where the spelling is not the mechanical
#: ``--field-name`` transform.  Keep in sync with ``cli._add_mine``.
FLAG_ALIASES: Dict[str, str] = {
    "coreset_encoder": "--encoder",
    "partial_update_scope": "--scope",
    "top_k": "--top",
}

#: Fields deliberately not exposed as flags, with the reason (shown in
#: the finding when a field is *neither* wired nor exempted).
EXEMPT_FIELDS: Dict[str, str] = {
    "include_model_cost": "ablation knob, set via the API by benchmarks",
    "max_iterations": "safety cap for embedders, API-only by design",
    "construction": "single allowed value 'serial'; kept so that job "
    "documents pinning it keep loading",
    "mask_backend": "single allowed value 'auto'; kept so that job "
    "documents pinning it keep loading",
    "search": "single allowed value 'serial'; kept so that job "
    "documents pinning it keep loading",
    "fault_plan": "API-only: its one consumer, fit_many, has no CLI",
}

#: Functions that mark a module as flag-bearing: the drift check only
#: runs when at least one of them is in view, so linting a lone snippet
#: does not report every field as unwired.
FLAG_FUNCTIONS = ("_add_mine", "add_bench_arguments")


def _config_fields(
    class_def: ast.ClassDef,
) -> List[Tuple[str, ast.AnnAssign]]:
    fields = []
    for item in class_def.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            fields.append((item.target.id, item))
    return fields


def _declared_flags(context: LintContext) -> Set[str]:
    """Every ``--flag`` string passed to an ``add_argument`` call in any
    module in view (all option-string spellings count)."""
    flags: Set[str] = set()
    for module in context.modules:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                for argument in node.args:
                    if isinstance(argument, ast.Constant) and isinstance(
                        argument.value, str
                    ):
                        if argument.value.startswith("--"):
                            flags.add(argument.value)
    return flags


def _has_flag_function(context: LintContext) -> bool:
    return any(
        context.module_with_function(name)[0] is not None
        for name in FLAG_FUNCTIONS
    )


@register
class ConfigFlagDriftRule(Rule):
    """CFG001: every ``CSPMConfig`` field has a CLI flag or an explicit
    exemption.

    The expected flag is ``--<field-with-dashes>`` or the alias in
    :data:`FLAG_ALIASES`; it may be declared by any ``add_argument``
    call in view (``mine`` in ``cli.py`` or ``bench`` in
    ``perf/suite.py``).  Fields in :data:`EXEMPT_FIELDS` are skipped —
    adding a field to the exemption dict is the deliberate opt-out.
    The perf-bounds file points here: a knob added without wiring fails
    this rule before it can silently diverge from the benchmarks.  See
    docs/INVARIANTS.md (family 4).
    """

    id = "CFG001"
    title = "CSPMConfig field without a CLI flag or exemption"

    def check_project(self, context: LintContext) -> Iterable[Finding]:
        module, class_def = context.module_with_class(CONFIG_CLASS)
        if module is None or not _has_flag_function(context):
            return ()
        flags = _declared_flags(context)
        findings: List[Finding] = []
        for name, node in _config_fields(class_def):
            if name in EXEMPT_FIELDS:
                continue
            expected = FLAG_ALIASES.get(name, "--" + name.replace("_", "-"))
            if expected not in flags:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"config field {name!r} has no CLI flag "
                        f"({expected} not declared by mine/bench) and no "
                        f"entry in the exemption list",
                    )
                )
        return findings


@register
class ToDictOmissionDriftRule(Rule):
    """CFG002: ``to_dict`` default-omission constants match the declared
    field defaults.

    ``CSPMConfig.to_dict`` keeps schema-v1 documents byte-stable by
    deleting execution-engine keys when they hold their default.  Each
    ``if document["field"] == CONST: del document["field"]`` clause is
    checked against the dataclass default: a mismatched constant would
    serialise default configs differently (or omit non-default values),
    silently invalidating every golden document.  Unknown field names
    in omission clauses are flagged too.  See docs/INVARIANTS.md
    (family 4).
    """

    id = "CFG002"
    title = "to_dict default-omission constant differs from field default"

    def check_project(self, context: LintContext) -> Iterable[Finding]:
        module, class_def = context.module_with_class(CONFIG_CLASS)
        if module is None:
            return ()
        to_dict = None
        for item in class_def.body:
            if isinstance(item, ast.FunctionDef) and item.name == "to_dict":
                to_dict = item
                break
        if to_dict is None:
            return ()
        defaults: Dict[str, Tuple[bool, object]] = {}
        for name, node in _config_fields(class_def):
            if node.value is not None and isinstance(node.value, ast.Constant):
                defaults[name] = (True, node.value.value)
            else:
                defaults[name] = (False, None)
        findings: List[Finding] = []
        for node in ast.walk(to_dict):
            if not isinstance(node, ast.If):
                continue
            clause = self._omission_clause(node)
            if clause is None:
                continue
            field_name, omitted = clause
            if field_name not in defaults:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"to_dict omission clause references unknown "
                        f"config field {field_name!r}",
                    )
                )
                continue
            has_constant, default = defaults[field_name]
            if not has_constant:
                continue
            if omitted != default or type(omitted) is not type(default):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"to_dict omits {field_name!r} when it equals "
                        f"{omitted!r}, but the declared default is "
                        f"{default!r}; serialised documents would drift",
                    )
                )
        return findings

    @staticmethod
    def _omission_clause(node: ast.If) -> Optional[Tuple[str, object]]:
        """``(field, omitted_value)`` for the shape
        ``if document["f"] <op> CONST: del document["f"]`` where ``<op>``
        is ``==`` or ``is``; None when the If is some other shape."""
        test = node.test
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Eq, ast.Is))
            and isinstance(test.left, ast.Subscript)
            and isinstance(test.left.slice, ast.Constant)
            and isinstance(test.left.slice.value, str)
            and isinstance(test.comparators[0], ast.Constant)
        ):
            return None
        field_name = test.left.slice.value
        deletes_field = any(
            isinstance(statement, ast.Delete)
            and any(
                isinstance(target, ast.Subscript)
                and isinstance(target.slice, ast.Constant)
                and target.slice.value == field_name
                for target in statement.targets
            )
            for statement in node.body
        )
        if not deletes_field:
            return None
        return field_name, test.comparators[0].value
