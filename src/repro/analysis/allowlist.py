"""The ``.repro-lint.toml`` allowlist: narrow, reviewed suppressions.

Every entry must name the rule(s), the exact file, the enclosing
symbol, and a human reason — a suppression is a reviewed decision, not
an escape hatch. Entries that stop matching anything become RL000
findings themselves (stale-suppression check), so the allowlist can
only shrink as code is fixed, never silently rot.

Format::

    [[allow]]
    rules = ["RL101"]
    path = "src/repro/broker/core.py"
    symbol = "BrokerCore.subscribe"
    reason = "registration is serialized under the registry RLock; ..."
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.findings import Finding

__all__ = [
    "AllowEntry",
    "AllowlistError",
    "apply_allowlist",
    "check_growth",
    "load_allowlist",
]


class AllowlistError(ValueError):
    """Malformed allowlist file (missing keys, empty reason, bad TOML)."""


@dataclass(frozen=True)
class AllowEntry:
    rules: tuple[str, ...]
    path: str
    symbol: str
    reason: str

    def matches(self, finding: Finding) -> bool:
        return (
            finding.rule in self.rules
            and finding.path == self.path
            and (self.symbol == "" or finding.symbol == self.symbol)
        )

    def describe(self) -> str:
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}{sym} {'/'.join(self.rules)}"


def load_allowlist(path: Path) -> list[AllowEntry]:
    try:
        data = tomllib.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise AllowlistError(f"cannot read allowlist {path}: {exc}") from exc
    except tomllib.TOMLDecodeError as exc:
        raise AllowlistError(f"invalid TOML in {path}: {exc}") from exc
    entries: list[AllowEntry] = []
    raw_entries = data.get("allow", [])
    if not isinstance(raw_entries, list):
        raise AllowlistError(f"{path}: [[allow]] must be an array of tables")
    for i, raw in enumerate(raw_entries):
        if not isinstance(raw, dict):
            raise AllowlistError(f"{path}: allow[{i}] is not a table")
        rules = raw.get("rules", raw.get("rule"))
        if isinstance(rules, str):
            rules = [rules]
        if not (
            isinstance(rules, list)
            and rules
            and all(isinstance(r, str) for r in rules)
        ):
            raise AllowlistError(f"{path}: allow[{i}] needs 'rules' (list of ids)")
        file_path = raw.get("path")
        if not isinstance(file_path, str) or not file_path:
            raise AllowlistError(f"{path}: allow[{i}] needs 'path'")
        symbol = raw.get("symbol", "")
        if not isinstance(symbol, str):
            raise AllowlistError(f"{path}: allow[{i}] 'symbol' must be a string")
        reason = raw.get("reason")
        if not isinstance(reason, str) or not reason.strip():
            raise AllowlistError(
                f"{path}: allow[{i}] needs a non-empty 'reason' — a "
                "suppression without a rationale is not reviewable"
            )
        entries.append(
            AllowEntry(
                rules=tuple(rules),
                path=file_path,
                symbol=symbol,
                reason=reason,
            )
        )
    return entries


def check_growth(
    base_entries: list[AllowEntry], head_entries: list[AllowEntry]
) -> tuple[list[AllowEntry], list[str]]:
    """Audit entries added relative to ``base_entries``.

    The allowlist is designed to shrink (stale entries are RL000
    failures); growth is legal but each added suppression must arrive
    with its *own* reviewed ``reason``. Returns ``(added, problems)``:
    the entries new in head, and a human-readable problem per added
    entry whose reason is a verbatim copy of a base entry's reason —
    copy-pasted rationale means the new exception was never argued on
    its own merits.
    """
    base_keys = {(e.rules, e.path, e.symbol) for e in base_entries}
    base_reasons = {e.reason.strip() for e in base_entries}
    added = [
        e
        for e in head_entries
        if (e.rules, e.path, e.symbol) not in base_keys
    ]
    problems = [
        (
            f"{entry.describe()}: reason is a verbatim copy of an "
            "existing entry's — write why *this* suppression is sound"
        )
        for entry in added
        if entry.reason.strip() in base_reasons
    ]
    return added, problems


def apply_allowlist(
    findings: list[Finding], entries: list[AllowEntry]
) -> tuple[list[Finding], list[Finding], list[Finding]]:
    """Split findings into (kept, suppressed) and emit RL000 for stale entries."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    used: set[int] = set()
    for finding in findings:
        hit = next(
            (i for i, e in enumerate(entries) if e.matches(finding)), None
        )
        if hit is None:
            kept.append(finding)
        else:
            used.add(hit)
            suppressed.append(finding)
    stale = [
        Finding(
            path=".repro-lint.toml",
            line=1,
            rule="RL000",
            message=(
                f"allowlist entry {entry.describe()} matches no current "
                "finding; delete it (the code it excused is gone)"
            ),
        )
        for i, entry in enumerate(entries)
        if i not in used
    ]
    return kept, suppressed, stale
