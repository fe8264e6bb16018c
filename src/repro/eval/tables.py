"""Render harness results as paper-style text tables."""

from __future__ import annotations

__all__ = [
    "format_table2",
    "format_table3",
    "format_table45",
    "format_table6",
    "format_fig4",
]

_ATTACK_LABELS = {"cw-l0": "L0", "cw-l2": "L2", "cw-linf": "Linf"}
_DEFENSE_LABELS = {
    "standard": "DNN",
    "distillation": "Distillation",
    "rc": "RC",
    "dcn": "Our DCN",
}


def _pct(value: float) -> str:
    return f"{100.0 * value:6.2f}%"


def format_table2(rates_by_dataset: dict[str, dict[str, float]]) -> str:
    """Table 2: detector false rates per dataset."""
    lines = ["TABLE 2. FALSE RATE OF DETECTOR", f"{'':12} {'False negative':>15} {'False positive':>15}"]
    for dataset, rates in rates_by_dataset.items():
        lines.append(
            f"{dataset:12} {_pct(rates['false_negative']):>15} {_pct(rates['false_positive']):>15}"
        )
    return "\n".join(lines)


def format_table3(rows_by_dataset: dict[str, dict[str, dict[str, float]]]) -> str:
    """Table 3: benign accuracy and overall runtime per defense."""
    defenses = ("standard", "distillation", "rc", "dcn")
    header = f"{'':14}" + "".join(f"{_DEFENSE_LABELS[d]:>14}" for d in defenses)
    lines = ["TABLE 3. CLASSIFICATION ACCURACY ON BENIGN EXAMPLES", header]
    for dataset, rows in rows_by_dataset.items():
        lines.append(f"{dataset:14}" + "".join(f"{_pct(rows[d]['accuracy']):>14}" for d in defenses))
        lines.append(f"{'  time (s)':14}" + "".join(f"{rows[d]['seconds']:>14.2f}" for d in defenses))
    return "\n".join(lines)


def format_table45(
    rows: dict[str, dict[str, dict[str, float]]], dataset: str, coverage: bool = False
) -> str:
    """Tables 4/5: success rate of evasion attacks per defense.

    With ``coverage=True`` each row gains a column summing the runner's
    per-cell ``(n_ok, n_total)`` work-unit coverage — how much of the
    planned evaluation actually completed (``ok/total`` below 100% means
    some seed-chunks failed and their attempts are excluded from the rates).
    """
    attacks = tuple(
        a for a in ("cw-l0", "cw-l2", "cw-linf") if any(a in cells for cells in rows.values())
    )
    header = (
        f"{'':14}"
        + "".join(f"{'T-' + _ATTACK_LABELS[a]:>10}" for a in attacks)
        + "".join(f"{'U-' + _ATTACK_LABELS[a]:>10}" for a in attacks)
    )
    if coverage:
        header += f"{'coverage':>10}"
    lines = [f"SUCCESSFUL RATE OF EVASION ATTACKS ON {dataset.upper()}", header]
    for defense in ("standard", "distillation", "rc", "dcn"):
        if defense not in rows:
            continue
        cells = rows[defense]
        targeted = "".join(f"{_pct(cells[a]['targeted']):>10}" for a in attacks)
        untargeted = "".join(f"{_pct(cells[a]['untargeted']):>10}" for a in attacks)
        line = f"{_DEFENSE_LABELS[defense]:14}" + targeted + untargeted
        if coverage:
            ok = sum(cells[a].get("coverage", (0, 0))[0] for a in attacks if a in cells)
            total = sum(cells[a].get("coverage", (0, 0))[1] for a in attacks if a in cells)
            line += f"{f'{ok}/{total}':>10}"
        lines.append(line)
    return "\n".join(lines)


def format_table6(rows: list[dict[str, float]], dataset: str) -> str:
    """Table 6: runtime vs adversarial percentage.

    Rows produced by the engine-instrumented harness additionally carry
    ``dcn_forward_examples`` / ``rc_forward_examples`` — host-independent
    measured forward-pass counts — and the paper's model counts
    ``dcn_model_forwards`` (``n + flagged·m``) / ``rc_model_forwards``
    (``n·m``), which get extra columns when present.
    """
    columns = {"dcn_forward_examples": "DCN fwd", "dcn_model_forwards": "n+f·m",
               "rc_forward_examples": "RC fwd", "rc_model_forwards": "n·m"}
    forwards = [k for k in columns if rows and all(k in row for row in rows)]
    header = f"{'% adv':>8} {'DCN (s)':>10} {'RC (s)':>10} {'DCN acc':>9} {'RC acc':>9}"
    header += "".join(f" {columns[k]:>9}" for k in forwards)
    lines = [f"RUNNING TIME VS ADVERSARIAL PERCENTAGE ({dataset})", header]
    for row in rows:
        line = (
            f"{100 * row['fraction']:>7.0f}% {row['dcn_seconds']:>10.2f} {row['rc_seconds']:>10.2f}"
            f" {_pct(row['dcn_accuracy']):>9} {_pct(row['rc_accuracy']):>9}"
        )
        line += "".join(f" {int(row[k]):>9}" for k in forwards)
        lines.append(line)
    return "\n".join(lines)


def format_fig4(rows: list[dict[str, float]], dataset: str) -> str:
    """Fig. 4: corrector accuracy/runtime vs m, with measured forwards per row."""
    with_forwards = bool(rows) and all("forwards_per_row" in row for row in rows)
    header = f"{'m':>6} {'recovery':>10} {'seconds':>10}"
    if with_forwards:
        header += f" {'fwd/row':>9}"
    lines = [f"CORRECTOR ACCURACY AND RUNTIME VS m ({dataset})", header]
    for row in rows:
        line = f"{row['m']:>6} {_pct(row['recovery_accuracy']):>10} {row['seconds']:>10.2f}"
        if with_forwards:
            line += f" {row['forwards_per_row']:>9.1f}"
        lines.append(line)
    return "\n".join(lines)
