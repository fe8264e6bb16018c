"""Divergence bookkeeping and formatting for the differential verifier.

The differ (:mod:`repro.verify.differ`) pushes every case down the four
computation paths and records two kinds of evidence here:

* **layer samples** — max ULP distance and relative error of one layer's
  activation (or one parameter's gradient) against the float64 autograd
  reference, aggregated into a per-(path, layer, dtype) table;
* **divergences** — path-level comparisons whose relative error exceeded
  the dtype's budget.  An empty divergence list is the verifier's pass
  condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Divergence", "LayerStat", "Report"]


@dataclass(frozen=True)
class Divergence:
    """One path-level disagreement beyond the relative-error budget."""

    case: str  # human-readable case descriptor (index + seed + stack)
    path: str  # "infer-fwd" | "grad-fwd" | "grad-bwd" | "train-*"
    layer: str  # layer/parameter label, or "network" for end-to-end
    dtype: str
    max_rel: float
    max_ulp: float
    budget: float

    def describe(self) -> str:
        return (
            f"{self.path:<11} {self.layer:<24} {self.dtype:<8} "
            f"rel {self.max_rel:.3e} (budget {self.budget:.0e}, "
            f"{self.max_ulp:.0f} ulp) in {self.case}"
        )


@dataclass
class LayerStat:
    """Running max divergence of one (path, layer, dtype) cell."""

    samples: int = 0
    max_ulp: float = 0.0
    max_rel: float = 0.0

    def absorb(self, ulp: float, rel: float) -> None:
        self.samples += 1
        self.max_ulp = max(self.max_ulp, ulp)
        self.max_rel = max(self.max_rel, rel)


@dataclass
class Report:
    """Accumulated result of a verification run."""

    cases: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    layer_stats: dict[tuple[str, str, str], LayerStat] = field(default_factory=dict)

    def record(
        self,
        case: str,
        path: str,
        layer: str,
        dtype: str,
        rel: float,
        ulp: float,
        budget: float | None = None,
    ) -> None:
        """Fold one comparison in; flag it as a divergence if over budget."""
        stat = self.layer_stats.setdefault((path, layer, dtype), LayerStat())
        stat.absorb(ulp, rel)
        if budget is not None and rel > budget:
            self.divergences.append(
                Divergence(
                    case=case,
                    path=path,
                    layer=layer,
                    dtype=dtype,
                    max_rel=rel,
                    max_ulp=ulp,
                    budget=budget,
                )
            )

    @property
    def ok(self) -> bool:
        return self.cases > 0 and not self.divergences

    def format(self) -> str:
        lines = [f"differential verification: {self.cases} case(s)"]
        lines.append("")
        lines.append(
            f"{'path':<11} {'layer':<24} {'dtype':<8} {'samples':>7} "
            f"{'max ulp':>10} {'max rel':>10}"
        )
        for (path, layer, dtype), stat in sorted(self.layer_stats.items()):
            lines.append(
                f"{path:<11} {layer:<24} {dtype:<8} {stat.samples:>7} "
                f"{stat.max_ulp:>10.0f} {stat.max_rel:>10.2e}"
            )
        lines.append("")
        if self.divergences:
            lines.append(f"DIVERGENCES ({len(self.divergences)}):")
            lines.extend("  " + d.describe() for d in self.divergences)
        elif self.cases < 1:
            lines.append("no cases executed")
        else:
            lines.append("all paths agree within budget")
        return "\n".join(lines)
