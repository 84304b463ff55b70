"""The Top-(K+, K-) background-knowledge bound (Sections 4.3-4.5).

Privacy quantification cannot predict what an adversary knows; it instead
reports a (bound, score) pair.  The paper's bound is the number of strongest
positive and negative association rules assumed known, optionally widened by
a vagueness ``epsilon`` (Section 4.5): with ``epsilon > 0`` every selected
rule becomes an interval statement handled by the inequality extension.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KnowledgeError
from repro.knowledge.mining import RuleSet
from repro.knowledge.rules import AssociationRule
from repro.knowledge.statements import Statement
from repro.utils.validation import check_finite_real, check_non_negative_int


def _dedupe(rules: list[AssociationRule]) -> list[AssociationRule]:
    """Drop rules asserting knowledge about an already-covered (Qv, s) pair.

    A positive and a negative rule on the same antecedent and SA value pin
    down the same probability (``P(s|Qv)`` vs ``1 - P(not s|Qv)``); keeping
    both would add a duplicate constraint row.
    """
    seen: set[tuple[tuple[tuple[str, str], ...], str]] = set()
    kept = []
    for rule in rules:
        key = (tuple(sorted(rule.antecedent.items())), rule.sa_value)
        if key in seen:
            continue
        seen.add(key)
        kept.append(rule)
    return kept


@dataclass(frozen=True)
class TopKBound:
    """Assume the adversary knows the top K+ positive and K- negative rules.

    Parameters
    ----------
    k_positive, k_negative:
        How many rules of each family (by descending confidence) the
        adversary is assumed to hold.  The paper's curves: ``(K, 0)`` is the
        K+ curve, ``(0, K)`` the K- curve, ``(K/2, K/2)`` the mixed curve.
    epsilon:
        Vagueness radius (Section 4.5).  Zero keeps rules as exact equality
        statements; positive values emit interval statements
        ``confidence +- epsilon`` solved with inequality constraints.
    """

    k_positive: int
    k_negative: int
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative_int(self.k_positive, name="k_positive")
        check_non_negative_int(self.k_negative, name="k_negative")
        if check_finite_real(self.epsilon, name="epsilon") < 0:
            raise KnowledgeError(f"epsilon must be >= 0, got {self.epsilon}")

    @property
    def total(self) -> int:
        """Total number of rules assumed known (the paper's x-axis K)."""
        return self.k_positive + self.k_negative

    def select(self, rules: RuleSet) -> list[AssociationRule]:
        """The selected rules: top K+ positive, then top K- negative.

        Mixed selections are deduplicated on (antecedent, SA value); when a
        family has fewer rules than requested, the selection simply takes
        what exists (the bound is an upper bound on the adversary).
        """
        chosen: list[AssociationRule] = []
        chosen.extend(rules.positive[: self.k_positive])
        chosen.extend(rules.negative[: self.k_negative])
        return _dedupe(chosen)

    def statements(self, rules: RuleSet) -> list[Statement]:
        """The selected rules as compiler-ready statements."""
        selected = self.select(rules)
        if self.epsilon == 0.0:
            return [rule.to_statement() for rule in selected]
        return [rule.to_statement().with_vagueness(self.epsilon) for rule in selected]

    def describe(self) -> str:
        """Human-readable bound, e.g. ``Top-(50+, 50-)`` or with epsilon."""
        text = f"Top-({self.k_positive}+, {self.k_negative}-)"
        if self.epsilon:
            text += f" with epsilon={self.epsilon:g}"
        return text
