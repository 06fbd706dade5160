"""The VegaPlus optimizer facade.

Given a specification, a backend database (via the middleware) and a plan
comparator, the optimizer enumerates candidate plans, encodes them (without
executing them) using EXPLAIN-style estimates, optionally derives one
vector per anticipated interaction, and selects the plan the comparator
predicts to be fastest for the whole session.

The optimizer itself is stateless per decision; *when* it decides — once
up front, or repeatedly as runtime feedback arrives — is the job of the
plan policies in :mod:`repro.core.policy`, which call back into
:meth:`VegaPlusOptimizer.encode_candidates` with the session's live
signal values and accumulated cardinality feedback.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.comparators import HeuristicComparator, PlanComparator
from repro.core.consolidation import SessionDecision, consolidate_session
from repro.core.encoder import PlanEncoder, PlanVector, normalize_cardinalities
from repro.core.enumerator import PlanEnumerator
from repro.core.plan import ExecutionPlan
from repro.errors import OptimizationError
from repro.net.middleware import MiddlewareServer
from repro.rewrite.rewriter import RewrittenDataflow, SpecRewriter
from repro.storage.statistics import CardinalityFeedback
from repro.vega.spec import VegaSpec, parse_spec_dict


@dataclass
class OptimizationResult:
    """Outcome of plan selection."""

    plan: ExecutionPlan
    candidate_plans: list[ExecutionPlan] = field(default_factory=list)
    decision: SessionDecision | None = None
    vectors: list[PlanVector] = field(default_factory=list)

    @property
    def n_candidates(self) -> int:
        """Number of plans that were considered."""
        return len(self.candidate_plans)


class VegaPlusOptimizer:
    """Enumerates, encodes and ranks execution plans for one specification.

    Parameters
    ----------
    spec:
        The Vega specification (a raw ``dict`` or a parsed
        :class:`~repro.vega.spec.VegaSpec`).
    middleware:
        The middleware server (or per-user
        :class:`~repro.server.session.ClientSession`) wrapping the
        backend database.
    comparator:
        A plan comparator; defaults to the training-free
        :class:`~repro.core.comparators.HeuristicComparator`.
    feedback:
        Optional :class:`~repro.storage.statistics.CardinalityFeedback`
        store of observed result cardinalities; when given, candidate
        encodings blend EXPLAIN-style estimates with live observations.
    """

    def __init__(
        self,
        spec: VegaSpec | dict,
        middleware: MiddlewareServer,
        comparator: PlanComparator | None = None,
        feedback: CardinalityFeedback | None = None,
    ) -> None:
        self.spec = parse_spec_dict(spec) if isinstance(spec, dict) else spec
        self.middleware = middleware
        self.comparator = comparator or HeuristicComparator()
        self.feedback = feedback
        self.enumerator = PlanEnumerator(self.spec)
        self.rewriter = SpecRewriter(self.spec, middleware)
        self.encoder = PlanEncoder(middleware.database, feedback=feedback)

    # ------------------------------------------------------------------ #
    def enumerate_plans(self) -> list[ExecutionPlan]:
        """All valid candidate plans."""
        return self.enumerator.enumerate()

    def build(self, plan: ExecutionPlan) -> RewrittenDataflow:
        """Materialise the dataflow implementing ``plan`` (not yet executed)."""
        return self.rewriter.build(plan.as_dict())

    def encode_candidates(
        self,
        plans: Sequence[ExecutionPlan],
        anticipated_interactions: Sequence[Mapping[str, object]] | None = None,
        signal_values: Mapping[str, object] | None = None,
        normalize: bool | None = None,
    ) -> tuple[list[list[PlanVector]], list[RewrittenDataflow]]:
        """Encode every candidate, optionally once per anticipated interaction.

        Returns ``(episode_vectors, rewritten)`` where
        ``episode_vectors[e][p]`` is plan ``p``'s vector for episode ``e``
        (episode 0 = initial rendering) and ``rewritten[p]`` is the built
        dataflow for plan ``p``.

        ``signal_values`` overrides the spec-default signal state of the
        built dataflows before encoding — mid-session replans estimate
        under the signal values the session has actually reached, not the
        ones it started from.

        ``normalize`` controls whether cardinalities are log-normalised;
        the default follows the configured comparator's
        ``wants_normalized`` flag (learned models train on normalised
        features, rule-based models reason about raw row counts).
        """
        if not plans:
            raise OptimizationError("no candidate plans to encode")
        if normalize is None:
            normalize = self.comparator.wants_normalized
        scale = normalize_cardinalities if normalize else list
        rewritten = [self.build(plan) for plan in plans]
        if signal_values:
            for built in rewritten:
                built.dataflow.set_signal_values(dict(signal_values))
        # Interactions are anticipated, not applied: every episode is
        # estimated under the same signal values, so one pass per plan.
        estimates = [self.encoder.estimate_cardinalities(r) for r in rewritten]
        initial = [
            self.encoder.encode_estimated(r, plan.plan_id, episode=0, estimates=e)
            for plan, r, e in zip(plans, rewritten, estimates)
        ]
        episodes: list[list[PlanVector]] = [scale(initial)]

        for episode_index, interaction in enumerate(anticipated_interactions or [], start=1):
            # Each vector covers only the operators the interaction re-runs.
            changed = set(interaction)
            episode_vectors = [
                self.encoder.encode_estimated(
                    built,
                    plan.plan_id,
                    episode=episode_index,
                    operator_ids=built.dataflow._stale_operators(changed),
                    estimates=e,
                )
                for plan, built, e in zip(plans, rewritten, estimates)
            ]
            episodes.append(scale(episode_vectors))
        return episodes, rewritten

    def choose_plan(
        self,
        anticipated_interactions: Sequence[Mapping[str, object]] | None = None,
        episode_weights: Sequence[float] | None = None,
    ) -> OptimizationResult:
        """Select the best plan for the (anticipated) session."""
        plans = self.enumerate_plans()
        if len(plans) == 1:
            return OptimizationResult(plan=plans[0], candidate_plans=plans)
        episodes, _rewritten = self.encode_candidates(plans, anticipated_interactions)
        decision = consolidate_session(self.comparator, episodes, episode_weights)
        best = plans[decision.best_plan_index]
        return OptimizationResult(
            plan=best,
            candidate_plans=plans,
            decision=decision,
            vectors=episodes[0],
        )
