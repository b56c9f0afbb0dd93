"""Feasibility theory: Theorem 2.1, Theorem 4.1 certificates, classification.

This module is the *analysis* side of the paper (no agents involved):

* :func:`elect_prediction` — Theorem 3.1's criterion: ELECT elects iff
  ``gcd(|C_1|,…,|C_k|) = 1`` over the Definition 2.1 classes.
* :func:`translation_certificates` — for Cayley graphs, one certificate per
  regular subgroup ``R ≤ Aut(G)``: the size ``d`` of the black-preserving
  stabilizer ``{γ ∈ R : γ(B) = B}``.  Because translations act freely, all
  translation classes of ``R`` share that size ``d``, so the gcd of
  Theorem 4.1 is just ``d``.  Any certificate with ``d > 1`` proves
  impossibility via the paper's Theorem 4.1 proof: the *natural labeling* of
  the corresponding presentation has label-equivalence classes of size
  ``d > 1``, and Theorem 2.1 applies.
* :func:`classify` — three-valued ground truth used by the experiment
  harness: POSSIBLE (constructive: ELECT succeeds), IMPOSSIBLE (a
  label-symmetric certificate exists), or UNKNOWN (the paper's open
  problem 1 territory, e.g. some non-Cayley vertex-transitive instances).

The Theorem 2.1 pipeline is independently checkable on *concrete labeled*
networks with :func:`theorem21_certificate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from ..errors import RecognitionError
from ..graphs.automorphisms import (
    automorphism_group,
    color_preserving_automorphisms,
    label_equivalence_classes,
)
from ..graphs.cayley import CayleyGraph
from ..graphs.network import AnonymousNetwork
from ..graphs.recognition import color_preserving_translations
from ..graphs.views import symmetricity_of_labeling
from ..perf import cache as _perf_cache
from ..groups.permgroup import find_regular_subgroups, orbits_of
from ..groups.symmetric import Permutation
from .ordering import ClassStructure, compute_class_structure
from .placement import Placement
from .reduce_phases import Schedule, build_schedule


@dataclass(frozen=True)
class ElectPrediction:
    """What Theorem 3.1 predicts for generic ELECT on ``(G, p)``."""

    structure: ClassStructure
    schedule: Schedule

    @property
    def succeeds(self) -> bool:
        return self.schedule.succeeds

    @property
    def gcd(self) -> int:
        return self.structure.gcd


def elect_prediction(
    network: AnonymousNetwork, placement: Placement
) -> ElectPrediction:
    """Classes, schedule and success prediction for generic ELECT."""
    structure = compute_class_structure(network, placement.bicoloring(network))
    schedule = build_schedule(structure.sizes, structure.num_agent_classes)
    return ElectPrediction(structure=structure, schedule=schedule)


@dataclass(frozen=True)
class TranslationCertificate:
    """One regular subgroup's verdict on a Cayley instance.

    ``stabilizer_size`` is ``d = |{γ ∈ R : γ(B) = B}|``; the translation
    classes of ``R`` (orbits of that stabilizer) all have size ``d``.
    ``d > 1`` certifies impossibility (Theorem 4.1 → Theorem 2.1).
    """

    subgroup: Tuple[Permutation, ...]
    stabilizer_size: int
    classes: Tuple[Tuple[int, ...], ...]

    @property
    def proves_impossible(self) -> bool:
        return self.stabilizer_size > 1


def regular_subgroups_of(network: AnonymousNetwork) -> List[Tuple[Permutation, ...]]:
    """Regular subgroups of the uncolored automorphism group, memoized.

    :func:`translation_certificates` reads every subgroup, and callers ask
    for the certificates of one network under many placements; the
    subgroup search runs once per network.
    """
    cached = _perf_cache.memo(
        network,
        "regular_subgroups",
        None,
        lambda: tuple(
            tuple(sub)
            for sub in find_regular_subgroups(
                color_preserving_automorphisms(network), network.num_nodes
            )
        ),
    )
    return [tuple(sub) for sub in cached]


def _has_regular_subgroup(network: AnonymousNetwork) -> bool:
    """Whether ``Aut(G)`` has a regular subgroup (Sabidussi: G is Cayley).

    An intransitive group has none, which the chain's orbits show without
    enumerating anything.
    """
    if not automorphism_group(network).is_transitive():
        return False
    autos = color_preserving_automorphisms(network)
    return bool(find_regular_subgroups(autos, network.num_nodes, limit=1))


def translation_certificates(
    network: AnonymousNetwork,
    placement: Placement,
    automorphisms: Optional[Sequence[Permutation]] = None,
) -> List[TranslationCertificate]:
    """All regular-subgroup certificates of a Cayley instance.

    Raises :class:`RecognitionError` if the network has no regular subgroup
    (i.e. is not a Cayley graph).
    """
    if automorphisms is None:
        subgroups = regular_subgroups_of(network)
    else:
        subgroups = find_regular_subgroups(automorphisms, network.num_nodes)
    if not subgroups:
        raise RecognitionError("network is not a Cayley graph")
    bicolor = placement.bicoloring(network)
    certificates: List[TranslationCertificate] = []
    for subgroup in subgroups:
        preserving = color_preserving_translations(subgroup, bicolor)
        classes = orbits_of(preserving, network.num_nodes)
        certificates.append(
            TranslationCertificate(
                subgroup=tuple(subgroup),
                stabilizer_size=len(preserving),
                classes=tuple(tuple(c) for c in classes),
            )
        )
    return certificates


def cayley_election_possible(
    network: AnonymousNetwork,
    placement: Placement,
    automorphisms: Optional[Sequence[Permutation]] = None,
) -> bool:
    """Theorem 4.1 feasibility: no regular subgroup certifies impossibility.

    Note the quantification: a single subgroup with a nontrivial
    black-preserving stabilizer suffices for impossibility.  (The paper
    states the criterion for "the" translation classes; enumerating all
    regular subgroups closes the gap when a graph is a Cayley graph of
    several non-conjugate groups — see DESIGN.md.)
    """
    return all(
        not cert.proves_impossible
        for cert in translation_certificates(network, placement, automorphisms)
    )


class Feasibility(Enum):
    """Ground-truth classification of an election instance."""

    POSSIBLE = "possible"
    IMPOSSIBLE = "impossible"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Classification:
    """Feasibility verdict with its supporting evidence."""

    verdict: Feasibility
    reason: str
    elect: ElectPrediction


def classify(network: AnonymousNetwork, placement: Placement) -> Classification:
    """Three-valued feasibility of ``(G, p)`` in the qualitative model.

    * ELECT's gcd condition holding is a *constructive* possibility proof.
    * A color-preserving automorphism whose cyclic group acts freely yields
      a symmetric labeling (the generalized Theorem 4.1 construction —
      :mod:`repro.graphs.symmetric_labelings`) and hence a Theorem 2.1
      impossibility proof.  The search for one is exact.
    * Otherwise a Cayley graph is POSSIBLE by Theorem 4.1's feasibility
      side: a regular subgroup whose black-preserving stabilizer were
      nontrivial would contain a translation, which acts freely — so with
      no free automorphism every translation certificate is trivial, and
      only the existence of a regular subgroup is asked.
    * Otherwise the instance lands in the paper's open problem: UNKNOWN
      (e.g. the Petersen instance of Figure 5, where a bespoke protocol is
      known — our harness upgrades such instances to POSSIBLE explicitly).
    """
    from ..graphs.symmetric_labelings import find_free_automorphism

    prediction = elect_prediction(network, placement)
    if prediction.succeeds:
        return Classification(
            verdict=Feasibility.POSSIBLE,
            reason="gcd of equivalence classes is 1; ELECT elects (Thm 3.1)",
            elect=prediction,
        )
    if find_free_automorphism(network, placement.bicoloring(network)) is not None:
        return Classification(
            verdict=Feasibility.IMPOSSIBLE,
            reason=(
                "a color-preserving automorphism acts freely: its orbit "
                "labeling has symmetric label classes (Thm 2.1 via the "
                "generalized Thm 4.1 construction)"
            ),
            elect=prediction,
        )
    if _has_regular_subgroup(network):
        return Classification(
            verdict=Feasibility.POSSIBLE,
            reason=(
                "Cayley graph with all translation certificates trivial "
                "(Thm 4.1 feasibility side)"
            ),
            elect=prediction,
        )
    return Classification(
        verdict=Feasibility.UNKNOWN,
        reason=(
            "gcd > 1, no free automorphism, non-Cayley: outside both the "
            "ELECT sufficiency and the symmetric-labeling impossibility "
            "criteria (open problem 1)"
        ),
        elect=prediction,
    )


# ----------------------------------------------------------------------
# Theorem 2.1 machinery on concrete labeled networks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryCertificate:
    """Evidence that a *concrete labeling* makes election impossible.

    ``label_class_size > 1`` triggers Theorem 2.1.  ``symmetricity`` is
    σ_ℓ(G) of the same labeling; Equation (1) guarantees
    ``symmetricity >= label_class_size``.
    """

    label_class_size: int
    label_classes: Tuple[Tuple[int, ...], ...]
    symmetricity: int

    @property
    def proves_impossible(self) -> bool:
        return self.label_class_size > 1


def theorem21_certificate(
    network: AnonymousNetwork, placement: Placement
) -> SymmetryCertificate:
    """Evaluate Theorem 2.1's condition on a concretely-labeled instance."""
    bicolor = placement.bicoloring(network)
    classes = label_equivalence_classes(network, bicolor)
    sizes = {len(c) for c in classes}
    if len(sizes) != 1:
        raise RecognitionError(
            f"label-equivalence classes of unequal sizes {sorted(sizes)}; "
            "contradicts Lemma 2.1"
        )
    return SymmetryCertificate(
        label_class_size=sizes.pop(),
        label_classes=tuple(tuple(c) for c in classes),
        symmetricity=symmetricity_of_labeling(network, bicolor),
    )


def natural_labeling_certificate(
    cayley: CayleyGraph, placement: Placement
) -> SymmetryCertificate:
    """Theorem 4.1's construction, checked concretely.

    The natural labeling ``ℓ_x({x, x·s}) = s`` of ``Cay(Γ, S)`` has
    label-equivalence classes equal to the translation classes, all of size
    ``d`` — the gcd of the translation-class sizes.  This function evaluates
    the label classes of the natural labeling directly; the tests compare
    the result against the group-theoretic stabilizer size.
    """
    return theorem21_certificate(cayley.network, placement)


def gcd_of_sizes(sizes: Sequence[int]) -> int:
    """Convenience: gcd of a non-empty size vector."""
    if not sizes:
        raise ValueError("empty size vector")
    return math.gcd(*sizes) if len(sizes) > 1 else sizes[0]
