"""Attack model: the paper's attack areas and attack descriptors.

Figure 2 of the paper lists twelve areas in which attacks by malicious
hosts can be categorized.  The paper further recalls (from Hohl's
Time-Limited Blackbox work) that the list reduces to the "blackbox set"
(areas 2 and 4–7): the remaining areas are either not preventable at all
(9, 12) or become preventable once the blackbox set is prevented.

The reference-states scheme of this paper addresses a specific slice:
attacks that *result in a different agent state* than a reference host
would have produced.  Each :class:`AttackArea` therefore also records
whether attacks in that area are expected to be detectable by reference
state comparison (Sections 2.3, 4.1, 4.2), which the failure-injection
tests assert against the implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Dict, Tuple

__all__ = [
    "AttackArea",
    "Detectability",
    "AttackDescriptor",
    "BLACKBOX_SET",
    "areas_by_detectability",
]


@unique
class Detectability(Enum):
    """Expected detectability of an attack area under reference states."""

    #: Detected whenever the attack changes the resulting agent state.
    STATE_DIFFERENCE = "state-difference"
    #: Outside the scheme: leaves no trace in the agent state.
    NOT_DETECTABLE = "not-detectable"
    #: Detectable only with the extensions of Section 4.3 (signed input,
    #: trusted third party relays / proxies).
    EXTENSION_REQUIRED = "extension-required"
    #: Not addressed by software protection at all (paper Section 2.2).
    NOT_PREVENTABLE = "not-preventable"


@unique
class AttackArea(Enum):
    """The twelve attack areas of the paper's Figure 2."""

    SPYING_OUT_CODE = 1
    SPYING_OUT_DATA = 2
    SPYING_OUT_CONTROL_FLOW = 3
    MANIPULATION_OF_CODE = 4
    MANIPULATION_OF_DATA = 5
    MANIPULATION_OF_CONTROL_FLOW = 6
    INCORRECT_EXECUTION_OF_CODE = 7
    MASQUERADING_OF_THE_HOST = 8
    DENIAL_OF_EXECUTION = 9
    SPYING_OUT_INTERACTION = 10
    MANIPULATION_OF_INTERACTION = 11
    WRONG_SYSTEM_CALL_RESULTS = 12

    @property
    def description(self) -> str:
        """Human-readable description matching the paper's wording."""
        return _DESCRIPTIONS[self]

    @property
    def detectability(self) -> Detectability:
        """Expected detectability under the reference-states scheme."""
        return _DETECTABILITY[self]


_DESCRIPTIONS: Dict[AttackArea, str] = {
    AttackArea.SPYING_OUT_CODE: "spying out code",
    AttackArea.SPYING_OUT_DATA: "spying out data",
    AttackArea.SPYING_OUT_CONTROL_FLOW: "spying out control flow",
    AttackArea.MANIPULATION_OF_CODE: "manipulation of code",
    AttackArea.MANIPULATION_OF_DATA: "manipulation of data",
    AttackArea.MANIPULATION_OF_CONTROL_FLOW: "manipulation of control flow",
    AttackArea.INCORRECT_EXECUTION_OF_CODE: "incorrect execution of code",
    AttackArea.MASQUERADING_OF_THE_HOST: "masquerading of the host",
    AttackArea.DENIAL_OF_EXECUTION: "denial of execution",
    AttackArea.SPYING_OUT_INTERACTION:
        "spying out interaction with other agents",
    AttackArea.MANIPULATION_OF_INTERACTION:
        "manipulation of interaction with other agents",
    AttackArea.WRONG_SYSTEM_CALL_RESULTS:
        "returning wrong results of system calls issued by the agent",
}

_DETECTABILITY: Dict[AttackArea, Detectability] = {
    # Read attacks leave no trace in the agent state (Section 4.2).
    AttackArea.SPYING_OUT_CODE: Detectability.NOT_DETECTABLE,
    AttackArea.SPYING_OUT_DATA: Detectability.NOT_DETECTABLE,
    AttackArea.SPYING_OUT_CONTROL_FLOW: Detectability.NOT_DETECTABLE,
    # Modification / incorrect execution attacks are detected iff they
    # result in a state different from the reference state (Section 2.3).
    AttackArea.MANIPULATION_OF_CODE: Detectability.STATE_DIFFERENCE,
    AttackArea.MANIPULATION_OF_DATA: Detectability.STATE_DIFFERENCE,
    AttackArea.MANIPULATION_OF_CONTROL_FLOW: Detectability.STATE_DIFFERENCE,
    AttackArea.INCORRECT_EXECUTION_OF_CODE: Detectability.STATE_DIFFERENCE,
    # Masquerading is countered by the signature/PKI substrate rather
    # than by reference states; within this library it is detected when
    # the masquerading host cannot produce valid signatures.
    AttackArea.MASQUERADING_OF_THE_HOST: Detectability.EXTENSION_REQUIRED,
    AttackArea.DENIAL_OF_EXECUTION: Detectability.NOT_PREVENTABLE,
    AttackArea.SPYING_OUT_INTERACTION: Detectability.NOT_DETECTABLE,
    # Manipulated interaction is only caught with signed input or a TTP
    # relay (Section 4.3); plain reference states cannot see it.
    AttackArea.MANIPULATION_OF_INTERACTION: Detectability.EXTENSION_REQUIRED,
    AttackArea.WRONG_SYSTEM_CALL_RESULTS: Detectability.NOT_PREVENTABLE,
}

def areas_by_detectability() -> Dict[Detectability, Tuple[AttackArea, ...]]:
    """Figure-2 areas grouped by their expected detectability class.

    The grouping is the row structure of the paper-style detectability
    table (campaign reports render one block per class); areas within a
    class keep their Figure-2 numbering order.
    """
    grouped: Dict[Detectability, Tuple[AttackArea, ...]] = {}
    for detectability in Detectability:
        grouped[detectability] = tuple(
            area for area in AttackArea
            if area.detectability is detectability
        )
    return grouped


#: The reduced attack set of [3]: areas 2 and 4-7.  Preventing these is
#: argued to be sufficient, because the remaining areas are either not
#: preventable or follow from preventing the blackbox set.
BLACKBOX_SET: Tuple[AttackArea, ...] = (
    AttackArea.SPYING_OUT_DATA,
    AttackArea.MANIPULATION_OF_CODE,
    AttackArea.MANIPULATION_OF_DATA,
    AttackArea.MANIPULATION_OF_CONTROL_FLOW,
    AttackArea.INCORRECT_EXECUTION_OF_CODE,
)


@dataclass(frozen=True)
class AttackDescriptor:
    """A concrete attack instance used in scenarios and tests.

    Attributes
    ----------
    name:
        Short identifier of the concrete attack (e.g.
        ``"tamper-best-price"``).
    area:
        The Figure-2 area the attack falls into.
    target_host:
        The name of the malicious host mounting the attack.
    changes_resulting_state:
        Whether this concrete attack changes the agent's resulting
        state.  Together with the area's detectability this determines
        whether the reference-states scheme is *expected* to detect it.
    collaboration:
        Names of other hosts collaborating in the attack (empty for a
        single-host attack).
    notes:
        Free-form description for reports.
    """

    name: str
    area: AttackArea
    target_host: str
    changes_resulting_state: bool
    collaboration: Tuple[str, ...] = ()
    notes: str = ""

    @property
    def expected_detected_by_reference_states(self) -> bool:
        """Whether the paper's scheme should detect this concrete attack.

        An attack is expected to be detected exactly when its area is of
        the ``STATE_DIFFERENCE`` kind *and* the concrete attack indeed
        changes the resulting state *and* it is not a collaboration of
        consecutive hosts (which the example protocol explicitly cannot
        detect).
        """
        if self.area.detectability is not Detectability.STATE_DIFFERENCE:
            return False
        if not self.changes_resulting_state:
            return False
        return True
