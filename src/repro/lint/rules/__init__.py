"""Rule registry: one place that knows every rule ID."""

from .base import Finding, Rule
from .determinism import NondeterministicDurablePath
from .durability import WalBeforeApply
from .hygiene import MutableDefaultArgument, ProductionAssert, \
    SwallowedException
from .invariants import CompressionEncapsulation, EntryLifetimeMutation
from .locks import BlockingUnderLock, UnguardedStateMutation
from .resources import ExceptionPathResourceLeak

#: Every rule, in ID order.  Instantiated once; rules are stateless.
ALL_RULES: tuple[Rule, ...] = (
    BlockingUnderLock(),
    UnguardedStateMutation(),
    WalBeforeApply(),
    EntryLifetimeMutation(),
    CompressionEncapsulation(),
    NondeterministicDurablePath(),
    SwallowedException(),
    MutableDefaultArgument(),
    ProductionAssert(),
    ExceptionPathResourceLeak(),
)

RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}

__all__ = ["ALL_RULES", "RULES_BY_ID", "Finding", "Rule"]
