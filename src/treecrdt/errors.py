"""Exceptions raised by set, tree, and harness operations."""


class TreeCrdtError(Exception):
    """Base class for all library errors."""


class PreconditionViolation(TreeCrdtError):
    """A generator-side precondition does not hold on the local lookup."""


class KindMismatch(TreeCrdtError):
    """Two states (or a state and an op) disagree on set kind or flavor."""


class SeveralBlowup(TreeCrdtError):
    """The all-paths mapping exceeded the configured instance cap."""

    def __init__(self, cap: int):
        super().__init__(f"all-paths mapping exceeded the instance cap of {cap}")
        self.cap = cap


class WalkBlowup(TreeCrdtError):
    """A scenario has more delivered sets than the convergence walk may visit."""


class InvalidInterval(TreeCrdtError):
    """A position or sequence interval is empty or reversed."""


class IllegalCombo(TreeCrdtError):
    """The requested representation/kind/flavor/policy combination is not legal."""


class ScenarioError(TreeCrdtError):
    """A scenario file could not be parsed; the message names the line."""
