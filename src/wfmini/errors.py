"""Exception hierarchy shared across the toolkit."""


class WfMiniError(Exception):
    """Base class for all toolkit errors."""


# --- kernel catalog ---

class UnknownKernel(WfMiniError):
    pass


class DuplicateKernel(WfMiniError):
    pass


class MissingParameter(WfMiniError):
    pass


class InvalidParameter(WfMiniError):
    pass


class CommunicatorRequired(WfMiniError):
    pass


class CollectiveMismatch(WfMiniError):
    pass


class SizeMismatch(WfMiniError):
    pass


class ScratchUnavailable(WfMiniError):
    pass


class ShortRead(WfMiniError):
    pass


class ShortWrite(WfMiniError):
    pass


# --- task runtime ---

class SchemaError(WfMiniError):
    pass


class UnknownParameter(WfMiniError):
    pass


class KernelFailure(WfMiniError):
    pass


# --- workflow engine ---

class UnknownTaskReference(WfMiniError):
    pass


class CycleDetected(WfMiniError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"dependency cycle: {' -> '.join(self.cycle)}")


class InsufficientPool(WfMiniError):
    pass


class TaskFailed(WfMiniError):
    pass


class ShapeMismatch(WfMiniError):
    pass


# --- metrics ---

class EmptyTrace(WfMiniError):
    pass


class LengthMismatch(WfMiniError):
    pass


class ZeroDenominator(WfMiniError):
    pass


class InsufficientSamples(WfMiniError):
    pass


# --- calibration ---

class NonConvergence(WfMiniError):
    def __init__(self, message, residuals=None):
        self.residuals = residuals or {}
        super().__init__(message)


class RunnerFailure(WfMiniError):
    pass


class UnmappedKnob(WfMiniError):
    pass


class InvalidExemplar(WfMiniError):
    pass
