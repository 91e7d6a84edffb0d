"""Exception hierarchy shared across the platform."""


class AdaptsimError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AdaptsimError):
    """A value violates a declared invariant (range, emptiness, shape)."""


class ClockSkewError(AdaptsimError):
    """An operation saw a 'now' earlier than a stored timestamp."""


class LifecycleError(AdaptsimError):
    """Illegal container lifecycle transition."""

    def __init__(self, current, target):
        super().__init__(f"illegal transition {current} -> {target}")
        self.current = current
        self.target = target


class VariantError(AdaptsimError):
    """No component variant is compatible with the requested host tier."""


class ComponentFault(AdaptsimError):
    """A business function raised; carried as the fault cause."""


class BindingError(AdaptsimError):
    """Connector endpoint mismatch: wrong caller or unbound sink."""


class ServiceUnavailable(AdaptsimError):
    """Service not in the host tier's service matrix.

    delegate_hint names the nearest full-tier neighbour able to serve the
    request, when one is reachable.
    """

    def __init__(self, service, delegate_hint=None):
        hint = f" (try {delegate_hint})" if delegate_hint else ""
        super().__init__(f"service {service} unavailable{hint}")
        self.service = service
        self.delegate_hint = delegate_hint


class Unreachable(AdaptsimError):
    """No route of up links to the destination host."""


class ScheduleError(AdaptsimError):
    """Event scheduled in the past."""


class DescriptorError(AdaptsimError):
    """Descriptor file failed to parse or validate."""
