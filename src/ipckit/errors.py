"""Exception types shared across the package."""


class IpckitError(Exception):
    pass


class DuplicateElement(IpckitError):
    pass


class UnknownElement(IpckitError):
    pass


class CycleDetected(IpckitError):
    """The given pairs force x <= y and y <= x for distinct x, y."""


class BudgetExceeded(IpckitError):
    def __init__(self, message="work budget exceeded"):
        super().__init__(message)


class FormulaSyntaxError(IpckitError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotIntuitionistic(IpckitError):
    pass


class NotAnEPartition(IpckitError):
    pass


class UnknownKey(IpckitError):
    pass


class ParameterOutOfRange(IpckitError):
    pass


class UnknownScenario(IpckitError):
    pass


class SchemaError(IpckitError):
    pass
