"""Exception types shared across the package."""


class GridCodesError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GridCodesError):
    """Invalid input: out-of-grid point, malformed spec, undefined quantity."""


class BudgetError(GridCodesError):
    """An exhaustive computation would exceed the configured enumeration budget."""


def check_budget(work: int, budget: int, what: str) -> None:
    """The one budget gate: raise BudgetError when ``work`` exceeds ``budget``.

    ``what`` describes the work, with ``{}`` standing for its amount.
    """
    if work > budget:
        raise BudgetError(f"{what.format(work)}, budget is {budget}")
