"""A clock the tests advance by hand, for deterministic expiry."""


class ManualClock:
    """Clock advanced explicitly by tests; starts at zero."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds
