"""Injectable time source, so that tests can drive expiry with their own clock."""

from __future__ import annotations

import time


def system_clock() -> float:
    return time.monotonic()
