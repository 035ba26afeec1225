"""The model stand-in: a per-claim reply router and injected latency.

A single ScriptedProvider holding the whole dataset's script scans every entry
on every call, so its cost grows with the dataset and it would dominate the
measurement. The router here finds the claim's routing token in the request
and hands the request to a ScriptedProvider that holds only that claim's
replies: reply selection is still the program's own code, and a call costs
O(one claim's script).
"""

from __future__ import annotations

import json
import re
import time
from collections import defaultdict
from pathlib import Path

from leap.backend import ScriptedProvider, ScriptEntry
from leap.errors import UnmatchedFixtureError

from scenario import TOKEN_PATTERN

_TOKEN_RE = re.compile(TOKEN_PATTERN)


def load_claim_scripts(path: Path) -> dict[str, list[ScriptEntry]]:
    """Script entries grouped by their claim routing token, in file order."""
    scripts: dict[str, list[ScriptEntry]] = defaultdict(list)
    with path.open(encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            entry = ScriptEntry.from_dict(json.loads(line), line=i)
            scripts[entry.claim_key].append(entry)
    return dict(scripts)


class ClaimRouter:
    """Chat provider that routes each request to its claim's own scripted provider.

    Prompts render the claim under processing before any retrieved exemplar,
    so the first routing token in the request text names the right claim.
    """

    def __init__(self, scripts: dict[str, list[ScriptEntry]]):
        self._providers = {token: ScriptedProvider(entries) for token, entries in scripts.items()}

    def complete(self, request) -> str:
        match = _TOKEN_RE.search(request.text())
        provider = self._providers.get(match.group(0)) if match else None
        if provider is None:
            raise UnmatchedFixtureError("request carries no known claim routing token")
        return provider.complete(request)


class Delayed:
    """Proxy that sleeps a fixed time after every method call, standing in for a remote model.

    ``on_wait(start, end)`` is told about each sleep, so a traced run can
    record it as waiting rather than as work.
    """

    def __init__(self, inner, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s
        self.on_wait = None

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name.startswith("_") or not callable(attr):
            return attr

        def delayed(*args, **kwargs):
            result = attr(*args, **kwargs)
            start = time.perf_counter()
            time.sleep(self._delay_s)
            if self.on_wait is not None:
                self.on_wait(start, time.perf_counter())
            return result

        return delayed
