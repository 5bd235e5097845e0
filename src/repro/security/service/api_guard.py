"""API guarding: rate limits and abuse signals (paper §IV-C.1).

Sits in front of the cloud's :class:`~repro.service.api.RestApi`:
enforces per-subject rate limits and raises signals on scope-escalation
attempts (403 streaks) and anonymous probing (401 streaks) — the
"validate incoming queries and prevent attacks on endpoints" function.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Callable, Dict, Optional

from repro.core.plugin import SecurityFunction, register
from repro.core.signals import Layer, SecuritySignal, Severity, SignalType
from repro.core.window import SlidingWindow
from repro.network.protocols.http import HttpRequest, HttpResponse
from repro.service.api import RestApi
from repro.sim import Simulator


class ApiGuard:
    """Wraps a RestApi with abuse detection."""

    RATE_WINDOW_S = 10.0
    MAX_REQUESTS_PER_WINDOW = 30
    DENIAL_STREAK = 5

    def __init__(self, sim: Simulator, api: RestApi,
                 report: Optional[Callable[[SecuritySignal], None]] = None):
        self.sim = sim
        self.api = api
        self._report = report or (lambda signal: None)
        self._request_times: Dict[str, SlidingWindow] = \
            defaultdict(partial(SlidingWindow, self.RATE_WINDOW_S))
        self._denial_streaks: Dict[str, int] = defaultdict(int)
        self.rate_limited = 0
        self.abuse_signals = 0

    def _subject_of(self, request: HttpRequest) -> str:
        bearer = request.headers.get("Authorization", "")
        if bearer.startswith("Bearer "):
            token = self.api.oauth.introspect(bearer[len("Bearer "):])
            if token is not None:
                return token.subject
        return request.headers.get("X-Client", "anonymous")

    def handle(self, request: HttpRequest) -> HttpResponse:
        subject = self._subject_of(request)
        now = self.sim.now
        times = self._request_times[subject]
        times.push(now)
        if len(times) > self.MAX_REQUESTS_PER_WINDOW:
            self.rate_limited += 1
            self._signal(subject, "rate-limit")
            return HttpResponse(429, body="rate limited")
        response = self.api.handle(request)
        if response.status in (401, 403):
            self._denial_streaks[subject] += 1
            if self._denial_streaks[subject] >= self.DENIAL_STREAK:
                self._signal(subject, f"denial-streak-{response.status}")
                self._denial_streaks[subject] = 0
        else:
            self._denial_streaks[subject] = 0
        return response

    def _signal(self, subject: str, reason: str) -> None:
        self.abuse_signals += 1
        self._report(SecuritySignal.make(
            Layer.SERVICE, SignalType.API_ABUSE, "api-guard", "",
            self.sim.now, severity=Severity.WARNING,
            subject=subject, reason=reason,
        ))


@register
class ApiGuardFunction(SecurityFunction):
    """Plugin: rate limiting and abuse signals for the cloud API (§IV-C.1)."""

    layer = Layer.SERVICE
    name = "api-guard"
    order = 10
    accessor = "api_guard"

    def attach(self, host) -> None:
        self.instance = ApiGuard(host.sim, host.cloud.api,
                                 host.report_for(self.name))
