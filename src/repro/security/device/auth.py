"""Delegated authentication (paper §IV-A.1).

The paper's design, directly: a delegation proxy (gateway-resident,
with "more computation power and memory resources than the IoT
devices") that

1. caches SSO tokens from the cloud provider,
2. performs SSO authentication and timestamp validation, and
3. processes raw data for low-privileged users;

plus the LAN/WAN split: "the proxy authenticates the LAN requests while
the cloud service authenticates the WAN request combining both SSO and
MFA mechanisms.  The XLF Core determines the lifetime of the
authentication tokens based on the correlation results."
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.plugin import SecurityFunction, register
from repro.core.signals import Layer, SecuritySignal, Severity, SignalType
from repro.core.window import SlidingWindow
from repro.service.identity import IdentityManager, UserRole
from repro.service.oauth import OAuthServer, Scope, Token
from repro.sim import Simulator


@dataclass
class AuthDecision:
    """Outcome of one authentication attempt."""

    granted: bool
    reason: str
    token: Optional[Token] = None
    authenticated_by: str = ""      # "proxy" | "cloud"
    latency_s: float = 0.0          # simulated request latency incurred


class DelegationProxy:
    """The gateway-resident authentication delegate."""

    # Representative request latencies: the LAN round trip to the proxy
    # vs. the WAN round trip to the cloud.
    LAN_LATENCY_S = 0.004
    WAN_LATENCY_S = 0.080
    MAX_TIMESTAMP_SKEW_S = 30.0
    FAILURE_WINDOW_S = 60.0
    FAILURE_THRESHOLD = 3

    def __init__(self, sim: Simulator, identity: IdentityManager,
                 oauth: OAuthServer,
                 report: Optional[Callable[[SecuritySignal], None]] = None,
                 lan_token_lifetime_s: float = 1800.0,
                 wan_token_lifetime_s: float = 600.0):
        self.sim = sim
        self.identity = identity
        self.oauth = oauth
        self._report = report or (lambda signal: None)
        self.lan_token_lifetime_s = lan_token_lifetime_s
        self.wan_token_lifetime_s = wan_token_lifetime_s
        # SSO token cache: (user, device) -> token value
        self._sso_cache: Dict[Tuple[str, str], str] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cloud_auth_requests = 0
        self.proxy_auth_requests = 0
        self._recent_failures: Dict[str, SlidingWindow] = \
            defaultdict(partial(SlidingWindow, self.FAILURE_WINDOW_S))
        self.decisions: List[AuthDecision] = []

    # -- public API ------------------------------------------------------------
    def authenticate(self, username: str, password: str, device: str,
                     origin: str, timestamp: Optional[float] = None,
                     mfa_code: Optional[str] = None) -> AuthDecision:
        """Authenticate a user's request to access ``device``.

        ``origin`` is "lan" or "wan"; WAN requests require MFA on top of
        the password (the paper's combined SSO+MFA for WAN).
        """
        if origin not in ("lan", "wan"):
            raise ValueError(f"origin must be lan|wan, got {origin!r}")
        timestamp = self.sim.now if timestamp is None else timestamp
        if abs(timestamp - self.sim.now) > self.MAX_TIMESTAMP_SKEW_S:
            return self._deny(username, device, "stale-timestamp", origin)

        cached = self._cached_token(username, device)
        if cached is not None:
            self.cache_hits += 1
            latency = self.LAN_LATENCY_S if origin == "lan" else self.WAN_LATENCY_S
            decision = AuthDecision(True, "sso-cache", cached, "proxy", latency)
            self.decisions.append(decision)
            return decision
        self.cache_misses += 1

        if origin == "lan":
            return self._authenticate_lan(username, password, device)
        return self._authenticate_wan(username, password, device, mfa_code)

    def _authenticate_lan(self, username: str, password: str,
                          device: str) -> AuthDecision:
        self.proxy_auth_requests += 1
        if not self.identity.verify_password(username, password):
            return self._deny(username, device, "bad-credentials", "lan")
        token = self.oauth.issue(
            username, self._scopes_for(username),
            lifetime_s=self.lan_token_lifetime_s, sso=True,
        )
        self._sso_cache[(username, device)] = token.value
        decision = AuthDecision(True, "proxy-auth", token, "proxy",
                                self.LAN_LATENCY_S)
        self.decisions.append(decision)
        return decision

    def _authenticate_wan(self, username: str, password: str, device: str,
                          mfa_code: Optional[str]) -> AuthDecision:
        self.cloud_auth_requests += 1
        if not self.identity.verify_password(username, password):
            return self._deny(username, device, "bad-credentials", "wan")
        user = self.identity.get(username)
        if user is not None and user.mfa_enrolled:
            if mfa_code is None or not self.identity.verify_mfa(username,
                                                                mfa_code):
                return self._deny(username, device, "mfa-required", "wan")
        token = self.oauth.issue(
            username, self._scopes_for(username),
            lifetime_s=self.wan_token_lifetime_s, sso=True,
            mfa_verified=user.mfa_enrolled if user else False,
        )
        self._sso_cache[(username, device)] = token.value
        decision = AuthDecision(True, "cloud-auth", token, "cloud",
                                self.WAN_LATENCY_S)
        self.decisions.append(decision)
        return decision

    # -- privilege-aware data access (basic users get processed data) --------
    def access_data(self, token_value: str, raw_data: dict) -> Optional[dict]:
        """Barreto-style split: basic users see aggregates, advanced raw."""
        token = self.oauth.introspect(token_value)
        if token is None:
            return None
        user = self.identity.get(token.subject)
        if user is None:
            return None
        if user.role == UserRole.BASIC:
            numeric = [v for v in raw_data.values()
                       if isinstance(v, (int, float))]
            return {
                "summary": {
                    "count": len(raw_data),
                    "mean": sum(numeric) / len(numeric) if numeric else None,
                }
            }
        return dict(raw_data)

    # -- internals -----------------------------------------------------------
    def _cached_token(self, username: str, device: str) -> Optional[Token]:
        value = self._sso_cache.get((username, device))
        if value is None:
            return None
        token = self.oauth.introspect(value)
        if token is None:
            del self._sso_cache[(username, device)]
        return token

    def _scopes_for(self, username: str) -> set:
        user = self.identity.get(username)
        if user is None:
            return {Scope.READ_DEVICES}
        if user.role == UserRole.ADMIN:
            return {Scope.ADMIN}
        if user.role == UserRole.ADVANCED:
            return {Scope.READ_DEVICES, Scope.CONTROL_DEVICES,
                    Scope.PUSH_UPDATES}
        return {Scope.READ_DEVICES}

    def _deny(self, username: str, device: str, reason: str,
              origin: str) -> AuthDecision:
        now = self.sim.now
        failures = self._recent_failures[username]
        failures.push(now)
        self._report(SecuritySignal.make(
            Layer.DEVICE, SignalType.AUTH_FAILURE, "delegation-proxy",
            device, now, severity=Severity.INFO,
            username=username, reason=reason, origin=origin,
        ))
        if len(failures) >= self.FAILURE_THRESHOLD:
            self._report(SecuritySignal.make(
                Layer.DEVICE, SignalType.AUTH_ANOMALY, "delegation-proxy",
                device, now, severity=Severity.WARNING,
                username=username, failures=len(failures),
            ))
        latency = self.LAN_LATENCY_S if origin == "lan" else self.WAN_LATENCY_S
        decision = AuthDecision(False, reason, None,
                                "proxy" if origin == "lan" else "cloud",
                                latency)
        self.decisions.append(decision)
        return decision

    # -- XLF Core hook ----------------------------------------------------------
    def apply_token_lifetime(self, username: str, device: str,
                             expires_at: float) -> bool:
        """Core-driven lifetime adjustment ("the XLF Core determines the
        lifetime of the authentication tokens")."""
        value = self._sso_cache.get((username, device))
        if value is None:
            return False
        return self.oauth.set_lifetime(value, expires_at)


@register
class DelegationProxyFunction(SecurityFunction):
    """Plugin: gateway-resident SSO/MFA delegation (paper §IV-A.1)."""

    layer = Layer.DEVICE
    name = "delegation-proxy"
    order = 20
    accessor = "auth_proxy"

    def attach(self, host) -> None:
        self.instance = DelegationProxy(
            host.sim, host.cloud.identity, host.cloud.oauth,
            host.report_for(self.name))
