"""The admission gateway: reject bad or unauthorized SQL before planning.

A standing-query service is only as robust as its front door.  Every
submitted query passes four gates, cheapest first, and a rejection at
any gate carries a machine-readable :class:`AdmissionError` with a
stable ``code`` — the structured contract clients and the smoke tests
key on:

1. **parse** — the SQL must lex and parse (``code="parse_error"``).
2. **structure** — every referenced relation must exist in the catalog
   (``unknown_table``) and be readable by the tenant's ACL
   (``acl_denied``).  These checks walk the raw AST
   (:func:`~repro.plan.planner.referenced_tables`), so no planner, no
   scopes, and no type derivation ever run for a query that names a
   table it should not see.
3. **quota** — the tenant must have headroom: standing queries below
   ``max_standing_queries`` and resident state rows below
   ``max_state_rows`` (``quota_queries`` / ``quota_state``).
4. **semantics** — names and types must validate.  This gate reuses the
   engine's own validator (invoked through the planner machinery — one
   type system, not two); a failure answers the code the error was
   raised with (``unknown_column``, ``type_mismatch``, ...; any code the
   wire does not answer becomes ``invalid_query``) and the partial plan
   is discarded, so nothing semantically wrong is ever registered,
   executed, or retained.

Only a query that clears all four gates yields a
:class:`~repro.plan.planner.QueryPlan`, built exactly once.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from typing import Optional

from ..core.errors import ERROR_CODES, ReproError, SqlError
from ..plan.planner import Catalog, Planner, QueryPlan, referenced_tables
from ..sql.functions import FunctionRegistry, default_registry
from ..sql.parser import parse

__all__ = ["AdmissionError", "TenantPolicy", "AdmissionGateway"]


#: Stable rejection codes, in gate order: the codes of the stages
#: admission runs.  ``auth_denied`` fires before every other gate: a
#: connection that cannot prove its tenant identity never reaches parse.
REJECT_CODES = tuple(
    code for code, stage in ERROR_CODES.items()
    if stage in ("admit", "parse", "validate")
)


class AdmissionError(ReproError):
    """A query was rejected before planning, with a structured reason.

    ``code`` is one of :data:`REJECT_CODES`; ``tenant`` names who asked;
    ``detail`` is the human-readable diagnostic.  :meth:`as_dict` is the
    wire shape the service protocol returns, for every rejection.
    """

    code = "invalid_query"

    def __init__(self, code: str, tenant: str, detail: str):
        if code not in REJECT_CODES:
            raise ValueError(f"unknown admission code {code!r}")
        super().__init__(f"[{code}] tenant {tenant!r}: {detail}", code=code)
        self.tenant = tenant
        self.detail = detail

    @classmethod
    def of(cls, exc: Exception, tenant: str) -> "AdmissionError":
        """``exc`` as a rejection: the code it was raised with where the
        wire answers that code, else ``invalid_query``."""
        code = getattr(exc, "code", None)
        return cls(code if code in REJECT_CODES else "invalid_query", tenant, str(exc))

    def as_dict(self) -> dict:
        return {"code": self.code, "tenant": self.tenant, "detail": self.detail}


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant access control and resource quotas.

    * ``allowed_tables`` — relations the tenant may reference, checked
      against every base table and view (and the views' underlying
      tables) a query names.  ``None`` means unrestricted.
    * ``max_standing_queries`` — resident queries the tenant may hold.
    * ``max_state_rows`` — total operator-state rows across the
      tenant's resident queries; admission of new queries stops once
      the tenant's state footprint reaches the cap.
    * ``token`` — shared-secret the tenant must present to
      authenticate a connection.  The moment *any* provisioned policy
      carries a token the whole gateway runs in authenticated mode:
      unauthenticated submissions are ``auth_denied`` instead of
      silently falling back to the default policy, which closes the
      tenant-spoofing hole of trusting the request's ``tenant`` field.
    """

    name: str
    allowed_tables: Optional[frozenset[str]] = None
    max_standing_queries: int = 8
    max_state_rows: int = 100_000
    token: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_standing_queries < 0:
            raise ValueError("max_standing_queries must be >= 0")
        if self.max_state_rows < 0:
            raise ValueError("max_state_rows must be >= 0")
        if self.allowed_tables is not None:
            object.__setattr__(
                self,
                "allowed_tables",
                frozenset(name.lower() for name in self.allowed_tables),
            )

    def may_read(self, table: str) -> bool:
        return self.allowed_tables is None or table.lower() in self.allowed_tables

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantPolicy":
        """Build a policy from the JSON shape ``--policy`` files use."""
        allowed = payload.get("allowed_tables")
        return cls(
            name=payload["name"],
            allowed_tables=None if allowed is None else frozenset(allowed),
            max_standing_queries=payload.get("max_standing_queries", 8),
            max_state_rows=payload.get("max_state_rows", 100_000),
            token=payload.get("token"),
        )


@dataclass
class AdmissionGateway:
    """The four-gate front door over one catalog.

    ``policies`` maps tenant name → :class:`TenantPolicy`; unknown
    tenants fall back to ``default_policy`` (set it to ``None`` to make
    unknown tenants an ``acl_denied`` rejection outright).
    ``plans_built`` counts successful plan constructions — rejected
    queries never increment it, the invariant the admission tests pin.
    """

    catalog: Catalog
    registry: FunctionRegistry = field(default_factory=default_registry)
    policies: dict[str, TenantPolicy] = field(default_factory=dict)
    default_policy: Optional[TenantPolicy] = field(
        default_factory=lambda: TenantPolicy(name="*")
    )
    plans_built: int = 0

    def set_policy(self, policy: TenantPolicy) -> None:
        self.policies[policy.name] = policy

    @property
    def tokens_configured(self) -> bool:
        """Whether any provisioned policy carries a shared-secret token.

        One token flips the whole gateway into authenticated mode —
        mixed deployments where some tenants authenticate and others
        are trusted on their say-so would leave the spoofing hole open.
        """
        return any(p.token is not None for p in self.policies.values())

    def authenticate(self, tenant: str, token: Optional[str]) -> TenantPolicy:
        """Check a tenant's shared secret; raise ``auth_denied`` on mismatch.

        Comparison is constant-time (:func:`hmac.compare_digest`).  A
        tenant without a token in an authenticated deployment cannot
        log in at all — absence of a secret is not a blank password.
        """
        policy = self.policy_for(tenant)
        if policy.token is None:
            raise AdmissionError(
                "auth_denied",
                tenant,
                f"tenant {tenant!r} has no token configured",
            )
        if not hmac.compare_digest(policy.token, token or ""):
            raise AdmissionError("auth_denied", tenant, "invalid token")
        return policy

    def policy_for(self, tenant: str) -> TenantPolicy:
        policy = self.policies.get(tenant, self.default_policy)
        if policy is None:
            raise AdmissionError(
                "acl_denied", tenant, "tenant is not provisioned"
            )
        return policy

    def admit(
        self,
        tenant: str,
        sql: str,
        *,
        active_queries: int = 0,
        state_rows: int = 0,
    ) -> QueryPlan:
        """Run all gates; return the plan or raise :class:`AdmissionError`.

        ``active_queries`` and ``state_rows`` are the tenant's current
        resource usage, supplied by the session manager.
        """
        policy = self.policy_for(tenant)
        # gate 1: parse
        try:
            statement = parse(sql)
        except SqlError as exc:
            raise AdmissionError.of(exc, tenant) from exc
        # gate 2: structure — existence and ACL, straight off the AST
        for table in sorted(referenced_tables(statement, self.catalog)):
            if table.startswith("$values"):
                continue
            if (
                self.catalog.lookup(table) is None
                and self.catalog.lookup_view(table) is None
            ):
                raise AdmissionError(
                    "unknown_table",
                    tenant,
                    f"relation {table!r} is not registered",
                )
            if not policy.may_read(table):
                raise AdmissionError(
                    "acl_denied",
                    tenant,
                    f"policy for {tenant!r} does not allow reading {table!r}",
                )
        # gate 3: quotas
        if active_queries >= policy.max_standing_queries:
            raise AdmissionError(
                "quota_queries",
                tenant,
                f"tenant already holds {active_queries} standing queries "
                f"(max {policy.max_standing_queries})",
            )
        if state_rows >= policy.max_state_rows:
            raise AdmissionError(
                "quota_state",
                tenant,
                f"tenant state footprint {state_rows} rows is at the cap "
                f"({policy.max_state_rows})",
            )
        # gate 4: semantics — the engine's own validator, one type system
        try:
            plan = Planner(self.catalog, self.registry).plan(statement, sql=sql)
        except ReproError as exc:
            raise AdmissionError.of(exc, tenant) from exc
        self.plans_built += 1
        return plan
