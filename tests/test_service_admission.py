"""The admission gateway: structured rejection before planning.

Every rejection carries a distinct stable code, and — the invariant
these tests pin — a structurally rejected query (unknown table, ACL,
quota, parse error) never constructs a planner at all, while a
semantically rejected one never yields a retained plan.
"""

import pytest

from repro import StreamEngine
from repro.core.errors import ERROR_CODES, SqlError
from repro.nexmark import paper_bid_stream
from repro.service import admission as admission_module
from repro.service import (
    AdmissionError,
    AdmissionGateway,
    StandingQueryService,
    TenantPolicy,
)

WINDOWED = (
    "SELECT TB.wend, MAX(TB.price) maxPrice "
    "FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), "
    "dur => INTERVAL '10' MINUTES) TB GROUP BY TB.wend"
)


@pytest.fixture
def gateway(engine):
    return AdmissionGateway(engine._catalog, engine._registry)


def reject_code(gateway, tenant, sql, **kwargs):
    with pytest.raises(AdmissionError) as exc_info:
        gateway.admit(tenant, sql, **kwargs)
    return exc_info.value


class TestRejectionCodes:
    def test_parse_error(self, gateway):
        err = reject_code(gateway, "t", "SELEC broken FROM")
        assert err.code == "parse_error"

    def test_unknown_table(self, gateway):
        err = reject_code(gateway, "t", "SELECT * FROM Nope")
        assert err.code == "unknown_table"
        assert "nope" in err.detail

    def test_unknown_table_inside_join(self, gateway):
        err = reject_code(
            gateway, "t", "SELECT * FROM Bid b JOIN Missing m ON b.price = m.x"
        )
        assert err.code == "unknown_table"

    def test_unknown_column(self, gateway):
        err = reject_code(gateway, "t", "SELECT nosuch FROM Bid")
        assert err.code == "unknown_column"

    def test_type_mismatch(self, gateway):
        err = reject_code(gateway, "t", "SELECT price + item FROM Bid")
        assert err.code == "type_mismatch"

    def test_acl_denied(self, gateway):
        gateway.set_policy(
            TenantPolicy(name="restricted", allowed_tables=frozenset())
        )
        err = reject_code(gateway, "restricted", "SELECT * FROM Bid")
        assert err.code == "acl_denied"
        assert "bid" in err.detail

    def test_unprovisioned_tenant(self, engine):
        gateway = AdmissionGateway(
            engine._catalog, engine._registry, default_policy=None
        )
        err = reject_code(gateway, "stranger", "SELECT * FROM Bid")
        assert err.code == "acl_denied"
        assert "not provisioned" in err.detail

    def test_quota_queries(self, gateway):
        gateway.set_policy(TenantPolicy(name="t", max_standing_queries=2))
        err = reject_code(gateway, "t", "SELECT * FROM Bid", active_queries=2)
        assert err.code == "quota_queries"

    def test_quota_state(self, gateway):
        gateway.set_policy(TenantPolicy(name="t", max_state_rows=100))
        err = reject_code(gateway, "t", "SELECT * FROM Bid", state_rows=100)
        assert err.code == "quota_state"

    def test_admitted_query_returns_plan(self, gateway):
        plan = gateway.admit("t", WINDOWED)
        assert plan.schema.column_names() == ["wend", "maxPrice"]
        assert gateway.plans_built == 1

    def test_as_dict_is_the_wire_shape(self, gateway):
        err = reject_code(gateway, "alice", "SELECT * FROM Nope")
        payload = err.as_dict()
        assert payload["code"] == "unknown_table"
        assert payload["tenant"] == "alice"
        assert "nope" in payload["detail"]

    def test_unknown_code_is_a_programming_error(self):
        with pytest.raises(ValueError):
            AdmissionError("not_a_code", "t", "detail")

    def test_reject_codes_are_the_admission_stages_of_the_one_table(self):
        assert set(admission_module.REJECT_CODES) == {
            code for code, stage in ERROR_CODES.items()
            if stage in ("parse", "validate", "admit")
        }
        assert admission_module.REJECT_CODES[0] == "auth_denied"


#: One query per raise site that names a narrower code than its class.
#: The last two answered ``invalid_query`` while the code was read off
#: the message: their wording missed the matched phrases.
SEMANTIC_REJECTS = [
    ("SELECT nosuch FROM Bid", "unknown_column"),
    ("SELECT x.price FROM Bid b", "unknown_column"),
    ("SELECT price FROM Bid a, Bid b", "unknown_column"),
    ("SELECT x.* FROM Bid b", "unknown_column"),
    ("SELECT -item FROM Bid", "type_mismatch"),
    ("SELECT * FROM Bid WHERE price AND price > 1", "type_mismatch"),
    ("SELECT * FROM Bid WHERE item > 1", "type_mismatch"),
    ("SELECT * FROM Bid WHERE price LIKE 'x'", "type_mismatch"),
    ("SELECT item - 1 FROM Bid", "type_mismatch"),
    ("SELECT item * 2 FROM Bid", "type_mismatch"),
    ("SELECT CASE WHEN price THEN 1 END FROM Bid", "type_mismatch"),
    ("SELECT CAST(price AS BLOB) FROM Bid", "type_mismatch"),
    ("SELECT b.nosuch FROM Bid b", "unknown_column"),
    ("SELECT * FROM Bid WHERE NOT price", "type_mismatch"),
]


class TestCodesComeFromTheRaiseSite:
    @pytest.mark.parametrize("sql, code", SEMANTIC_REJECTS)
    def test_each_site_answers_its_code(self, gateway, sql, code):
        assert reject_code(gateway, "t", sql).code == code

    @pytest.mark.parametrize("sql, code", SEMANTIC_REJECTS)
    def test_a_reworded_message_keeps_its_code(
        self, gateway, monkeypatch, sql, code
    ):
        """Rewording every SQL error leaves each code as it was."""
        init = SqlError.__init__

        def reworded(self, message, *args, **kwargs):
            init(self, f"refused: {message[::-1]}", *args, **kwargs)

        monkeypatch.setattr(SqlError, "__init__", reworded)
        err = reject_code(gateway, "t", sql)
        assert err.detail.startswith("refused: ")
        assert err.code == code

    def test_other_errors_answer_invalid_query(self, gateway):
        err = reject_code(
            gateway, "t", "SELECT * FROM Bid GROUP BY price"
        )
        assert err.code == "invalid_query"


class TestNeverReachesThePlanner:
    """Structural rejections must not even construct a Planner."""

    @pytest.fixture
    def tripwire(self, monkeypatch):
        def explode(*args, **kwargs):  # pragma: no cover — must not run
            raise AssertionError("Planner constructed for a rejected query")

        monkeypatch.setattr(admission_module, "Planner", explode)

    def test_parse_error_skips_planner(self, gateway, tripwire):
        assert reject_code(gateway, "t", "SELEC").code == "parse_error"

    def test_unknown_table_skips_planner(self, gateway, tripwire):
        assert reject_code(gateway, "t", "SELECT * FROM Nope").code == (
            "unknown_table"
        )

    def test_acl_skips_planner(self, gateway, tripwire):
        gateway.set_policy(
            TenantPolicy(name="r", allowed_tables=frozenset({"other"}))
        )
        assert reject_code(gateway, "r", "SELECT * FROM Bid").code == (
            "acl_denied"
        )

    def test_quota_skips_planner(self, gateway, tripwire):
        gateway.set_policy(TenantPolicy(name="t", max_standing_queries=0))
        assert reject_code(gateway, "t", "SELECT * FROM Bid").code == (
            "quota_queries"
        )

    def test_plans_built_untouched_by_any_rejection(self, gateway):
        gateway.set_policy(
            TenantPolicy(name="locked", allowed_tables=frozenset())
        )
        for tenant, sql in [
            ("t", "SELEC"),
            ("t", "SELECT * FROM Nope"),
            ("locked", "SELECT * FROM Bid"),
            ("t", "SELECT nosuch FROM Bid"),
            ("t", "SELECT price + item FROM Bid"),
        ]:
            with pytest.raises(AdmissionError):
                gateway.admit(tenant, sql)
        assert gateway.plans_built == 0


class TestTenantPolicy:
    def test_allowed_tables_are_case_insensitive(self):
        policy = TenantPolicy(name="t", allowed_tables=frozenset({"BID"}))
        assert policy.may_read("bid")
        assert policy.may_read("Bid")
        assert not policy.may_read("auction")

    def test_none_means_unrestricted(self):
        assert TenantPolicy(name="t").may_read("anything")

    def test_from_dict(self):
        policy = TenantPolicy.from_dict(
            {
                "name": "alice",
                "allowed_tables": ["Bid"],
                "max_standing_queries": 3,
            }
        )
        assert policy.name == "alice"
        assert policy.may_read("bid") and not policy.may_read("x")
        assert policy.max_standing_queries == 3
        assert policy.max_state_rows == 100_000

    def test_negative_quota_rejected(self):
        with pytest.raises(ValueError):
            TenantPolicy(name="t", max_standing_queries=-1)


class TestServiceFrontDoor:
    """The composed service records rejects and enforces usage quotas."""

    @pytest.fixture
    def service(self, bid_stream):
        svc = StandingQueryService()
        svc.register_stream("Bid", bid_stream)
        return svc

    def test_rejects_are_counted_by_code(self, service):
        for sql in ["SELEC", "SELECT * FROM Nope", "SELECT nosuch FROM Bid"]:
            with pytest.raises(AdmissionError):
                service.submit("t", sql)
        assert service.metrics.rejects["parse_error"] == 1
        assert service.metrics.rejects["unknown_table"] == 1
        assert service.metrics.rejects["unknown_column"] == 1
        assert service.metrics.rejected_total == 3
        assert service.metrics.admitted == 0

    def test_query_quota_enforced_through_usage(self, service):
        service.gateway.set_policy(
            TenantPolicy(name="small", max_standing_queries=1)
        )
        service.submit("small", WINDOWED)
        with pytest.raises(AdmissionError) as exc_info:
            service.submit("small", WINDOWED)
        assert exc_info.value.code == "quota_queries"
        # another tenant is unaffected
        service.submit("other", WINDOWED)
        assert service.metrics.admitted == 2

    def test_views_expand_for_acl_checks(self, service):
        service.engine.register_view("Best", WINDOWED)
        service.gateway.set_policy(
            TenantPolicy(name="narrow", allowed_tables=frozenset({"best"}))
        )
        # the view itself is allowed, but its underlying table is not
        with pytest.raises(AdmissionError) as exc_info:
            service.submit("narrow", "SELECT * FROM Best")
        assert exc_info.value.code == "acl_denied"
