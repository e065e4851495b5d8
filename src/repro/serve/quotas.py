"""Per-tenant resource quotas over the PR 5 attribution machinery.

Every served request runs under a ``request`` record of the query
registry, whose :class:`~repro.obs.resources.ResourceUsage` (CPU
seconds, rows touched, bytes scanned) covers the query nested under it.
The :class:`QuotaLedger` turns that attribution into enforcement: each
tenant carries cumulative usage against an optional
:class:`TenantBudget`, checked *before* admission (an exhausted tenant
must not occupy an execution slot) and charged after execution.

Exhaustion raises :class:`QuotaExceeded` carrying the full budget
report — the HTTP layer answers ``403`` with the report as the body, so
a rejected client sees exactly which axis ran out and by how much
instead of a bare status code.

Budgets are soft-isolated, not preemptive: the request that *crosses*
the line still completes (its usage is only known afterwards), and every
request after it is refused.  Configuration comes from the CLI as
``tenant=cpu_s:rows`` specs parsed by :func:`parse_quota_spec`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from ..obs.resources import ResourceUsage

#: Tenant used when a request carries no ``X-Tenant`` header / field.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantBudget:
    """Budget limits for one tenant; ``None`` means unlimited on that axis."""

    cpu_seconds: Optional[float] = None
    rows_touched: Optional[int] = None


class QuotaExceeded(RuntimeError):
    """A tenant's cumulative usage crossed its budget.

    ``report`` is the JSON-ready budget report (used/limit/remaining per
    axis) served as the 403 response body.
    """

    def __init__(self, tenant: str, report: Dict[str, object]) -> None:
        budget = report.get("budget")
        exhausted = [
            axis
            for axis, entry in (
                budget.items() if isinstance(budget, dict) else ()
            )
            if isinstance(entry, dict) and entry.get("exhausted")
        ]
        super().__init__(
            f"tenant {tenant!r} exhausted budget on: "
            f"{', '.join(exhausted) or 'unknown axis'}"
        )
        self.tenant = tenant
        self.report = report


def parse_quota_spec(spec: str) -> Dict[str, TenantBudget]:
    """Parse one or more ``tenant=cpu_s:rows`` specs (comma separated).

    Either axis may be empty for "unlimited": ``alice=1.5:100000``,
    ``bob=2.0`` (CPU only), ``carol=:50000`` (rows only).
    """
    budgets: Dict[str, TenantBudget] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad quota spec {part!r}: want tenant=cpu_seconds:rows"
            )
        tenant, _, limits = part.partition("=")
        cpu_text, _, rows_text = limits.partition(":")
        try:
            cpu = float(cpu_text) if cpu_text.strip() else None
            rows = int(rows_text) if rows_text.strip() else None
        except ValueError:
            raise ValueError(
                f"bad quota spec {part!r}: non-numeric limit"
            ) from None
        budgets[tenant.strip()] = TenantBudget(
            cpu_seconds=cpu, rows_touched=rows
        )
    return budgets


class QuotaLedger:
    """Thread-safe cumulative usage per tenant, checked against budgets.

    Parameters
    ----------
    budgets:
        Per-tenant budgets.  Tenants absent from the map fall back to
        ``default_budget``; with neither, usage is tracked but never
        enforced (attribution stays useful for billing reports).
    default_budget:
        Budget applied to tenants without an explicit entry.
    """

    def __init__(
        self,
        budgets: Optional[Dict[str, TenantBudget]] = None,
        default_budget: Optional[TenantBudget] = None,
    ) -> None:
        self._budgets = dict(budgets or {})
        self._default = default_budget
        self._lock = threading.Lock()
        self._cpu: Dict[str, float] = {}
        self._rows: Dict[str, int] = {}

    def budget_for(self, tenant: str) -> Optional[TenantBudget]:
        return self._budgets.get(tenant, self._default)

    def charge(self, tenant: str, usage: ResourceUsage) -> None:
        """Fold one finished request's usage into the tenant's total."""
        with self._lock:
            self._cpu[tenant] = (
                self._cpu.get(tenant, 0.0)
                + usage.cpu_seconds
                + usage.worker_cpu_seconds
            )
            self._rows[tenant] = (
                self._rows.get(tenant, 0) + usage.rows_touched
            )

    def check(self, tenant: str) -> None:
        """Raise :class:`QuotaExceeded` when the tenant is out of budget."""
        report = self.report(tenant)
        budget = report.get("budget")
        if isinstance(budget, dict) and any(
            isinstance(entry, dict) and entry.get("exhausted")
            for entry in budget.values()
        ):
            raise QuotaExceeded(tenant, report)

    def report(self, tenant: str) -> Dict[str, object]:
        """JSON-ready used/limit/remaining per axis for one tenant."""
        budget = self.budget_for(tenant)
        with self._lock:
            cpu_used = self._cpu.get(tenant, 0.0)
            rows_used = self._rows.get(tenant, 0)

        def axis(
            used: float, limit: Optional[float]
        ) -> Dict[str, object]:
            entry: Dict[str, object] = {"used": used, "limit": limit}
            if limit is not None:
                entry["remaining"] = max(0.0, limit - used)
                entry["exhausted"] = used >= limit
            else:
                entry["remaining"] = None
                entry["exhausted"] = False
            return entry

        return {
            "tenant": tenant,
            "budget": {
                "cpu_seconds": axis(
                    cpu_used,
                    budget.cpu_seconds if budget is not None else None,
                ),
                "rows_touched": axis(
                    float(rows_used),
                    (
                        float(budget.rows_touched)
                        if budget is not None
                        and budget.rows_touched is not None
                        else None
                    ),
                ),
            },
        }

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Reports for every tenant ever seen or explicitly budgeted."""
        with self._lock:
            tenants = set(self._cpu) | set(self._rows) | set(self._budgets)
        return {tenant: self.report(tenant) for tenant in sorted(tenants)}
