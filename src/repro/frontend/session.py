"""Tenant-aware sessions: the one client surface over every topology.

The paper's service process (§6.7) mediates all demand/prefetch/
write-out traffic but has no notion of *who* is asking.  This module
adds that notion the way CASTOR-style stagers do: every request enters
through a :class:`Client`, belongs to a registered tenant, and is
admitted against that tenant's :class:`TenantBudget` before it may
touch the storage stack.

Three admission mechanisms, in order of severity:

* **token bucket** (``rate_bytes_per_s``/``burst_bytes``) — paces a
  tenant's *data-plane* bytes in virtual time.  Data requests are never
  rejected; the caller sleeps until the bucket can cover the transfer
  (running a bounded debt for requests larger than the burst), so a
  bulk tenant's sustained throughput converges to its configured rate.
* **hard caps** (``max_open_handles``) — exceeding one raises
  :class:`~repro.errors.AdmissionRejected` immediately.
* **queue-depth caps** (``max_queued``) — passed down with each of the
  tenant's droppable background submissions (prefetch) to
  :class:`~repro.sched.TertiaryScheduler`, which rejects one while the
  class queue is as deep as the tenant tolerates; the tenant's
  write-outs — which may never drop data — are drained *on the
  submitting tenant's own actor* until the queue is back under its cap,
  so a flooding batch tenant pays for its own backlog instead of taxing
  everyone else's demand latency.

Handles are plain capabilities: ``Client.open`` returns a
:class:`Handle` bound to one :class:`FileSession`; double close or use
after close raises the typed :class:`~repro.errors.HandleClosed`.
``FileSession``/``SessionTable`` are the only session implementation:
the node and cluster backends expose paths, not descriptors (rule HL015
makes the ``Client`` the sanctioned data-plane entry point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro import obs
from repro.errors import AdmissionRejected, HandleClosed, UnknownTenant
from repro.sched import (CLASS_CLEANER, CLASS_DEMAND, CLASS_PREFETCH,
                         CLASS_WRITEOUT)
from repro.sim.actor import Actor

__all__ = ["Client", "FileSession", "FileStat", "Handle", "SessionTable",
           "Tenant", "TenantBudget", "TokenBucket", "DEFAULT_TENANT",
           "EV_FRONTEND_REQUEST"]

#: Tenant every unattributed request is charged to.
DEFAULT_TENANT = "default"

#: One event per client request (data plane and background control),
#: stamped at completion: tenant, op, nbytes, admission wait, service.
EV_FRONTEND_REQUEST = obs.register_event_type("frontend_request")


# --------------------------------------------------------------------------
# Sessions
# --------------------------------------------------------------------------

@dataclass
class FileSession:
    """One open file handle.

    This is the single session record of the repo: ``Client`` handles
    wrap it on both backends.
    """

    fd: int
    path: str
    #: Name of the actor that opened the handle.
    owner: str = ""
    tenant: str = DEFAULT_TENANT
    closed: bool = False

    def ensure_open(self, op: str = "use") -> None:
        if self.closed:
            raise HandleClosed(
                f"fd {self.fd} ({self.path!r}): {op} after close")


class SessionTable:
    """Allocates and tracks :class:`FileSession` descriptors.

    Descriptors are never reused within a table's lifetime, so a stale
    fd reliably raises :class:`~repro.errors.HandleClosed` instead of
    silently aliasing a newer handle.
    """

    def __init__(self) -> None:
        self._sessions: Dict[int, FileSession] = {}
        self._next_fd = 3

    def open(self, path: str, owner: str = "",
             tenant: str = DEFAULT_TENANT) -> FileSession:
        fd = self._next_fd
        self._next_fd += 1
        sess = FileSession(fd=fd, path=path, owner=owner, tenant=tenant)
        self._sessions[fd] = sess
        return sess

    def get(self, fd: int) -> FileSession:
        """The open session for ``fd``; typed errors on stale/unknown."""
        sess = self._sessions.get(fd)
        if sess is None:
            raise HandleClosed(f"unknown file descriptor {fd}")
        sess.ensure_open()
        return sess

    def close(self, fd: int) -> FileSession:
        sess = self._sessions.get(fd)
        if sess is None:
            raise HandleClosed(f"unknown file descriptor {fd}")
        sess.ensure_open("close")
        sess.closed = True
        del self._sessions[fd]
        return sess

    def open_count(self, tenant: Optional[str] = None) -> int:
        if tenant is None:
            return len(self._sessions)
        return sum(1 for s in self._sessions.values()
                   if s.tenant == tenant)

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, fd: int) -> bool:
        return fd in self._sessions


# --------------------------------------------------------------------------
# Admission
# --------------------------------------------------------------------------

class TokenBucket:
    """A deterministic virtual-time token bucket over bytes.

    Refill is a pure function of the clock — ``tokens(t)`` depends only
    on the request history and ``t``, never on wall time — so two runs
    of the same seeded workload throttle identically.  A request larger
    than the burst waits until the bucket is full, then runs the bucket
    into debt; the next request waits the debt off, which makes the
    long-run rate converge to ``rate`` without deadlocking on large
    transfers.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("token bucket rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = 0.0

    def refill(self, now: float) -> None:
        if now > self.stamp:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.stamp) * self.rate)
            self.stamp = now

    def delay(self, now: float, nbytes: int) -> float:
        """Virtual seconds the caller must wait before taking ``nbytes``."""
        self.refill(now)
        need = min(float(nbytes), self.burst)
        if self.tokens >= need:
            return 0.0
        return (need - self.tokens) / self.rate

    def take(self, now: float, nbytes: int) -> None:
        """Deduct ``nbytes`` (may run the bucket into debt)."""
        self.refill(now)
        self.tokens -= float(nbytes)


@dataclass(frozen=True)
class TenantBudget:
    """What one tenant is entitled to.

    ``qos_class`` maps the tenant onto the PR 3 scheduler classes:
    ``demand`` tenants are interactive — their reads run inline at the
    scheduler's top priority and count against the demand-latency SLO —
    while ``writeout``/``prefetch``/``cleaner`` tenants are bulk: their
    traffic is expected to ride the background queues and their SLO is
    goodput, not latency.  (Data safety overrides the mapping where it
    must: migration write-outs always travel ``CLASS_WRITEOUT``.)
    """

    #: Scheduler class this tenant's traffic represents.
    qos_class: str = CLASS_DEMAND
    #: Sustained data-plane rate; ``None`` means unlimited (no bucket).
    rate_bytes_per_s: Optional[float] = None
    #: Bucket depth; defaults to one second of ``rate_bytes_per_s``.
    burst_bytes: Optional[float] = None
    #: Hard cap on concurrently open handles (None = unlimited).
    max_open_handles: Optional[int] = None
    #: Deepest background queue this tenant may stand in / leave behind:
    #: its prefetches are rejected while the class queue is at least
    #: this deep, and its migrations drain their own write-out backlog
    #: down to this depth before returning.
    max_queued: Optional[int] = None
    #: Relative share used by the SLO fairness index (goodput is
    #: normalized by weight before computing Jain's index).
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.qos_class not in (CLASS_DEMAND, CLASS_PREFETCH,
                                  CLASS_WRITEOUT, CLASS_CLEANER):
            raise ValueError(f"unknown QoS class {self.qos_class!r}")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")

    def make_bucket(self) -> Optional[TokenBucket]:
        if self.rate_bytes_per_s is None:
            return None
        burst = self.burst_bytes
        if burst is None:
            burst = self.rate_bytes_per_s
        return TokenBucket(self.rate_bytes_per_s, burst)


@dataclass
class Tenant:
    """Runtime admission state for one registered tenant."""

    name: str
    budget: TenantBudget
    bucket: Optional[TokenBucket] = None
    bytes_moved: int = 0
    throttle_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.bucket is None:
            self.bucket = self.budget.make_bucket()
        # This tenant's series, bound once: every request records on them.
        self.opens_series = obs.counter(
            "frontend_opens_total", "handles opened through the client",
            ("tenant",)).labels(tenant=self.name)
        self.open_handles_series = obs.gauge(
            "frontend_open_handles", "handles currently open per tenant",
            ("tenant",)).labels(tenant=self.name)
        self._op_series: Dict[str, tuple] = {}

    def op_series(self, op: str) -> tuple:
        """The (requests, bytes, latency) series of one op kind."""
        series = self._op_series.get(op)
        if series is None:
            series = self._op_series[op] = (
                obs.counter("frontend_requests_total",
                            "client requests completed",
                            ("tenant", "op")).labels(tenant=self.name, op=op),
                obs.counter("frontend_bytes_total",
                            "data-plane bytes moved through the client",
                            ("tenant", "op")).labels(tenant=self.name, op=op),
                obs.histogram("frontend_latency_seconds",
                              "client-observed request latency (admission "
                              "wait included)", ("tenant", "op")).labels(
                                  tenant=self.name, op=op))
        return series

    def admit_bytes(self, actor: Actor, nbytes: int) -> float:
        """Pace ``nbytes`` through the token bucket; returns the wait."""
        bucket = self.bucket
        if bucket is None or nbytes <= 0:
            return 0.0
        wait = bucket.delay(actor.time, nbytes)
        if wait > 0.0:
            actor.sleep(wait)
            self.throttle_seconds += wait
            obs.histogram("frontend_admission_wait_seconds",
                          "virtual time a request waited in token-bucket "
                          "admission", ("tenant",)).labels(
                              tenant=self.name).observe(wait)
        bucket.take(actor.time, nbytes)
        return wait


# --------------------------------------------------------------------------
# Handles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FileStat:
    """What ``Client.stat`` reports (backend-independent)."""

    path: str
    size: int
    tenant: str = DEFAULT_TENANT


class Handle:
    """A tenant-scoped open file, returned by :meth:`Client.open`."""

    __slots__ = ("client", "session")

    def __init__(self, client: "Client", session: FileSession) -> None:
        self.client = client
        self.session = session

    @property
    def fd(self) -> int:
        return self.session.fd

    @property
    def path(self) -> str:
        return self.session.path

    @property
    def tenant(self) -> str:
        return self.session.tenant

    @property
    def closed(self) -> bool:
        return self.session.closed

    def read(self, actor: Actor, offset: int = 0, nbytes: int = -1) -> bytes:
        return self.client.read(actor, self, offset, nbytes)

    def write(self, actor: Actor, data: bytes, offset: int = 0) -> int:
        return self.client.write(actor, self, data, offset)

    def stat(self, actor: Actor) -> FileStat:
        return self.client.stat(actor, self.session.path,
                                tenant=self.session.tenant)

    def close(self, actor: Actor) -> None:
        self.client.close(actor, self)

    def __repr__(self) -> str:
        state = "closed" if self.session.closed else "open"
        return (f"Handle(fd={self.session.fd}, path={self.session.path!r}, "
                f"tenant={self.session.tenant!r}, {state})")


# --------------------------------------------------------------------------
# The client
# --------------------------------------------------------------------------

class Client:
    """The unified front door: one API over node and cluster backends.

    All data-plane I/O enters here (rule HL015); the backend adapter —
    :class:`~repro.frontend.backends.NodeBackend` or
    :class:`~repro.frontend.backends.ClusterBackend` — decides what a
    path means underneath.  Construct via
    :func:`~repro.frontend.backends.open_node` /
    :func:`~repro.frontend.backends.open_cluster`.
    """

    def __init__(self, backend,
                 default_budget: Optional[TenantBudget] = None) -> None:
        self.backend = backend
        self.table = SessionTable()
        self._tenants: Dict[str, Tenant] = {}
        self.tenant(DEFAULT_TENANT, default_budget or TenantBudget())

    # -- tenants -----------------------------------------------------------------

    def tenant(self, name: str,
               budget: Optional[TenantBudget] = None) -> Tenant:
        """Register ``name`` (or re-budget it); returns its state."""
        existing = self._tenants.get(name)
        if budget is None:
            if existing is None:
                raise UnknownTenant(
                    f"tenant {name!r} is not registered; pass a "
                    "TenantBudget to register it")
            return existing
        if existing is not None:
            existing.budget = budget
            existing.bucket = budget.make_bucket()
            return existing
        ten = Tenant(name=name, budget=budget)
        self._tenants[name] = ten
        obs.gauge("frontend_tenants",
                  "tenants registered with the client").set(
                      len(self._tenants))
        return ten

    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def weights(self) -> Dict[str, float]:
        """Tenant -> fairness weight (what the SLO engine normalizes by)."""
        return {name: t.budget.weight for name, t in self._tenants.items()}

    def _resolve_tenant(self, name: Optional[str]) -> Tenant:
        ten = self._tenants.get(name or DEFAULT_TENANT)
        if ten is None:
            raise UnknownTenant(f"tenant {name!r} is not registered")
        return ten

    # -- the session surface -----------------------------------------------------

    def open(self, actor: Actor, path: str, tenant: Optional[str] = None,
             create: bool = False) -> Handle:
        """Open ``path`` for ``tenant``; returns a :class:`Handle`."""
        ten = self._resolve_tenant(tenant)
        cap = ten.budget.max_open_handles
        if cap is not None and self.table.open_count(ten.name) >= cap:
            obs.counter("frontend_rejects_total",
                        "requests refused by hard admission caps",
                        ("tenant", "reason")).labels(
                            tenant=ten.name, reason="open_handles").inc()
            raise AdmissionRejected(
                f"tenant {ten.name!r} is at its open-handle cap ({cap})")
        if not self.backend.exists(path):
            if not create:
                # Typed FileNotFound, same as the path surfaces.
                self.backend.size_of(path)
            self.backend.create(actor, path)
        sess = self.table.open(path, owner=actor.name, tenant=ten.name)
        ten.opens_series.inc()
        ten.open_handles_series.set(self.table.open_count(ten.name))
        return Handle(self, sess)

    def _session_of(self, handle: Union[Handle, int],
                    op: str) -> FileSession:
        if isinstance(handle, Handle):
            if handle.client is not self:
                raise HandleClosed(
                    f"fd {handle.fd}: handle belongs to another client")
            sess = handle.session
            sess.ensure_open(op)
            return sess
        return self.table.get(handle)

    def read(self, actor: Actor, handle: Union[Handle, int],
             offset: int = 0, nbytes: int = -1) -> bytes:
        """Read through a handle, paced by the tenant's token bucket."""
        sess = self._session_of(handle, "read")
        ten = self._resolve_tenant(sess.tenant)
        size = self.backend.size_of(sess.path)
        if nbytes < 0:
            nbytes = max(0, size - offset)
        nbytes = max(0, min(nbytes, size - offset))
        wait = ten.admit_bytes(actor, nbytes)
        t0 = actor.time
        data = self.backend.read(actor, sess.path, offset, nbytes)
        self._record(actor, ten, "read", len(data), wait, actor.time - t0)
        return data

    def write(self, actor: Actor, handle: Union[Handle, int],
              data: bytes, offset: int = 0) -> int:
        """Write through a handle, paced by the tenant's token bucket."""
        sess = self._session_of(handle, "write")
        ten = self._resolve_tenant(sess.tenant)
        wait = ten.admit_bytes(actor, len(data))
        t0 = actor.time
        written = self.backend.write(actor, sess.path, offset, data)
        self._record(actor, ten, "write", written, wait, actor.time - t0)
        return written

    def close(self, actor: Actor, handle: Union[Handle, int]) -> None:
        """Release a handle; double close raises :class:`HandleClosed`."""
        if isinstance(handle, Handle):
            sess = handle.session
            sess.ensure_open("close")
            self.table.close(sess.fd)
        else:
            sess = self.table.close(handle)
        self._tenants[sess.tenant].open_handles_series.set(
            self.table.open_count(sess.tenant))

    def stat(self, actor: Actor, path: str,
             tenant: Optional[str] = None) -> FileStat:
        """Size and identity of ``path`` (FileNotFound when absent)."""
        ten = self._resolve_tenant(tenant)
        return FileStat(path=path, size=self.backend.size_of(path),
                        tenant=ten.name)

    def exists(self, path: str) -> bool:
        return self.backend.exists(path)

    # -- background control plane ------------------------------------------------

    def migrate(self, actor: Actor, target: Union[Handle, str],
                tenant: Optional[str] = None) -> None:
        """Migrate a file to tertiary storage on the tenant's dime.

        The staged segments are sealed immediately and their write-outs
        submitted under ``CLASS_WRITEOUT``; if the tenant has a
        ``max_queued`` cap, *this* call pumps the scheduler on the
        submitting actor until the write-out queue is back under the
        cap — the flooding tenant pays its own drain time.
        """
        path = target.path if isinstance(target, Handle) else target
        ten = self._resolve_tenant(
            tenant if tenant is not None
            else (target.tenant if isinstance(target, Handle) else None))
        size = self.backend.size_of(path)
        wait = ten.admit_bytes(actor, size)
        t0 = actor.time
        self.backend.migrate(actor, path)
        self.backend.seal(actor)
        cap = ten.budget.max_queued
        if cap is not None:
            while self.backend.queued_writeouts() > cap:
                if self.backend.pump(actor, limit=1) == 0:
                    break
        self._record(actor, ten, "migrate", size, wait, actor.time - t0)

    def prefetch(self, actor: Actor, target: Union[Handle, str],
                 tenant: Optional[str] = None) -> int:
        """Submit background prefetches for a migrated file's segments.

        Returns the number of segments submitted.  Raises
        :class:`AdmissionRejected` when the tenant's queue-depth cap
        rejected every attempted submission (the flooding-tenant case).
        """
        path = target.path if isinstance(target, Handle) else target
        ten = self._resolve_tenant(
            tenant if tenant is not None
            else (target.tenant if isinstance(target, Handle) else None))
        t0 = actor.time
        submitted, attempted, capped = self.backend.prefetch(
            actor, path, ten.budget.max_queued)
        if capped:
            obs.counter("frontend_admission_gated_total",
                        "background submissions rejected by a tenant "
                        "queue-depth cap", ("tenant", "rclass")).labels(
                            tenant=ten.name,
                            rclass=CLASS_PREFETCH).inc(capped)
        if attempted and not submitted:
            obs.counter("frontend_rejects_total",
                        "requests refused by hard admission caps",
                        ("tenant", "reason")).labels(
                            tenant=ten.name, reason="prefetch_queue").inc()
            raise AdmissionRejected(
                f"tenant {ten.name!r}: all {attempted} prefetch "
                "submissions rejected by queue-depth admission")
        self._record(actor, ten, "prefetch", 0, 0.0, actor.time - t0)
        return submitted

    def pump(self, actor: Actor, limit: Optional[int] = None) -> int:
        """Dispatch queued background work on ``actor``."""
        return self.backend.pump(actor, limit)

    def flush(self, actor: Actor) -> None:
        """Seal staging, drain queues, checkpoint (control plane)."""
        self.backend.flush(actor)

    def drop_caches(self, actor: Actor) -> None:
        """Force future reads to hit tertiary (bench/demo control)."""
        self.backend.drop_caches(actor)

    # -- accounting --------------------------------------------------------------

    def _record(self, actor: Actor, ten: Tenant, op: str, nbytes: int,
                wait: float, service: float) -> None:
        ten.bytes_moved += nbytes
        requests, moved, latency = ten.op_series(op)
        requests.inc()
        moved.inc(nbytes)
        latency.observe(wait + service)
        obs.event(EV_FRONTEND_REQUEST, actor.time, tenant=ten.name, op=op,
                  nbytes=nbytes, wait=wait, service=service,
                  actor=actor.name)

    def __repr__(self) -> str:
        return (f"Client(backend={self.backend.name!r}, "
                f"tenants={self.tenants()}, "
                f"open_handles={len(self.table)})")
