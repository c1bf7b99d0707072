"""In-memory spans recorded from outside the program, and what is derived
from them: exclusive (self) seconds per span, a structural lint, JSONL.

Nothing here is imported by ``src/``.  The harness installs *shims* on the
public names where callers look a layer's functions up (a module global
such as ``repro.core.pipeline.wavelet_forward`` or a method such as
``DirectoryStore.put``).  A shim records a span only while a request's top
span is open in the calling context -- otherwise it calls straight
through -- so the same process can interleave traced and untraced
generations, which is how the tracing overhead is measured.

Parentage follows a :mod:`contextvars` variable, which asyncio tasks and
``asyncio.to_thread`` copy, so nesting survives both.  Work handed to a
long-lived background task (the burst-buffer drain loop, the group
committer) has no request context; those shims *adopt* the open top span of
the generation their arguments name (see ``adopt=``).
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "e2e_current_span", default=None
)

#: Children may start/end this many seconds outside their parent before
#: the lint complains (clock reads on either side of a call boundary).
NEST_TOLERANCE = 1e-4


class Span:
    """One timed call: name, start, end, parent, generation id."""

    __slots__ = ("name", "sid", "parent", "gen", "start", "end", "attrs")

    def __init__(self, name: str, sid: int, parent: int | None, gen: str) -> None:
        self.name = name
        self.sid = sid
        self.parent = parent
        self.gen = gen
        self.start = time.perf_counter()
        self.end: float | None = None
        self.attrs: dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "id": self.sid,
            "parent": self.parent,
            "gen": self.gen,
            "start": round(self.start, 7),
            "end": None if self.end is None else round(self.end, 7),
            **({"attrs": self.attrs} if self.attrs else {}),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        span = cls(data["name"], data["id"], data["parent"], data["gen"])
        span.start = data["start"]
        span.end = data["end"]
        span.attrs = data.get("attrs") or {}
        return span


class Recorder:
    """Collects spans of one process; written out once, at exit."""

    def __init__(self, id_base: int = 0) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(id_base + 1)
        #: open top span per generation id, for shims that must adopt one
        self.open_tops: dict[str, Span] = {}
        #: shim targets that no longer exist (their metrics report null)
        self.missing: list[str] = []

    def begin(self, name: str, parent: Span | None, gen: str | None = None) -> Span:
        span = Span(
            name,
            next(self._ids),
            None if parent is None else parent.sid,
            gen if gen is not None else (parent.gen if parent else ""),
        )
        self.spans.append(span)
        return span

    @contextmanager
    def top(self, name: str, gen: str, **attrs: Any):
        """Open a request's top span and make it the current context."""
        span = self.begin(name, None, gen)
        span.attrs.update(attrs)
        self.open_tops[gen] = span
        token = _CURRENT.set(span)
        try:
            yield span
        finally:
            _CURRENT.reset(token)
            span.end = time.perf_counter()
            self.open_tops.pop(gen, None)

    # -- shims -------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        attrs: Callable[[tuple, dict, Any], dict] | None = None,
        adopt: Callable[["Recorder", tuple, dict], Span | None] | None = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` (sync or coroutine function)."""
        rec = self

        def _parent(args: tuple, kwargs: dict) -> Span | None:
            parent = _CURRENT.get()
            if parent is None and adopt is not None:
                parent = adopt(rec, args, kwargs)
            return parent

        if inspect.iscoroutinefunction(fn):

            async def awrapper(*args: Any, **kwargs: Any):
                parent = _parent(args, kwargs)
                if parent is None:
                    return await fn(*args, **kwargs)
                span = rec.begin(name, parent)
                token = _CURRENT.set(span)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    _CURRENT.reset(token)
                    span.end = time.perf_counter()
                if attrs is not None:
                    span.attrs.update(attrs(args, kwargs, result))
                return result

            awrapper.__wrapped__ = fn  # type: ignore[attr-defined]
            return awrapper

        def wrapper(*args: Any, **kwargs: Any):
            parent = _parent(args, kwargs)
            if parent is None:
                return fn(*args, **kwargs)
            span = rec.begin(name, parent)
            token = _CURRENT.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                span.end = time.perf_counter()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def replace(self, target: str, name: str, make: Callable[[Any], Any]) -> None:
        """Put ``make(original)`` where ``"pkg.mod:attr"`` or
        ``"pkg.mod:Class.attr"`` is looked up.

        A target that no longer exists is remembered in :attr:`missing`
        (the metrics that depend on it report ``null``); it never raises.
        """
        resolved = resolve(target)
        if resolved is None:
            self.missing.append(name)
            return
        owner, attr, static = resolved
        setattr(owner, attr, make(static))

    def install(self, target: str, name: str, **wrap_kwargs: Any) -> None:
        """Replace a target by the generic timing shim of :meth:`wrap`."""

        def make(static: Any) -> Any:
            if isinstance(static, staticmethod):
                return staticmethod(self.wrap(static.__func__, name, **wrap_kwargs))
            return self.wrap(static, name, **wrap_kwargs)

        self.replace(target, name, make)


def resolve(target: str) -> tuple[Any, str, Any] | None:
    """``(owner, attribute name, raw attribute)`` of a shim target, or None."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        static = inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError):
        return None
    return owner, attr, static


def current() -> Span | None:
    return _CURRENT.get()


@contextmanager
def under(span: Span):
    """Make ``span`` the current context (bespoke shims use this)."""
    token = _CURRENT.set(span)
    try:
        yield span
    finally:
        _CURRENT.reset(token)


# -- analysis ----------------------------------------------------------------


def trees(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """Spans grouped by the id of their root (spans with a dead parent are
    left out; the lint reports them)."""
    by_id = {s.sid: s for s in spans}
    root_of: dict[int, int | None] = {}

    def find_root(span: Span) -> int | None:
        chain = []
        cur: Span | None = span
        while cur is not None and cur.sid not in root_of:
            chain.append(cur)
            if cur.parent is None:
                root_of[cur.sid] = cur.sid
                break
            cur = by_id.get(cur.parent)
        root = root_of[cur.sid] if cur is not None else None
        for s in chain:
            root_of[s.sid] = root
        return root

    out: dict[int, list[Span]] = {}
    for span in by_id.values():
        root = find_root(span)
        if root is not None:
            out.setdefault(root, []).append(span)
    return out


def exclusive_seconds(tree: list[Span]) -> dict[int, float]:
    """Self time of every span of one request tree.

    At each instant the spans that are active and have no active child
    share the instant equally.  Without concurrency this is the classic
    ``duration - children``; with concurrent children (two drain workers
    writing blobs of one submit) it still sums to the root's duration, so
    the per-layer numbers of a request always add back to its wall-clock.
    """
    by_id = {s.sid: s for s in tree}
    events: list[tuple[float, int, int]] = []
    for s in tree:
        end = s.end if s.end is not None else s.start
        events.append((s.start, 1, s.sid))
        events.append((end, 0, s.sid))
    # at equal times close before opening, so back-to-back siblings never
    # count as overlapping
    events.sort(key=lambda e: (e[0], e[1]))
    excl = {s.sid: 0.0 for s in tree}
    active_children = {s.sid: 0 for s in tree}
    active: set[int] = set()
    frontier: set[int] = set()
    prev = events[0][0] if events else 0.0
    for when, opening, sid in events:
        if when > prev and frontier:
            share = (when - prev) / len(frontier)
            for fid in frontier:
                excl[fid] += share
        prev = when
        parent = by_id[sid].parent
        if opening:
            active.add(sid)
            frontier.add(sid)
            if parent in active:
                active_children[parent] += 1
                frontier.discard(parent)
        else:
            active.discard(sid)
            frontier.discard(sid)
            if parent in active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    frontier.add(parent)
    return excl


def lint(spans: Iterable[Span]) -> list[str]:
    """Structural problems of a span set (empty list = clean):
    every span is closed, has a live parent, nests inside it, and carries
    its root's generation id."""
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    problems: list[str] = []
    for s in spans:
        if s.end is None:
            problems.append(f"span {s.sid} {s.name!r} was never closed")
            continue
        if s.end < s.start:
            problems.append(f"span {s.sid} {s.name!r} ends before it starts")
        if s.parent is None:
            continue
        parent = by_id.get(s.parent)
        if parent is None:
            problems.append(f"span {s.sid} {s.name!r} has dead parent {s.parent}")
            continue
        if parent.end is None:
            continue
        if s.start < parent.start - NEST_TOLERANCE or s.end > parent.end + NEST_TOLERANCE:
            problems.append(
                f"span {s.sid} {s.name!r} [{s.start:.6f}, {s.end:.6f}] is not "
                f"inside parent {parent.sid} {parent.name!r} "
                f"[{parent.start:.6f}, {parent.end:.6f}]"
            )
        if s.gen != parent.gen:
            problems.append(
                f"span {s.sid} {s.name!r} has generation {s.gen!r}, its "
                f"parent {parent.name!r} has {parent.gen!r}"
            )
    return problems


def write_jsonl(path: str, spans: Iterable[Span], **common: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({**common, **s.to_dict()}, sort_keys=True) + "\n")


def read_jsonl(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span.from_dict(json.loads(line)) for line in fh if line.strip()]
