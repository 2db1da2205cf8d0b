"""Fork server for CLI jobs.

The server process has already imported ``soficsemi``. Each job is one call
of ``soficsemi.cli.main(argv)`` in a child forked from it, so every job gets
a clean process, as a real CLI call does, without paying the import again.
The child limits its own address space, times ``main`` from inside, hashes
its stdout and sends one JSON message back through a pipe. The parent kills
the child at the job's wall-time budget and reaps it with ``os.wait4`` for
its rusage. Jobs run one at a time; there are no threads.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import select
import signal
import sys
import time
import traceback

WITNESS_CAP = 1 << 24  # characters; the idempotent witness line must be shorter
_KEEP = WITNESS_CAP + (1 << 16)  # stdout characters kept in the child


def probe_ms():
    """A short fixed pure-Python loop, timed; shows slow phases of the machine."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc = (acc + i * i) % 1000003
    return (time.perf_counter() - t0) * 1000.0


class _Sink:
    """Stands in for ``sys.stdout``: hashes everything, keeps a bounded prefix."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.parts = []
        self.kept = 0
        self.truncated = False

    def write(self, s):
        self.sha.update(s.encode())
        if self.kept < _KEEP:
            part = s[: _KEEP - self.kept]
            self.parts.append(part)
            self.kept += len(part)
        self.truncated = self.truncated or self.kept >= _KEEP
        return len(s)

    def flush(self):
        pass


def idempotent_view(text, truncated):
    """Digest of ``idempotent`` output without the witness text, and the witness length.

    The ``witness`` line is left out of the digest, since its text doubles
    with every step; its length is returned instead (-1 when it is missing).
    """
    lines = text.split("\n")
    wlen = -1
    for i, line in enumerate(lines):
        if line.startswith("witness ") or line == "witness":
            wlen = _KEEP if truncated and i == len(lines) - 1 else len(line)
            lines[i] = "witness"
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), wlen


def pretouch():
    """Re-set every attribute of the ``soficsemi`` modules and of their classes.

    A forked child copies a page it shares with the server the first time it
    writes there, and calling a function writes its reference count. This
    takes those copies for the module and class dictionaries before the
    job's timer starts. The tracer writes the same dictionaries when it
    installs its wrappers, so traced and untraced jobs time the same work.
    """
    for name, mod in list(sys.modules.items()):
        if not name.startswith("soficsemi"):
            continue
        for attr, value in list(vars(mod).items()):
            setattr(mod, attr, value)
            if isinstance(value, type) and value.__module__ == name:
                for key, member in list(vars(value).items()):
                    if not key.startswith("__"):
                        setattr(value, key, member)


def _send(wfd, obj):
    data = json.dumps(obj).encode()
    while data:
        n = os.write(wfd, data)
        data = data[n:]


def _receive(rfd):
    chunks = []
    while chunk := os.read(rfd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def call_in_child(fn):
    """Return ``fn()`` computed in a forked child, so the server's memory stays as it was."""
    r, w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            _send(w, fn())
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(w)
    try:
        data = _receive(r)
    finally:
        os.close(r)
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit("error: a forked helper failed")
    return json.loads(data)


def _child(argv, limit_bytes, tracer_factory, wfd):
    resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    from soficsemi import cli

    msg = {"probe_ms": probe_ms()}
    pretouch()
    tracer = tracer_factory() if tracer_factory is not None else None
    sink = _Sink()
    real_stdout = sys.stdout
    sys.stdout = sink
    exc = None
    t0 = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except BaseException as e:  # a traceback: recorded as the failure class
        exc = type(e).__name__
        code = 1
    wall = time.perf_counter() - t0
    sys.stdout = real_stdout
    text = "".join(sink.parts)
    sink.parts = None
    if argv[0] == "idempotent":
        digest, wlen = idempotent_view(text, sink.truncated)
    else:
        digest, wlen = sink.sha.hexdigest(), None
    msg.update(wall=wall, code=code, exc=exc, digest=digest, witness_len=wlen,
               head=text[:200])
    text = None
    if tracer is not None:
        msg["trace"] = tracer.report()
    _send(wfd, msg)


def run_job(argv, limit_mb, budget_s, tracer_factory=None):
    """Run ``cli.main(argv)`` in a forked child; return its measurements and outcome."""
    r, w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            _child(argv, limit_mb << 20, tracer_factory, w)
        finally:
            os._exit(0)
    os.close(w)
    chunks = []
    killed = False
    deadline = t0 + budget_s
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([r], [], [], left)
            if ready:
                chunk = os.read(r, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(r)
        _, status, ru = os.wait4(pid, 0)
    outer = time.perf_counter() - t0
    res = {
        "outer_s": outer,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "maxrss_mb": ru.ru_maxrss / 1024.0,
        "killed": killed,
    }
    if killed:
        res["cls"] = "timeout"
        return res
    if os.WIFSIGNALED(status):
        res["cls"] = f"signal{os.WTERMSIG(status)}"
        return res
    try:
        res.update(json.loads(b"".join(chunks)))
    except ValueError:
        res["cls"] = "no_result"
        return res
    if res["exc"]:
        res["cls"] = res["exc"]
    elif res["code"] != 0 and res["head"].startswith("ERR "):
        res["cls"] = "ERR " + res["head"].split()[1]
    elif res["code"] == 0 and res["witness_len"] is not None and not (
        0 <= res["witness_len"] < WITNESS_CAP
    ):
        res["cls"] = "witness_over_cap"
    else:
        res["cls"] = f"exit{res['code']}"
    return res


def outcome_ok(res, ref):
    """True when the job's exit code and checked output match its reference."""
    if ref is None or res.get("killed") or res.get("exc") or "code" not in res:
        return False
    if res["code"] != ref["exit"] or res["digest"] != ref["digest"]:
        return False
    if res["witness_len"] is not None:
        return 0 <= res["witness_len"] < WITNESS_CAP
    return True
