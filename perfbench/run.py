#!/usr/bin/env python3
"""perfbench: the hardq benchmark, end to end over the NDJSON wire.

Run from the root of a hardq checkout:

    python3 perfbench/run.py --workload count-cold --seed 1 --seconds 10 --trace 0

One run builds the server and the benchmark's OCaml helper
(perfbench/hqbench), generates the workload's request stream from the seed,
then:

  --trace 0  starts the real hardq_server as its own process SETUPS times
             (3 to 9, more where set-up is short), each time timing
             set-up (spawn, a 1 ms ping poll until it answers, the
             warm-up pass) and comparing the warm-up's work counts
             across them; drives the last server as a closed
             loop from this one process over one connection for
             --seconds; stops it; checks every answer against the
             sequential reference; prints the end-to-end metrics.
  --trace 1  one server, a closed loop for half of --seconds (for the
             per-layer numbers only the wire shows: queue wait, batching,
             store traffic), then the traced in-process replay
             (hqbench trace) for the other half; prints the per-layer
             metrics.

Host noise. On a shared VM the hypervisor takes CPU time from the guest in
bursts (steal time in /proc/stat), and a burst can slow a whole stretch of
a run by half. The timed loop is therefore cut into one-second windows and
the set-ups are timed one by one, each with the host's steal share over
it; the end-to-end metrics pool only the calm windows and set-ups (steal at
most STEAL_CALM_PCT), or, when fewer than MIN_CALM are calm, the MIN_CALM
calmest (and as many more windows as MIN_SAMPLES needs). Which windows
were kept is part of the provenance.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it carries the
provenance: host nproc, OCaml version, git commit (when the checkout is a
repository) and a digest of the sources, workload parameters, seed and
sample counts. Everything is also written under .perfbench_out/.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

SERVER = "_build/default/bin/hardq_server.exe"
TOOL = "_build/default/perfbench/hqbench/hqbench.exe"
RUN_DIR = ".perfbench_run"
OUT_DIR = ".perfbench_out"
WORKLOADS = ["count-cold", "count-warm", "topk-cold"]
# Set-ups per untraced run; setup_s is the median of the calm ones. Where a
# set-up takes a fraction of a second, mostly process start, one burst of
# host noise moves it by half, so those workloads set up more often.
SETUPS = {"count-cold": 3, "count-warm": 5, "topk-cold": 9}
WINDOW_S = 1.0  # the timed loop's windows
STEAL_CALM_PCT = 2.0  # a window or set-up with more host steal is noisy
MIN_SAMPLES = 100  # ten samples beyond p90
MIN_CALM = 3  # windows or set-ups pooled at least
# One connection: a request's latency is then its own service time. With
# two, each request also waits for the other connection's, and the sum of
# two costs moves with the seed's order of requests.
CONNECTIONS = 1
CLK_TCK = os.sysconf("SC_CLK_TCK")

# Work counters of the server's metrics snapshot that must repeat exactly
# across set-ups: the same warm-up requests do the same work.
WORK_COUNTERS = [
    "engine.solver_calls",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.cache.term.hits",
    "engine.cache.term.misses",
    "dp.flat.states",
    "dp.flat.calls",
    "solver.general.ie_terms",
    "solver.upper_bound.calls",
]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _die_with_parent():
    """Child processes get SIGKILL if this process dies first."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def spawn(cmd, **kw):
    return subprocess.Popen(cmd, preexec_fn=_die_with_parent, **kw)


def run_tool(cmd):
    """Run a helper to completion; its last stdout line is JSON."""
    p = spawn(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate()
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    if p.returncode != 0:
        raise BenchError("%s failed (exit %d)" % (" ".join(cmd[1:3]), p.returncode))
    return json.loads(out.strip().splitlines()[-1])


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and provenance


def build():
    for f in ["dune-project", "bin/hardq_server.ml", "perfbench/hqbench/dune"]:
        if not os.path.isfile(f):
            raise BenchError("not a hardq checkout: %s is missing" % f)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]  # an opam switch not on PATH
    else:
        raise BenchError("neither dune nor opam is on PATH")
    r = subprocess.run(
        # no shared cache: the build reads and writes only the checkout
        dune + ["build", "--root", ".", "--cache=disabled", "./bin/hardq_server.exe", "./perfbench/hqbench/hqbench.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])


def command_output(cmd):
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=20)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    h = hashlib.sha256()
    for top in ["bin", "lib", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def provenance(args, params):
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"]) or command_output(["ocamlopt", "-version"]),
        # only this checkout's own repository, never an enclosing one
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) if os.path.exists(".git") else None,
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


# --------------------------------------------------------------------------
# The server process


def proc_cpu_s(pid):
    """utime + stime of every thread of the process, in seconds."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def host_cpu_ticks():
    """(steal, total) jiffies of the whole host from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_pct(ticks0, ticks1):
    """Share of the VM's CPU time the hypervisor gave to others between
    two host_cpu_ticks() readings, in percent."""
    return 100.0 * (ticks1[0] - ticks0[0]) / max(1, ticks1[1] - ticks0[1])


def calm(items, steal_of, enough=lambda kept: True):
    """The items whose steal share is at most STEAL_CALM_PCT when there are
    MIN_CALM of them and they are enough; else the calmest items, calmest
    first, until there are MIN_CALM and they are enough (or all are
    taken). Keeps order."""
    ok = [x for x in items if steal_of(x) <= STEAL_CALM_PCT]
    if len(ok) < MIN_CALM or not enough(ok):
        ok = []
        for x in sorted(items, key=steal_of):
            ok.append(x)
            if len(ok) >= MIN_CALM and enough(ok):
                break
    return [x for x in items if x in ok]


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the server")


class Conn:
    """One NDJSON connection: send a line, read reply lines."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def send(self, line):
        self.sock.sendall(line)

    def lines(self):
        """Lines already complete in the buffer after one recv."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise BenchError("server closed a connection")
        self.buf += data
        out = []
        while True:
            i = self.buf.find(b"\n")
            if i < 0:
                return out
            out.append(self.buf[:i])
            self.buf = self.buf[i + 1:]

    def rpc(self, line):
        self.send(line)
        while True:
            got = self.lines()
            if got:
                if len(got) > 1:
                    raise BenchError("unexpected extra reply")
                return got[0]

    def close(self):
        self.sock.close()


def connect(path):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.connect(path)
    except OSError:
        s.close()
        raise
    return Conn(s)


class Server:
    def __init__(self, sock_path):
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        self.path = sock_path
        self.proc = spawn(
            [SERVER, "--listen", sock_path, "--jobs", "1", "--workers", "1", "--shards", "1", "--quiet"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )

    def wait_ready(self, timeout=120.0):
        """Poll every millisecond until the server answers a ping."""
        t0 = time.monotonic()
        while True:
            if self.proc.poll() is not None:
                raise BenchError("server exited during start-up: " + self.proc.stderr.read().decode()[-2000:])
            try:
                conn = connect(self.path)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() - t0 > timeout:
                    raise BenchError("server did not start")
                time.sleep(0.001)
                continue
            if json.loads(conn.rpc(b'{"v":1,"op":"ping"}\n')).get("ok") is not True:
                raise BenchError("ping failed")
            return conn

    def stop(self):
        """SIGTERM (graceful drain); the server must exit 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchError("server did not drain within 60 s")
        err = self.proc.stderr.read().decode()
        self.proc.stderr.close()
        if self.proc.returncode != 0:
            raise BenchError("server exited %d: %s" % (self.proc.returncode, err[-2000:]))

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stderr and not self.proc.stderr.closed:
            self.proc.stderr.close()


# --------------------------------------------------------------------------
# One set-up and the timed closed loop


def work_fingerprint(replies, snapshot):
    fp = {name: snapshot.get("counters", {}).get(name, 0) for name in WORK_COUNTERS}
    for r in replies:
        stats = r.get("stats", {})
        fp["reply.solver_calls"] = fp.get("reply.solver_calls", 0) + stats.get("solver_calls", 0)
        for k, v in stats.get("cache", {}).items():
            if k not in ("batch_id", "batch_size"):
                fp["reply." + k] = fp.get("reply." + k, 0) + v
    return fp


def setup(sock_path, warmup_lines, connections):
    """Spawn a server and make it ready for the timed loop. Returns the
    server, the timed connections, (set-up seconds, host steal share),
    the warm-up replies and the work fingerprint of the warm-up pass."""
    steal0 = host_cpu_ticks()
    t0 = time.perf_counter()
    server = Server(sock_path)
    try:
        conn = server.wait_ready()
        raw = [conn.rpc(line) for line in warmup_lines]
        conns = [connect(sock_path) for _ in range(connections)]
        setup_s = time.perf_counter() - t0
        steal = steal_pct(steal0, host_cpu_ticks())
        snapshot = json.loads(conn.rpc(b'{"v":1,"op":"metrics"}\n')).get("metrics", {})
        conn.close()
    except BaseException:
        server.kill()
        raise
    return server, conns, (setup_s, steal), raw, work_fingerprint([json.loads(r) for r in raw], snapshot)


def closed_loop(server, conns, lines, seconds):
    """Each connection sends its next request when its reply arrives, until
    --seconds have passed; in-flight requests then complete. Returns the
    samples (stream index, latency s, reply bytes, window) and the
    windows: dicts with the window's wall and server CPU seconds and the
    host's steal share. A window ends with the first reply after each
    WINDOW_S mark. Replies after --seconds (to the requests then in
    flight) are in no window."""
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    pending = {}
    samples = []
    nxt = 0
    pid = server.proc.pid
    t0 = time.perf_counter()
    deadline = t0 + seconds
    n_windows = max(1, round(seconds / WINDOW_S))
    marks = [(t0, proc_cpu_s(pid), host_cpu_ticks())]
    closed = False  # the last window has ended

    def send(c):
        nonlocal nxt
        if nxt >= len(lines):
            raise BenchError("request stream exhausted; generate more")
        pending[c] = (nxt, time.perf_counter())
        c.send(lines[nxt])
        nxt += 1

    for c in conns:
        send(c)
    while pending:
        events = sel.select(timeout=120)
        if not events:
            raise BenchError("no reply within 120 s")
        for key, _ in events:
            c = key.data
            got = c.lines()
            if not got:
                continue
            t = time.perf_counter()
            if len(got) != 1 or c not in pending:
                raise BenchError("reply without a request in flight")
            idx, sent = pending.pop(c)
            if t < deadline:
                if len(marks) < n_windows and t >= t0 + seconds * len(marks) / n_windows:
                    marks.append((t, proc_cpu_s(pid), host_cpu_ticks()))
                samples.append((idx, t - sent, got[0], len(marks) - 1))
                send(c)
            else:
                if not closed:
                    marks.append((t, proc_cpu_s(pid), host_cpu_ticks()))
                    closed = True
                samples.append((idx, t - sent, got[0], None))
    sel.close()
    for c in conns:
        c.close()
    windows = [
        {"wall_s": b[0] - a[0], "cpu_s": b[1] - a[1], "steal_pct": steal_pct(a[2], b[2])}
        for a, b in zip(marks, marks[1:])
    ]
    return samples, windows


# --------------------------------------------------------------------------
# Checks


def run_checks(workdir, workload, warm, warm_replies, timed, samples):
    """Check every reply, warm-up and timed, on two helper processes. An
    error reply counts as a wrong answer."""
    pairs = list(zip(warm, warm_replies)) + [(timed[s[0]], s[2]) for s in samples]
    path = os.path.join(workdir, "pairs.ndjson")
    with open(path, "wb") as f:
        for req, rep in pairs:
            f.write(req.rstrip(b"\n") + b"\n" + rep + b"\n")
    parts = 2
    procs = [
        spawn(
            [TOOL, "check", "--workload", workload, "--pairs", path, "--part", "%d/%d" % (i, parts)],
            stdout=subprocess.PIPE,
            text=True,
        )
        for i in range(parts)
    ]
    results = []
    try:
        for p in procs:
            out, _ = p.communicate()
            if p.returncode != 0:
                raise BenchError("answer check failed to run")
            results.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    return {
        "checked": sum(r["checked"] for r in results),
        "wrong": sum(r["wrong"] for r in results),
        "prob_sum": sum(r["prob_sum"] for r in results),
        "tie_swaps": sum(r["tie_swaps"] for r in results),
        "notes": [n for r in results for n in r["notes"]],
    }


def percentile(sorted_vals, q):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(q * len(sorted_vals)) - 1)
    return sorted_vals[k]


# --------------------------------------------------------------------------
# The two kinds of run


def wire_stats(samples):
    replies = [json.loads(s[2]) for s in samples]
    ok = [(s[1], r, s[3]) for s, r in zip(samples, replies) if r.get("ok") is True]
    return replies, ok


def store_traffic(replies):
    """The timed replies' store counters, summed: answer-tier misses are
    the sub-problems the engine solved."""
    keys = ("answer_hits", "answer_misses", "sf_joins", "term_hits", "term_misses")
    tot = {k: sum(r.get("stats", {}).get("cache", {}).get(k, 0) for r in replies) for k in keys}
    looked_up = tot["answer_hits"] + tot["answer_misses"] + tot["sf_joins"]
    tot["answer_hit_rate"] = tot["answer_hits"] / max(1, looked_up)
    return tot


def serve_window(sock, warm, timed, setups, seconds):
    """Set a server up [setups] times, keeping the last one for the timed
    closed loop, then drain it. Returns the set-ups ((seconds, steal)
    pairs), the work fingerprints, the last warm-up replies, the timed
    samples and windows, and the server's peak RSS."""
    times, fingerprints, server = [], [], None
    try:
        for i in range(setups):
            server, conns, setup_s, warm_replies, fp = setup(sock, warm, CONNECTIONS)
            times.append(setup_s)
            fingerprints.append(fp)
            if i < setups - 1:
                for c in conns:
                    c.close()
                server.stop()
                server = None
        samples, windows = closed_loop(server, conns, timed, seconds)
        hwm = proc_hwm_mb(server.proc.pid)
        server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
    return times, fingerprints, warm_replies, samples, windows, hwm


def untraced(args, workdir, lines, params, sock):
    warm = lines[: params["warmup"]]
    timed = lines[params["warmup"]:]
    setups, fingerprints, warm_replies, samples, windows, hwm = serve_window(
        sock, warm, timed, SETUPS[args.workload], args.seconds
    )
    replies, ok = wire_stats(samples)
    problems = []
    if any(fp != fingerprints[0] for fp in fingerprints):
        problems.append("work counts differ across set-ups: %s" % fingerprints)
    problems += workload_checks(args.workload, replies)
    check = run_checks(workdir, args.workload, warm, warm_replies, timed, samples)
    if len(ok) < MIN_SAMPLES:
        problems.append("only %d samples; p90 needs %d" % (len(ok), MIN_SAMPLES))
    # pool the calm windows
    per_window = [0] * len(windows)
    for _, _, w in ok:
        if w is not None:
            per_window[w] += 1
    kept = calm(
        list(range(len(windows))),
        lambda w: windows[w]["steal_pct"],
        lambda ws: sum(per_window[w] for w in ws) >= MIN_SAMPLES,
    )
    lat = sorted(l for l, _, w in ok if w in kept)
    n = len(lat)
    if n < MIN_SAMPLES:
        problems.append("only %d samples in calm windows; p90 needs %d" % (n, MIN_SAMPLES))
    wall = sum(windows[w]["wall_s"] for w in kept)
    cpu = sum(windows[w]["cpu_s"] for w in kept)
    calm_setups = calm(setups, lambda x: x[1])
    metrics = {
        "latency_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "latency_p90_ms": percentile(lat, 0.9) * 1e3 if lat else 0.0,
        "throughput_rps": n / wall,
        "server_cpu_ms_per_req": cpu * 1e3 / max(1, n),
        "peak_rss_mb": hwm,
        "setup_s": statistics.median(t for t, _ in calm_setups),
    }
    extra = {
        "samples": len(ok),
        "calm_samples": n,
        "windows": [
            dict(w, completions=sum(1 for s in ok if s[2] == i), calm=i in kept) for i, w in enumerate(windows)
        ],
        "setups": [{"s": t, "steal_pct": st, "calm": (t, st) in calm_setups} for t, st in setups],
        "store": store_traffic(replies),
        "work_counts": fingerprints[0],
    }
    return finish(args, params, check, problems, metrics, extra)


def workload_checks(workload, replies):
    problems = []
    if workload == "count-warm":
        calls = sum(r.get("stats", {}).get("solver_calls", 0) for r in replies)
        if calls != 0:
            problems.append("count-warm solved %d sub-problems after warm-up" % calls)
    return problems


def traced(args, workdir, lines, params, sock):
    warm = lines[: params["warmup"]]
    timed = lines[params["warmup"]:]
    half = args.seconds / 2.0
    _, _, warm_replies, samples, windows, _ = serve_window(sock, warm, timed, 1, half)
    wall = sum(w["wall_s"] for w in windows)
    cpu = sum(w["cpu_s"] for w in windows)
    replies, ok = wire_stats(samples)
    problems = workload_checks(args.workload, replies)
    check = run_checks(workdir, args.workload, warm, warm_replies, timed, samples)
    stats = [r.get("stats", {}) for _, r, _ in ok]
    caches = [s.get("cache", {}) for s in stats]
    n = max(1, len(ok))

    def total(key):
        return sum(c.get(key, 0) for c in caches)

    hits, misses, joins = total("answer_hits"), total("answer_misses"), total("sf_joins")
    t_hits, t_misses = total("term_hits"), total("term_misses")
    metrics = {
        "server.queue_ms": sum(s.get("queue_s", 0.0) for s in stats) * 1e3 / n,
        "server.batch_size_mean": sum(c.get("batch_size", 0) for c in caches) / n,
        "server.outside_engine_ms": sum(l - r["stats"]["total_s"] for l, r, _ in ok) * 1e3 / n,
        "engine.store.answer_hit_rate": hits / max(1, hits + misses + joins),
        "engine.store.term_hit_rate": t_hits / max(1, t_hits + t_misses),
        "engine.sf_joins_per_req": joins / n,
        "engine.solver_calls_per_req": sum(s.get("solver_calls", 0) for s in stats) / n,
        # server CPU over wall time x pool width (--jobs 1)
        "engine.pool.cpu_utilization": cpu / wall,
    }
    spans = os.path.join(OUT_DIR, "spans-%s-seed%d.ndjson" % (args.workload, args.seed))
    replay = run_tool(
        [TOOL, "trace", "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(half),
         "--tolerance-pct", str(args.reconcile_tolerance_pct), "--out", spans]
    )
    if not replay["reconciled"]:
        problems.append(
            "layer self times miss the traced end-to-end time by %.2f%% (tolerance %.2f%%)"
            % (replay["metrics"]["trace.unattributed_pct"], args.reconcile_tolerance_pct)
        )
    metrics.update(replay["metrics"])
    extra = {"samples": len(ok), "replayed": replay["requests"], "traced": replay["traced"], "spans": spans}
    return finish(args, params, check, problems, metrics, extra)


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def finish(args, params, check, problems, metrics, extra):
    lo, hi = params["band"]
    mean_prob = check["prob_sum"] / max(1, check["checked"])
    if not lo <= mean_prob <= hi:
        problems.append("mean probability %.4f outside the declared band [%g, %g]" % (mean_prob, lo, hi))
    if check["wrong"]:
        problems.append("%d wrong answers: %s" % (check["wrong"], check["notes"]))
    prov = provenance(args, params)
    prov.update(extra)
    prov.update({"checked": check["checked"], "mean_probability": mean_prob,
                 "topk_tie_swaps": check["tie_swaps"], "problems": problems})
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise BenchError("metrics %s do not match BENCHMARK.json" % sorted(set(metrics) ^ set(units)))
    result = {
        "correct": not problems,
        "attempted": check["checked"],
        "failed": check["wrong"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": prov, "result": result}, f, indent=1)
    for p in problems:
        log(p)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument(
        "--reconcile-tolerance-pct",
        type=float,
        default=5.0,
        help="largest share of the traced end-to-end time the layer spans may leave unattributed",
    )
    args = ap.parse_args()

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    workdir = os.path.join(RUN_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        build()
        os.makedirs(workdir, exist_ok=True)
        os.makedirs(OUT_DIR, exist_ok=True)
        req_path = os.path.join(workdir, "requests.ndjson")
        # Enough requests for the fastest plausible run: a cold stream
        # wraps around its shapes (its sub-answers are long evicted by then).
        params = run_tool(
            [TOOL, "gen", "--workload", args.workload, "--seed", str(args.seed), "--count", "20000", "--out", req_path]
        )
        with open(req_path, "rb") as f:
            lines = f.readlines()
        sock = os.path.join(workdir, "s.sock")
        (traced if args.trace else untraced)(args, workdir, lines, params, sock)
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass  # another run's scratch is still there
    return 0


if __name__ == "__main__":
    sys.exit(main())
