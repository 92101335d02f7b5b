#!/usr/bin/env python3
"""End-to-end benchmark of the OPPSLA reproduction (see perfbench/README.md).

    python3 perfbench/run.py --workload fig3-sweep --seed 1 --seconds 30 \
        --trace 0

Run from the repository root. The first run builds the harness and the
`oppsla` binary into .bench_build/ and prepares the victims and the warm
program store there (untimed). Every run prints each metric by name with its
unit, a `host:` fingerprint line, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.

`--record-references` re-records perfbench/reference/*.json from the current
build; only do that on a commit whose outputs are known to be right.
"""

import argparse
import hashlib
import http.client
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "build")
CACHE = os.path.join(WORK, "cache")
RUN = os.path.join(WORK, "run")
REFERENCE = os.path.join(HERE, "reference")
HARNESS = os.path.join(BUILD, "perfbench_harness")
OPPSLA = os.path.join(BUILD, "oppsla_tools", "oppsla")

WORKLOADS = ("fig3-sweep", "synth-cold", "serve-open")
THREADS = 4  # the most threads (or connections) any workload uses

RECONCILE_PCT = 10.0  # traced lanes' busy time vs CPU-seconds, fig3-sweep
SETUP_PROCESSES = 4  # set-up-only harness processes before and after the run
# The harness's host-speed probe takes this long on the quiet development
# host. Offline timings are scaled by it (README.md, "Steadiness and
# bounds").
PROBE_NOMINAL_S = 0.21

# serve-open: `oppsla serve --workers 2 --threads 1`, attack jobs of 2
# images at budget 1024 due at a fixed rate that keeps the two workers
# about a third busy on a quiet host. Higher rates left too little headroom
# on a shared host: job latency varied too much from run to run to bound,
# and CPU stolen by the hypervisor filled the queue (README.md).
SERVE_RATE = 256 / 30  # jobs per second: two cycles of 64 pairs per 30 s
SERVE_WORKERS = 2
SERVE_ATTACKS = ("sparse-rs", "suopa")
SERVE_IMAGES = 64  # small-scale test set: 4 classes x 16
SERVE_SLICE = 2
SERVE_RECENT = 8  # first sightings between a job and its repeat
SERVE_SETUPS = 7
POLL_S = 0.005  # status poll interval; also the generator-lag limit
JOB_TIMEOUT_S = 60.0

def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    """Linear-interpolation quantile (the `inclusive` method)."""
    if not xs:
        return 0.0
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ratio(a, b):
    return a / b if b else 0.0


# ---------------------------------------------------------------------------
# Build, prepare, host fingerprint
# ---------------------------------------------------------------------------

def run_logged(cmd, logname, env=None, timeout=None):
    with open(os.path.join(WORK, logname), "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env, timeout=timeout)
    if proc.returncode != 0:
        with open(os.path.join(WORK, logname)) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        raise SystemExit(f"perfbench: `{' '.join(cmd)}` failed "
                         f"(see .bench_build/{logname})")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: the repository sources (src/, tools/) "
                         "are not next to perfbench/; run from a checkout")
    os.makedirs(WORK, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "configure.log")
    run_logged(["cmake", "--build", BUILD, "-j", str(THREADS), "--target",
                "perfbench_harness", "oppsla_cli"], "build.log")


def bench_env():
    env = dict(os.environ)
    env["OPPSLA_CACHE_DIR"] = CACHE
    env.pop("OPPSLA_LOG", None)
    return env


def prepare():
    """Trains the victims and warms the program store (idempotent)."""
    os.makedirs(CACHE, exist_ok=True)
    run_logged([HARNESS, "prepare"], "prepare.log", env=bench_env(),
               timeout=850)


def host_fingerprint(seed):
    cpu, avx512 = platform.processor() or "unknown", False
    try:
        with open("/proc/cpuinfo") as f:
            info = f.read()
        models = [l.split(":", 1)[1].strip() for l in info.splitlines()
                  if l.startswith("model name")]
        cpu = models[0] if models else cpu
        avx512 = " avx512f" in info
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    try:
        describe = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        describe = ""
    return {"cpu": cpu, "nproc": os.cpu_count(), "avx512": avx512,
            "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "git_describe": describe or "not a git checkout", "seed": seed}


def cpu_times():
    """The aggregate `cpu` line of /proc/stat, in clock ticks."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_pct(before, after):
    """Share of the host's CPU time a hypervisor stole between two
    cpu_times() samples: a run with a high share measured a slower host."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    return 100.0 * ratio(delta[7], sum(delta[:8]))


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def load_reference(name):
    with open(os.path.join(REFERENCE, name)) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Offline workloads (the harness)
# ---------------------------------------------------------------------------

def run_harness(cmd, seed, seconds, trace, extra=(), tag=""):
    out = os.path.join(RUN, f"{cmd}{tag}.json")
    args = [HARNESS, cmd, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out, *extra]
    proc = subprocess.run(args, env=bench_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: harness {cmd} exited "
                         f"{proc.returncode}")
    with open(out) as f:
        return json.load(f)


def timed_with_setups(cmd, seed, seconds, trace, extra=()):
    """Runs the workload's timed process between SETUP_PROCESSES set-up-only
    processes before it and as many after it. Returns its raw output with
    "setups" holding the set-ups of all of them."""
    def setup_only(tag):
        return [s for i in range(SETUP_PROCESSES)
                for s in run_harness(cmd, 1, 0, 0,
                                     ("--setup-only", "1", *extra),
                                     tag=f"-setup{tag}{i}")["setups"]]
    before = setup_only("a")
    raw = run_harness(cmd, seed, seconds, trace, extra)
    raw["setups"] += before + setup_only("b")
    return raw


def setup_median(setups, key="total_s"):
    """The median of all set-ups of a run's processes. Set-up time is
    bimodal from process to process (README.md, "How a run works"); the
    median keeps to the common mode, where the fastest set-up did not."""
    return median([s[key] for s in setups])


def host_slowdown(units):
    """How much slower than nominal the host ran during a run's timed units:
    the median of the probes run before them, over PROBE_NOMINAL_S."""
    return median([u["probe_s"] for u in units]) / PROBE_NOMINAL_S


def nominal_wall(unit):
    """A timed unit's wall time at the host's nominal speed, scaled by the
    probe run just before it."""
    return unit["usage"]["wall_s"] * PROBE_NOMINAL_S / unit["probe_s"]


def virtual_rotation(units, kind):
    """{kind: (first unit, median of its nominal_wall)} over a run's
    untraced timed units: one virtual rotation, whatever rotation the run
    ended inside."""
    by_kind = {}
    for u in units:
        by_kind.setdefault(u[kind], []).append(u)
    return host_slowdown(units), {
        k: (v[0], median([nominal_wall(u) for u in v]))
        for k, v in by_kind.items()}


def layer_metrics(layers, cpu_s, wall_s, queries):
    """Per-layer metrics from the boundary decorators' totals."""
    busy, outer, inner = layers["busy_s"], layers["outer_s"], layers["inner_s"]
    fwd = layers["forward_images"]
    attack_self = busy - outer - layers["trace_s"]
    engine_self = outer - inner
    return {
        "attacks.self_ns_per_query": 1e9 * ratio(attack_self, queries),
        "attacks.queries": queries,
        "engine.self_ns_per_query": 1e9 * ratio(engine_self, queries),
        "engine.cache.hit_rate": 1.0 - ratio(layers["miss_forwards"],
                                             layers["logical"]),
        "engine.forwards_per_query": ratio(fwd, queries),
        "engine.prefetch.useful_ratio": ratio(layers["useful_forwards"], fwd),
        "engine.batch.mean": ratio(fwd, layers["forward_calls"]),
        "classify.forward_ns_per_image": 1e9 * ratio(inner, fwd),
        "classify.forwards": fwd,
        "classify.busy_frac": ratio(inner, cpu_s),
        "eval.sweep.cpu_util": ratio(cpu_s, wall_s),
        "bench.reconcile_gap_pct": 100.0 * abs(ratio(busy, cpu_s) - 1.0),
    }


def span_errors(layers):
    """What is wrong with a traced pass's spans, as a list of messages.

    The attack's self time is what the lanes' busy windows leave after the
    engine and tracing, so the busy windows are the part checked against
    CPU time (bench.reconcile_gap_pct). The split between the layers is
    checked here: each layer's self time is non-negative, forward spans
    nest inside the outer span they name, every forward runs inside an
    attack call, and the lanes' running forward totals match the spans."""
    busy, outer, inner = layers["busy_s"], layers["outer_s"], layers["inner_s"]
    errors = []
    if layers["nesting_errors"]:
        errors.append(f"{layers['nesting_errors']:.0f} forward spans outside "
                      f"their parent or overfilling it")
    if layers["orphan_forwards"]:
        errors.append(f"{layers['orphan_forwards']:.0f} forwards outside "
                      f"any attack call")
    if abs(inner - layers["inner_span_s"]) > 1e-6 * max(inner, 1.0):
        errors.append(f"forward time {inner:.6f} s by lane totals, "
                      f"{layers['inner_span_s']:.6f} s by spans")
    if outer < inner:
        errors.append(f"engine time {outer:.6f} s < forward time {inner:.6f} s")
    if busy < outer + layers["trace_s"]:
        errors.append(f"busy time {busy:.6f} s < engine and tracing time "
                      f"{outer + layers['trace_s']:.6f} s")
    return errors


def sum_layers(items):
    keys = items[0].keys()
    return {k: sum(i[k] for i in items) for k in keys}


def fig3(seed, seconds, trace):
    raw = timed_with_setups("fig3", seed, seconds, trace)
    ref = load_reference("fig3.json")
    failed = 0
    for sweep in raw["sweeps"]:
        want = ref[sweep["attack"]]
        got = {k: sweep["result"][k] for k in want}
        if got != want:
            failed += 1
            log(f"fig3: {sweep['attack']} sweep differs from the reference: "
                f"{got} != {want}")
    untraced = [s for s in raw["sweeps"] if not s["traced"]]
    slow, per_attack = virtual_rotation(untraced, "attack")
    log(f"fig3: host at {1 / slow:.3f} of its nominal speed")
    rotation = [t for _, t in per_attack.values()]
    t = sum(rotation)
    q = sum(s["result"]["queries"] for s, _ in per_attack.values())
    n = sum(s["result"]["images"] for s, _ in per_attack.values())
    metrics = {
        "setup_s": setup_median(raw["setups"]),
        "queries_per_s": q / t,
        "images_per_s": n / t,
        "jobs_per_s": len(per_attack) / t,
        "job_ms_p50": 1e3 * quantile(rotation, 0.5),
        "job_ms_p90": 1e3 * quantile(rotation, 0.9),
        "peak_rss_mb": raw["max_rss_mb"],
    }
    layers, errors = {}, []
    if trace:
        traced = [s for s in raw["sweeps"] if s["traced"]]
        tot = sum_layers([s["layers"] for s in traced])
        cpu = sum(s["usage"]["cpu_s"] for s in traced)
        wall = sum(s["usage"]["wall_s"] for s in traced)
        layers = layer_metrics(tot, cpu, wall,
                               sum(s["result"]["queries"] for s in traced))
        untraced_wall = sum(s["usage"]["wall_s"] for s in untraced)
        layers["trace_overhead_pct"] = 100.0 * (wall / untraced_wall - 1.0)
        layers["bench.host_probe_ms"] = 1e3 * slow * PROBE_NOMINAL_S
        layers.update(setup_layers(raw["setups"]))
        errors = span_errors(tot)
        gap = layers["bench.reconcile_gap_pct"]
        if gap > RECONCILE_PCT:
            errors.append(f"the lanes' busy time misses the CPU time by "
                          f"{gap:.1f}% (limit {RECONCILE_PCT}%)")
    for e in errors:
        log(f"fig3: traced pass: {e}")
    return metrics, layers, len(raw["sweeps"]), failed, not errors


def setup_layers(setups):
    parts = {"victim_load_s": "nn.victim_load_ms",
             "testset_s": "data.testset_ms",
             "rehydrate_s": "eval.store.rehydrate_ms"}
    return {name: 1e3 * setup_median(setups, key)
            for key, name in parts.items() if key in setups[0]}


def synth(seed, seconds, trace):
    store = ("--store", os.path.join(RUN, "synth-store"))
    raw = timed_with_setups("synth", seed, seconds, trace, store)
    ref = load_reference("synth.json")
    failed = 0
    for rep in raw["reps"]:
        want = ref[str(rep["class"])]
        got = {k: rep[k] for k in want}
        if got != want:
            failed += 1
            log(f"synth: class {rep['class']} differs from the reference: "
                f"{got} != {want}")
    untraced = [r for r in raw["reps"] if not r["traced"]]
    total = sum(r["usage"]["wall_s"] for r in untraced)
    slow, per_class = virtual_rotation(untraced, "class")
    log(f"synth: host at {1 / slow:.3f} of its nominal speed")
    walls = [t for _, t in per_class.values()]
    rate = lambda work: (sum(work(r) for r, _ in per_class.values())
                         / sum(walls))
    metrics = {
        "setup_s": setup_median(raw["setups"]),
        "queries_per_s": rate(lambda r: r["queries"]),
        "images_per_s": rate(lambda r: r["candidates"] * r["train_images"]),
        "jobs_per_s": rate(lambda r: 1),
        "job_ms_p50": 1e3 * quantile(walls, 0.5),
        "job_ms_p90": 1e3 * quantile(walls, 0.9),
        "peak_rss_mb": raw["max_rss_mb"],
    }
    layers = {}
    if trace:
        traced = [r for r in raw["reps"] if r["traced"]]
        tot = sum_layers([r["layers"] for r in traced])
        cpu = sum(r["usage"]["cpu_s"] for r in traced)
        wall = sum(r["usage"]["wall_s"] for r in traced)
        queries = sum(r["queries"] for r in traced)
        hits = sum(r["cache_hits"] for r in traced)
        misses = sum(r["cache_misses"] for r in traced)
        fwd = tot["forward_images"]
        layers = {
            "attacks.queries": queries,
            "engine.cache.hit_rate": ratio(hits, hits + misses),
            "engine.forwards_per_query": ratio(fwd, queries),
            "engine.batch.mean": ratio(fwd, tot["forward_calls"]),
            "classify.forward_ns_per_image": 1e9 * ratio(tot["inner_s"], fwd),
            "classify.forwards": fwd,
            "classify.busy_frac": ratio(tot["inner_s"], cpu),
            "core.synth.cpu_util": ratio(cpu, wall),
            "core.synth.self_s": (cpu - tot["inner_s"]) / len(traced),
            "core.synth.candidates": sum(r["candidates"] for r in traced),
            "core.synth.exchanges": sum(r["exchanges"] for r in traced),
            "core.synth.synth_s": median([r["usage"]["wall_s"]
                                          for r in traced]),
            "core.synth.candidates_per_s": ratio(
                sum(r["candidates"] for r in traced), wall),
            "trace_overhead_pct": 100.0 * (wall / total - 1.0),
            "bench.host_probe_ms": 1e3 * slow * PROBE_NOMINAL_S,
        }
        layers.update(setup_layers(raw["setups"]))
    return metrics, layers, len(raw["reps"]), failed, True


# ---------------------------------------------------------------------------
# serve-open: open-loop clients against `oppsla serve`
# ---------------------------------------------------------------------------

class Server:
    """One `oppsla serve` process on a loopback port."""

    def __init__(self, tag):
        self.dir = os.path.join(RUN, f"serve-{tag}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        port_file = os.path.join(self.dir, "port")
        self.log = open(os.path.join(self.dir, "serve.log"), "w")
        self.proc = subprocess.Popen(
            [OPPSLA, "serve", "--workers", str(SERVE_WORKERS), "--threads",
             "1", "--port", "0", "--port-file", port_file,
             "--checkpoint-dir", os.path.join(self.dir, "ckpt"),
             "--max-seconds", "170"],
            env=bench_env(), stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 30
        self.port = 0
        while time.monotonic() < deadline and self.proc.poll() is None:
            try:
                with open(port_file) as f:
                    self.port = int(f.read().strip() or 0)
            except (OSError, ValueError):
                pass
            if self.port:
                return
            time.sleep(0.002)
        self.stop()
        raise SystemExit("perfbench: oppsla serve did not start")

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"}
                         if body else {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.request("GET", "/quitquitquit")
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired,
                    http.client.HTTPException):
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def job_body(attack, begin):
    # Byte-for-byte the body the reference was recorded from
    # (perfbench_harness serve-ref).
    return ('{"kind":"attack","attack":"%s","victim":{"task":"cifar",'
            '"arch":"resnet","scale":"small"},"seed":1,"budget":1024,'
            '"slice":{"begin":%d,"count":%d}}' % (attack, begin, SERVE_SLICE))


def schedule(seed, seconds):
    """The seeded open-loop arrivals: [(due offset s, attack, slice begin)].

    One client per arrival slot: job i is due at a uniform random point of
    the i-th of `count` equal slots, so every run offers the same load with
    bounded bursts. Half the jobs are first sightings of an (attack, slice),
    taken in a seeded order that cycles through all of them. The other half
    repeat one: each first sighting is repeated after SERVE_RECENT more
    first sightings. That is late enough for the shared cache to have
    evicted most of the first run's entries; repeats due sooner hit the
    cache depending on whether the first run had finished, which made job
    latency too unsteady to bound (README.md).
    """
    rng = random.Random(seed)
    count = max(2, round(SERVE_RATE * seconds))
    pool = [(a, b) for a in SERVE_ATTACKS
            for b in range(0, SERVE_IMAGES, SERVE_SLICE)]
    firsts = []
    while len(firsts) < count - count // 2:
        rng.shuffle(pool)
        firsts += pool
    keyed = []
    for i, job in enumerate(firsts[:count - count // 2]):
        keyed.append((float(i), job))
        if i < count // 2:
            keyed.append((i + SERVE_RECENT - 0.5, job))
    keyed.sort(key=lambda k: k[0])
    slot = seconds / len(keyed)
    return [((i + rng.random()) * slot, *job)
            for i, (_, job) in enumerate(keyed)]


def parse_prometheus(text):
    """{name: value} for samples, {name: [(le, count)]} for buckets."""
    values, buckets = {}, {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, val = line.rpartition(" ")
        if "_bucket{le=" in name:
            base, le = name.split("_bucket{le=")
            le = le.strip('"}')
            buckets.setdefault(base, []).append(
                (float("inf") if le == "+Inf" else float(le), float(val)))
        else:
            values[name] = float(val)
    return values, buckets


def bucket_quantile(buckets, q):
    """histogram_quantile(): linear interpolation within the bucket."""
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    total = buckets[-1][1]
    rank, prev_le, prev_c = q * total, 0.0, 0.0
    for le, c in buckets:
        if c >= rank:
            if le == float("inf"):
                return prev_le
            return prev_le + (le - prev_le) * ratio(rank - prev_c, c - prev_c)
        prev_le, prev_c = le, c
    return prev_le


def bucket_delta(after, before):
    b = dict(before)
    return [(le, c - b.get(le, 0.0)) for le, c in after]


class OpenLoop:
    """Single-threaded open-loop client: sends each job at its due time,
    polls every in-flight job every POLL_S, fetches finished results."""

    def __init__(self, server, refs):
        self.server, self.refs = server, refs
        self.spans = []  # (name, start, end, job)

    def timed(self, name, job, method, path, body=None):
        start = time.monotonic()
        status, data = self.server.request(method, path, body)
        self.spans.append((name, start, time.monotonic(), job))
        return status, data

    def run_job_to_done(self, attack, begin):
        """Submit one job and wait for it (set-up's warm job)."""
        status, data = self.server.request("POST", "/v1/jobs",
                                           job_body(attack, begin))
        if status != 202:
            raise SystemExit(f"perfbench: warm job rejected ({status})")
        jid = json.loads(data)["id"]
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while time.monotonic() < deadline:
            _, data = self.server.request("GET", f"/v1/jobs/{jid}")
            state = json.loads(data)["state"]
            if state == "done":
                return
            if state in ("failed", "cancelled"):
                break
            time.sleep(POLL_S)
        raise SystemExit("perfbench: warm job did not finish")

    def run(self, jobs):
        out = {"sent": 0, "done": 0, "failed": 0, "rejected": 0,
               "latency_ms": [], "lag_ms": [], "result_bytes": 0}
        pending = list(jobs)
        pending.reverse()
        inflight = {}  # id -> [due, next poll, attack, begin]
        t0 = time.monotonic() + 0.05
        while pending or inflight:
            now = time.monotonic()
            if pending and t0 + pending[-1][0] <= now:
                due, attack, begin = pending.pop()
                out["lag_ms"].append(1e3 * (now - (t0 + due)))
                out["sent"] += 1
                try:
                    status, data = self.timed("submit", -1, "POST", "/v1/jobs",
                                              job_body(attack, begin))
                except (OSError, http.client.HTTPException) as e:
                    status, data = 0, str(e).encode()
                if status == 202:
                    jid = json.loads(data)["id"]
                    inflight[jid] = [t0 + due, now + POLL_S, attack, begin]
                else:
                    out["failed"] += 1
                    out["rejected"] += status == 429
                    log(f"serve: submit returned {status}: {data[:200]!r}")
                continue
            for jid, st in list(inflight.items()):
                if st[1] > now:
                    continue
                ok = self.poll(jid, st, out)
                if ok is None:
                    st[1] = time.monotonic() + POLL_S
                    if time.monotonic() - st[0] > JOB_TIMEOUT_S:
                        out["failed"] += 1
                        log(f"serve: job {jid} timed out")
                        del inflight[jid]
                else:
                    del inflight[jid]
            wake = [st[1] for st in inflight.values()]
            if pending:
                wake.append(t0 + pending[-1][0])
            delay = min(wake) - time.monotonic() if wake else 0
            if delay > 0:
                time.sleep(delay)
        out["window_s"] = time.monotonic() - t0
        return out

    def poll(self, jid, st, out):
        """None while running; True/False once the job ended (ok/failed)."""
        try:
            status, data = self.timed("status", jid, "GET", f"/v1/jobs/{jid}")
            state = json.loads(data)["state"] if status == 200 else "error"
        except (OSError, ValueError, http.client.HTTPException) as e:
            state = f"error {e}"
        if state in ("queued", "running"):
            return None
        if state != "done":
            out["failed"] += 1
            log(f"serve: job {jid} ended {state}")
            return False
        latency = 1e3 * (time.monotonic() - st[0])
        try:
            status, data = self.timed("result", jid, "GET",
                                      f"/v1/jobs/{jid}/result")
        except (OSError, http.client.HTTPException):
            status, data = 0, b""
        ref = self.refs.get(f"{st[2]}/{st[3]}")
        if status != 200 or ref is None or \
                hashlib.sha256(data).hexdigest() != ref["sha256"]:
            out["failed"] += 1
            log(f"serve: job {jid} ({st[2]} slice {st[3]}) result differs "
                f"from the offline reference")
            return False
        out["done"] += 1
        out["latency_ms"].append(latency)
        out["result_bytes"] += len(data)
        return True


def host_probes(tag):
    """Three runs of the harness's host-speed probe."""
    out = os.path.join(RUN, f"probe-{tag}.json")
    subprocess.run([HARNESS, "probe", "--out", out], check=True, timeout=60)
    with open(out) as f:
        return json.load(f)["probes"]


def scrape(server):
    status, data = server.request("GET", "/metrics")
    if status != 200:
        raise SystemExit(f"perfbench: /metrics returned {status}")
    return parse_prometheus(data.decode())


def serve(seed, seconds, trace):
    refs = load_reference("serve.json")
    jobs = schedule(seed, seconds)
    setups, passes = [], []
    # Set-up (server start until its first warm job is done) runs
    # SERVE_SETUPS times on fresh checkpoint directories; the last server
    # takes the schedule. A traced run replays it on one more fresh
    # server, so both passes start from the same cold ScoreCache.
    for traced in ([False, True] if trace else [False]):
        server = None
        try:
            for _ in range(1 if traced else SERVE_SETUPS):
                if server:
                    server.stop()
                start = time.monotonic()
                server = Server(str(len(setups)))
                OpenLoop(server, refs).run_job_to_done("sparse-rs", 0)
                setups.append(time.monotonic() - start)
            client = OpenLoop(server, refs)
            # The probes run while the server is idle.
            probes = host_probes(f"{len(passes)}a")
            before = scrape(server)
            res = client.run(jobs)
            res["scrape"] = (before, scrape(server))
            res["probes"] = probes + host_probes(f"{len(passes)}b")
            res["spans"] = client.spans
            res["peak_rss_mb"] = server.peak_rss_mb()
            passes.append(res)
        finally:
            if server:
                server.stop()
    setups = setups[:SERVE_SETUPS]  # a traced run's extra start is not one

    attempted = sum(p["sent"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    valid = all([pass_valid(p) for p in passes])
    metrics, layers = serve_metrics(passes, setups, trace)
    if trace:
        with open(os.path.join(RUN, "serve.spans.tsv"), "w") as f:
            f.write("name\tstart_s\tend_s\tjob\n")
            for n, s, e, j in passes[1]["spans"]:
                f.write(f"{n}\t{s:.9f}\t{e:.9f}\t{j}\n")
    return metrics, layers, attempted, failed, valid


def scrape_delta(p):
    """(counter delta, histogram-bucket delta) over one pass's scrapes."""
    (v0, b0), (v1, b1) = p["scrape"]
    return (lambda name: v1.get(name, 0.0) - v0.get(name, 0.0),
            lambda name: bucket_delta(b1.get(name, []), b0.get(name, [])))


def pass_valid(p):
    """Logs one open-loop pass; False when too few jobs completed or the
    generator ran later than the poll interval."""
    delta, _ = scrape_delta(p)
    busy = delta("oppsla_serve_shard_exec_ms_sum") / 1e3 / (
        p["window_s"] * SERVE_WORKERS)
    lag = quantile(p["lag_ms"], 0.9)
    log(f"serve: sent {p['sent']}, done {p['done']}, failed {p['failed']}, "
        f"rejected {p['rejected']}, workers {100 * busy:.1f}% busy, "
        f"generator lag p90 {lag:.3f} ms")
    if p["done"] >= 100 and lag <= 1e3 * POLL_S:
        return True
    log("serve: run invalid (fewer than 100 jobs done, or the generator ran "
        "later than the poll interval)")
    return False


def serve_metrics(passes, setups, trace):
    main = passes[0]
    # The rates are the workers' capacity, from the server's own counters:
    # work done per second that a worker spent running shards, times the
    # workers. Per wall-second they would only restate the open-loop
    # schedule, which the workers keep up with at a third busy. Times are
    # at the host's nominal speed, like the offline workloads'.
    slow = host_slowdown(main["probes"])
    log(f"serve: host at {1 / slow:.3f} of its nominal speed")
    delta, _ = scrape_delta(main)
    exec_s = delta("oppsla_serve_shard_exec_ms_sum") / 1e3 / slow
    jobs = delta("oppsla_serve_jobs_completed_total")
    capacity = lambda work: SERVE_WORKERS * ratio(work, exec_s)
    metrics = {
        "setup_s": median(setups),
        "queries_per_s": capacity(delta("oppsla_engine_queries_total")),
        "images_per_s": capacity(SERVE_SLICE * jobs),
        "jobs_per_s": capacity(jobs),
        "job_ms_p50": quantile(main["latency_ms"], 0.5) / slow,
        "job_ms_p90": quantile(main["latency_ms"], 0.9) / slow,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    if not trace:
        return metrics, {}
    t = passes[1]
    delta, hist = scrape_delta(t)
    spans = lambda name: [1e3 * (e - s) for n, s, e, _ in t["spans"]
                          if n == name]
    queries = delta("oppsla_engine_queries_total")
    fwd = delta("oppsla_engine_forwards_total")
    batch = hist("oppsla_engine_batch_size")
    layers = {
        "attacks.queries": queries,
        "engine.cache.hit_rate": ratio(
            delta("oppsla_engine_cache_hits_total"), queries),
        "engine.forwards_per_query": ratio(fwd, queries),
        "engine.batch.mean": ratio(fwd, batch[-1][1] if batch else 0),
        "classify.forwards": fwd,
        "serve.queue_wait_ms_p50": bucket_quantile(
            hist("oppsla_serve_queue_wait_ms"), 0.5),
        "serve.queue_wait_ms_p90": bucket_quantile(
            hist("oppsla_serve_queue_wait_ms"), 0.9),
        "serve.shard_exec_ms_p50": bucket_quantile(
            hist("oppsla_serve_shard_exec_ms"), 0.5),
        "serve.http.submit_ms_p50": quantile(spans("submit"), 0.5),
        "serve.http.status_ms_p50": quantile(spans("status"), 0.5),
        "serve.rejects": t["rejected"],
        "wire.result_bytes_per_job": ratio(t["result_bytes"], t["done"]),
        "bench.gen_lag_ms_p90": quantile(t["lag_ms"], 0.9),
        "bench.host_probe_ms": 1e3 * slow * PROBE_NOMINAL_S,
        "trace_overhead_pct": 100.0 * ratio(
            quantile(t["latency_ms"], 0.5),
            quantile(main["latency_ms"], 0.5)) - 100.0,
    }
    return metrics, layers


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def metric_units(kind):
    """{name: unit} of the `end_to_end` or `per_layer` list in
    BENCHMARK.json, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


# Per-layer metrics a workload cannot reach from outside the program, by
# name prefix; they print 0 (README.md, "Per-layer metrics").
UNREACHED = {
    "fig3-sweep": ("core.synth.", "serve.", "wire.", "bench.gen_lag"),
    "synth-cold": ("attacks.self", "engine.self", "engine.prefetch", "eval.",
                   "data.", "bench.reconcile", "serve.", "wire.",
                   "bench.gen_lag"),
    "serve-open": ("attacks.self", "engine.self", "engine.prefetch",
                   "classify.forward_ns", "classify.busy", "core.synth.",
                   "eval.", "nn.", "data.", "bench.reconcile"),
}


def report(workload, metrics, layers, attempted, failed, valid, trace):
    """Prints every metric by name and unit; the JSON object goes last."""
    if trace:
        values = dict(layers)
        values["bench.failed_frac"] = ratio(failed, attempted)
        for name in metric_units("per_layer"):
            if name not in values and name.startswith(UNREACHED[workload]):
                values[name] = 0.0
    else:
        values = metrics
    units = metric_units("per_layer" if trace else "end_to_end")
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"perfbench: {workload} did not measure {missing}")
    out = {name: {"value": float(values[name]), "unit": unit}
           for name, unit in units.items()}
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed {failed} of {attempted} operations")
    print(json.dumps({"correct": bool(valid and failed == 0),
                      "attempted": int(attempted), "failed": int(failed),
                      "metrics": out}))


def record_references():
    """Re-records perfbench/reference/*.json from the current build."""
    os.makedirs(REFERENCE, exist_ok=True)
    raw = run_harness("fig3", 1, 0, 0)
    fig3_ref = {}
    for s in raw["sweeps"]:
        r = s["result"]
        fig3_ref[s["attack"]] = {k: r[k] for k in
                                 ("success", "failure", "discarded",
                                  "queries", "digest")}
    raw = run_harness("synth", 1, 0, 0,
                      ("--store", os.path.join(RUN, "synth-store")))
    synth_ref = {str(r["class"]): {k: r[k] for k in
                                   ("program", "avg_queries", "candidates",
                                    "exchanges")}
                 for r in raw["reps"]}
    out = os.path.join(RUN, "serve-ref.json")
    subprocess.run([HARNESS, "serve-ref", "--out", out], env=bench_env(),
                   check=True, timeout=170)
    with open(out) as f:
        jobs = json.load(f)["jobs"]
    serve_ref = {}
    for j in jobs:
        art = bytes.fromhex(j["artifact_hex"])
        if j["body"] != job_body(j["attack"], int(j["begin"])):
            raise SystemExit("perfbench: harness and client job bodies differ")
        serve_ref[f"{j['attack']}/{int(j['begin'])}"] = {
            "sha256": hashlib.sha256(art).hexdigest(),
            "queries": int(j["queries"])}
    for name, data in (("fig3.json", fig3_ref), ("synth.json", synth_ref),
                       ("serve.json", serve_ref)):
        with open(os.path.join(REFERENCE, name), "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
    log("references recorded")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)
    if not args.workload and not args.record_references:
        ap.error("--workload is required")

    if usable_cpus() < THREADS:
        raise SystemExit(f"perfbench: the workloads need {THREADS} CPUs, "
                         f"this host gives {usable_cpus()}")
    build()
    prepare()
    shutil.rmtree(RUN, ignore_errors=True)
    os.makedirs(RUN)
    if args.record_references:
        record_references()
        return
    fn = {"fig3-sweep": fig3, "synth-cold": synth, "serve-open": serve}
    stat0 = cpu_times()
    metrics, layers, attempted, failed, valid = fn[args.workload](
        args.seed, args.seconds, args.trace)
    host = host_fingerprint(args.seed)
    host["steal_pct"] = steal_pct(stat0, cpu_times())
    print("host: " + json.dumps(host))
    report(args.workload, metrics, layers, attempted, failed, valid,
           args.trace)


if __name__ == "__main__":
    main()
