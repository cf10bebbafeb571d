#!/usr/bin/env python3
"""The job server's determinism gate and live-surface smoke, in one run.

usage: serve_gate.py NAUTILUS_CLI NAUTILUS_TRACE SPECS_DIR WORK_DIR

The serving guarantee: a spec POSTed to the job server and run among
concurrent tenants leaves a trace equal, event for event
(`nautilus_trace diff`), to that of the same spec run standalone with
`--job`.  The gate runs the seven specs below standalone, then starts one
`nautilus_cli --serve 0` with debug logging on, POSTs all seven at once and
checks, against that one server:

  * every served trace diffs clean against its reference and passes
    `nautilus_trace inspect --check`;
  * every job goes queued/running -> done with a feasible result, and its
    progress counters equal its trace's run_end totals;
  * /healthz, /metrics (Prometheus text), /status, /lineage, /logs and
    GET /jobs/<id> answer as documented, every JSON surface, the server
    log and every job trace parse as strict JSON (no NaN or Infinity);
  * the telemetry joins up: access and job records in the log, request
    ids in the job traces.

WORK_DIR is emptied first: a stale spec-*.ckpt there would make a served
job resume.  The server is stopped and waited for on every outcome; its
--serve-duration is the backstop should this script itself be killed.
Exit status: 0 pass, 1 any failed check (each names its spec or surface).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import urllib.request

SPECS = ['ga_router_w1', 'ga_router_w4', 'nsga2_router_w1', 'nsga2_router_w4',
         'random_router_w1', 'sa_router_w1', 'hc_router_w4']

RUN_TIMEOUT_S = 60       # one standalone run or one nautilus_trace call
START_TIMEOUT_S = 30     # until the server prints its port
JOBS_TIMEOUT_S = 90      # until every served job is done
HTTP_TIMEOUT_S = 10      # one request
STOP_TIMEOUT_S = 10      # SIGTERM to exit, before SIGKILL

PROMETHEUS = re.compile(r'[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+$|'
                        r'[a-zA-Z_:][a-zA-Z0-9_:]*_bucket\{le="[^"]+"\} [0-9]+$')


class GateError(Exception):
    """A check that leaves nothing further to check."""


def strict_constant(name):
    raise ValueError('non-standard JSON constant ' + name)


def strict_json(text, where):
    try:
        return json.loads(text, parse_constant=strict_constant)
    except ValueError as e:
        raise GateError('%s: not strict JSON: %s' % (where, e))


FAILURES = []


def check(ok, where, what):
    if not ok:
        FAILURES.append('%s: %s' % (where, what))
    return ok


def run(where, argv):
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateError('%s: `%s` ran over %d s' % (where, ' '.join(argv[1:]), RUN_TIMEOUT_S))
    return check(done.returncode == 0, where, '`%s` exited %d\n%s%s' % (
        ' '.join(argv[1:]), done.returncode, done.stdout, done.stderr))


def main(cli, trace_tool, specs_dir, work):
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec_path = {name: os.path.join(specs_dir, name + '.json') for name in SPECS}
    ref = {name: os.path.join(work, 'ref_%s.jsonl' % name) for name in SPECS}

    # References checkpoint too, since the scheduler always checkpoints
    # evolutionary jobs.
    for name in SPECS:
        if not run(name, [cli, '--job', spec_path[name], '--trace', ref[name],
                          '--checkpoint', os.path.join(work, 'ref_%s.ckpt' % name)]):
            raise GateError('%s: standalone reference run failed' % name)

    log_path = os.path.join(work, 'server.log.jsonl')
    out_path = os.path.join(work, 'server.out')
    with open(out_path, 'w') as out:
        server = subprocess.Popen(
            [cli, '--serve', '0', '--jobs-capacity', '8', '--jobs-dir', work,
             '--log', log_path, '--log-level', 'debug', '--serve-duration', '120'],
            stdout=out, stderr=subprocess.STDOUT)
    try:
        served = serve(server, out_path, log_path, spec_path)
    finally:
        server.terminate()
        try:
            server.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()

    for name, path in served.items():
        run(name, [trace_tool, 'diff', ref[name], path])
        # Server traces carry a job_summary epilogue; --check reconciles it
        # with the run's own run_end counters.
        run(name, [trace_tool, 'inspect', path, '--check'])


def serve(server, out_path, log_path, spec_path):
    """Drives the running server; returns each spec's served trace path."""
    deadline = time.time() + START_TIMEOUT_S
    port = None
    while port is None:
        if server.poll() is not None:
            raise GateError('server exited %d before serving:\n%s' % (
                server.returncode, open(out_path).read()))
        if time.time() > deadline:
            raise GateError('server printed no port within %d s' % START_TIMEOUT_S)
        time.sleep(0.05)
        banner = open(out_path).read()
        found = re.search(r'serving jobs on http://127\.0\.0\.1:([0-9]+)/jobs', banner)
        port = found and int(found.group(1))
    check(re.search(r'logging to .*server\.log\.jsonl \(level debug\)', banner),
          'server banner', 'no "logging to ... (level debug)" line:\n' + banner)
    base = 'http://127.0.0.1:%d' % port

    def get(path):
        try:
            with urllib.request.urlopen(base + path, timeout=HTTP_TIMEOUT_S) as reply:
                return reply.read().decode()
        except OSError as e:
            raise GateError('GET %s failed: %r' % (path, e))

    def get_json(path):
        return strict_json(get(path), path)

    # POST the seven specs at once.
    ids = {}
    errors = []

    def submit(name):
        try:
            request = urllib.request.Request(base + '/jobs', method='POST',
                                             data=open(spec_path[name], 'rb').read())
            with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT_S) as reply:
                answer = strict_json(reply.read().decode(), 'POST /jobs')
            check(answer['state'] in ('queued', 'running', 'done'), name,
                  'POST /jobs replied in state %r' % answer['state'])
            ids[name] = answer['id']
        except Exception as e:  # reported below, with the spec's name
            errors.append('%s: POST /jobs failed: %r' % (name, e))

    threads = [threading.Thread(target=submit, args=(name,)) for name in spec_path]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise GateError('\n'.join(errors))

    deadline = time.time() + JOBS_TIMEOUT_S
    jobs = {}
    for name, jid in sorted(ids.items()):
        while True:
            job = get_json('/jobs/%d' % jid)
            if job['state'] == 'done':
                check(job['result']['feasible'], name, 'result not feasible: %s' % job)
                jobs[name] = job
                break
            if job['state'] not in ('queued', 'running'):
                raise GateError('%s: job %d went to state %r: %s' % (
                    name, jid, job['state'], job))
            if time.time() > deadline:
                raise GateError('%s: job %d not done within %d s' % (
                    name, jid, JOBS_TIMEOUT_S))
            time.sleep(0.05)

    check(get('/healthz').splitlines() == ['ok'], '/healthz', 'did not answer ok')

    metrics = get('/metrics')
    check('# TYPE nautilus_eval_attempts_total counter' in metrics, '/metrics',
          'no "# TYPE nautilus_eval_attempts_total counter"')
    for line in metrics.splitlines():
        check(line.startswith('#') or PROMETHEUS.match(line), '/metrics',
              'not Prometheus text: %r' % line)

    status = get_json('/status')
    check('uptime_seconds' in status and 'runs_started' not in status, '/status',
          'want uptime_seconds and no runs_started: %s' % status)

    # Each job's trace: strict JSON, a request id, and run_end totals that
    # its progress counters repeat.
    traces = {}
    with_lineage = 0
    for name, job in jobs.items():
        traces[name] = os.path.join(os.path.dirname(log_path), 'job-%d.trace.jsonl' % job['id'])
        text = open(traces[name]).read()
        events = [strict_json(line, name + ' trace') for line in text.splitlines()]
        check('"request_id":' in text, name, 'trace carries no request_id')
        with_lineage += any(e['type'] == 'lineage_summary' for e in events)
        ends = [e for e in events if e['type'] == 'run_end']
        if not check(len(ends) == 1, name, '%d run_end events' % len(ends)):
            continue
        progress = job['progress']
        check(progress['distinct_evals'] == ends[0]['distinct_evals'], name,
              'progress.distinct_evals %s != run_end distinct_evals %s' % (
                  progress['distinct_evals'], ends[0]['distinct_evals']))
        check(progress['eval_calls'] == ends[0]['total_calls'], name,
              'progress.eval_calls %s != run_end total_calls %s' % (
                  progress['eval_calls'], ends[0]['total_calls']))

    lineage = get_json('/lineage')
    check(lineage['runs'] == with_lineage and lineage['last_run'], '/lineage',
          'runs %s, want %d (the traces with a lineage_summary), and a last_run' % (
              lineage['runs'], with_lineage))

    logs_text = get('/logs?n=50')
    strict_json(logs_text, '/logs')
    check('"type":"access"' in logs_text, '/logs', 'tail has no access record')

    log_text = open(log_path).read()
    for line in log_text.splitlines():
        strict_json(line, 'server log')
    for needle in ('"type":"access"', '"type":"job"', '"phase":"finished"'):
        check(needle in log_text, 'server log', 'no %s record' % needle)
    return traces


if __name__ == '__main__':
    if len(sys.argv) != 5:
        sys.exit(__doc__.split('\n\n')[1])
    try:
        main(*sys.argv[1:])
    except (GateError, OSError) as e:  # OSError: a job trace or log went missing
        FAILURES.append(str(e))
    for failure in FAILURES:
        print('FAIL', failure, file=sys.stderr)
    if not FAILURES:
        print('serve_gate: OK (%d specs served and diffed)' % len(SPECS))
    sys.exit(1 if FAILURES else 0)
