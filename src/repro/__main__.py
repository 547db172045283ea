"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``codes`` — list the supported code families and their parameters;
* ``demo`` — encode/transmit/decode one frame and print the outcome;
* ``experiments [IDS...]`` — regenerate paper tables/figures;
* ``accel-bench`` — frames/s and per-layer ns for every decode path
  (per-frame, batch, engine, thread-pool) with a
  built-in bit-exactness cross-check (``--json`` emits the
  ``BENCH_accel.json`` document; see docs/PERFORMANCE.md);
* ``faults-bench`` — sweep fault rate x injection site and report
  residual FER, silent-corruption rate, and parity detection rate
  (``--json`` for the registry snapshot);
* ``obs-report`` — run traced serve traffic and render the span
  summary, per-layer profile, and metrics (text/json/prometheus;
  ``--chrome-out`` dumps an ``about:tracing`` timeline; ``--backend
  thread`` traces a full DecodeService instead of the bare engine,
  adding pool events and SLO verdicts;
  ``--endpoint HOST:PORT`` scrapes a *live* gateway's status endpoint
  instead of running local traffic, so the ``net_*`` series show up
  in the same json/prometheus formats);
* ``logs`` — pretty-print / filter a structured event log written by
  ``obs-report --log-out`` (or any :class:`repro.obs.EventLog` sink);
  ``--follow`` streams a live file like ``tail -f``; ``--tenant`` /
  ``--code-id`` isolate one tenant's or one code's records;
* ``net-serve`` — run the framed TCP decode gateway (multi-tenant
  admission, optional autoscaling) in front of a DecodeService until
  interrupted (``--obs-port`` adds the ``repro top`` status endpoint;
  see docs/SERVING.md);
* ``net-soak`` — synthetic diurnal-traffic soak against a real gateway:
  concurrent tenants, a quota-starved free tier, an injected worker
  crash, autoscaler growth and shrink, and a bit-exactness check of
  every decoded frame against ``decode_many`` (``--json`` emits the
  ``BENCH_net.json`` document); ``--chaos`` reroutes all traffic
  through fault-injecting proxies (bit corruption, resets, a
  partition, a gateway kill) and additionally asserts zero silent
  corruption and bounded retry amplification; ``--trace`` records
  wire-level trace propagation and verifies every request's
  client → gateway → worker span chain;
* ``top`` — live ops console against a ``net-serve --obs-port``
  gateway: per-tenant RED tables, queue fill, dedup/autoscaler state,
  and SLO verdicts (``--once --json`` for scripts/tests);
* ``trace-request`` — slice one request's distributed trace out of a
  merged Chrome trace (by ``--trace-id`` or client ``--job-id``) and
  render its wire/admission/queue-wait/decode/respond waterfall;
* ``chaos-proxy`` — run a standalone fault-injecting TCP proxy in
  front of any gateway (the same engine the chaos soak uses);
* ``perf-gate`` — re-run the committed ``BENCH_*.json`` baselines and
  exit non-zero when throughput regresses beyond tolerance (see
  docs/OBSERVABILITY.md);
* ``synth`` — compile a decoder program and print the synthesis report;
* ``verilog`` — compile and emit structural Verilog;
* ``alist`` — export a code's parity-check matrix in alist format.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _add_code_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family", choices=("wimax", "wifi"), default="wimax"
    )
    parser.add_argument("--rate", default="1/2", help="rate class, e.g. 1/2")
    parser.add_argument("--length", type=int, default=2304, help="codeword bits")


def _build_code(args):
    from repro.codes import wifi_code, wimax_code

    if args.family == "wimax":
        return wimax_code(args.rate, args.length)
    return wifi_code(args.rate, args.length)


def _emit_json(doc, output: str = "") -> None:
    """Print ``doc`` as sorted, indented JSON, or write it to ``output``."""
    import json

    text = json.dumps(doc, indent=2, sort_keys=True)
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {output}", file=sys.stderr)
    else:
        print(text)


def cmd_codes(_args) -> int:
    from repro.codes import WIFI_BLOCK_LENGTHS, WIFI_RATES, WIMAX_RATES, WIMAX_Z_FACTORS
    from repro.utils.tables import render_table

    rows = [["802.16e (WiMax)", rate, "576-2304 step 96"] for rate in sorted(WIMAX_RATES)]
    rows += [
        ["802.11n (WiFi)", rate, "/".join(str(n) for n in sorted(WIFI_BLOCK_LENGTHS))]
        for rate in sorted(WIFI_RATES)
    ]
    print(render_table(["family", "rate", "lengths"], rows, "Supported code families"))
    print(f"\nWiMax expansion factors: {WIMAX_Z_FACTORS[0]}..{WIMAX_Z_FACTORS[-1]} step 4")
    return 0


def cmd_demo(args) -> int:
    from repro.channel import AwgnChannel
    from repro.decoder import LayeredMinSumDecoder
    from repro.encoder import RuEncoder

    code = _build_code(args)
    rng = np.random.default_rng(args.seed)
    encoder = RuEncoder(code)
    message = rng.integers(0, 2, encoder.k).astype(np.uint8)
    codeword = encoder.encode(message)
    llrs = AwgnChannel.from_ebno(args.ebno, code.rate, seed=rng).llrs(codeword)
    result = LayeredMinSumDecoder(
        code, max_iterations=args.iterations, fixed=args.fixed
    ).decode(llrs)
    errors = int(np.count_nonzero(result.bits[: encoder.k] != message))
    print(
        f"{code.name}: Eb/N0={args.ebno} dB -> "
        f"{'converged' if result.converged else 'FAILED'} in "
        f"{result.iterations} iterations, payload errors={errors}"
    )
    return 0 if result.converged and errors == 0 else 1


def cmd_zoo_bench(args) -> int:
    from repro.codes.registry import default_registry
    from repro.errors import UnknownCodeError
    from repro.serve.zoo_bench import run_zoo_bench
    from repro.utils.tables import render_table

    if args.frames < 1:
        print("zoo-bench: --frames must be >= 1", file=sys.stderr)
        return 2
    if args.iterations < 1:
        print("zoo-bench: --iterations must be >= 1", file=sys.stderr)
        return 2

    registry = default_registry()
    code_ids = list(args.codes or ())
    if args.family:
        code_ids.extend(
            cid for cid in registry.ids()
            if registry.entry(cid).family == args.family
            and cid not in code_ids
        )
        if not code_ids:
            print(
                f"zoo-bench: no registry codes in family {args.family!r} "
                f"(families: "
                f"{sorted({registry.entry(i).family for i in registry.ids()})})",
                file=sys.stderr,
            )
            return 2
    if args.all:
        code_ids = list(registry.ids())

    try:
        report = run_zoo_bench(
            code_ids=code_ids or None,
            frames=args.frames,
            ebno_db=args.ebno,
            iterations=args.iterations,
            fixed=args.fixed,
            seed=args.seed,
            schedule=args.schedule,
        )
    except UnknownCodeError as exc:
        print(f"zoo-bench: {exc}", file=sys.stderr)
        return 2

    exact = all(r["mismatches"] == 0 for r in report["rows"])
    if args.json:
        _emit_json(report, args.output)
        return 0 if exact else 1

    rows = [
        [
            r["mode"],
            r["family"],
            r["n"],
            f"{r['rate']:.3f}",
            f"{r['frames_per_s']:.1f}",
            f"{r['fer']:.3f}",
            f"{r['mean_iterations']:.2f}",
            r["mismatches"],
        ]
        for r in report["rows"]
    ]
    print(
        render_table(
            ["code id", "family", "n", "rate", "frames/s", "FER", "mean it",
             "mismatches"],
            rows,
            title=(
                f"zoo-bench: {len(rows)} codes, Eb/N0={args.ebno} dB, "
                f"{report['arithmetic']}, schedule={args.schedule}, "
                f"{args.frames} frames each"
            ),
        )
    )
    if not exact:
        print("WARNING: some code disagrees with the per-frame decoder")
    return 0 if exact else 1


def cmd_accel_bench(args) -> int:
    from repro.accel.bench import DEFAULT_MODES, run_accel_bench
    from repro.utils.tables import render_table

    if args.frames < 1:
        print("accel-bench: --frames must be >= 1", file=sys.stderr)
        return 2
    if args.batch < 1:
        print("accel-bench: --batch must be >= 1", file=sys.stderr)
        return 2
    modes = tuple(args.modes) if args.modes else DEFAULT_MODES
    unknown = [m for m in modes if m not in DEFAULT_MODES]
    if unknown:
        print(
            f"accel-bench: unknown modes {unknown}; choose from "
            f"{list(DEFAULT_MODES)}",
            file=sys.stderr,
        )
        return 2

    report = run_accel_bench(
        code=_build_code(args),
        frames=args.frames,
        batch=args.batch,
        ebno_db=args.ebno,
        iterations=args.iterations,
        fixed=not args.float,
        seed=args.seed,
        modes=modes,
    )
    exact = all(r["mismatches"] == 0 for r in report["rows"])
    if args.json:
        _emit_json(report, args.output)
        return 0 if exact else 1

    rows = [
        [
            r["mode"],
            f"{r['frames_per_s']:.1f}",
            f"{r['per_layer_ns']:.0f}",
            f"{r['speedup_vs_per_frame']:.2f}x",
            (
                f"{r['speedup_vs_batch']:.2f}x"
                if r["speedup_vs_batch"] is not None
                else "-"
            ),
            r["converged"],
            r["mismatches"],
        ]
        for r in report["rows"]
    ]
    print(
        render_table(
            ["mode", "frames/s", "per-layer ns", "vs per-frame", "vs batch",
             "converged", "mismatches"],
            rows,
            title=(
                f"accel-bench: {report['code']}, Eb/N0={report['ebno_db']} dB, "
                f"{report['arithmetic']}, {report['frames']} frames, "
                f"batch {report['batch']}"
            ),
        )
    )
    if not exact:
        print("WARNING: some mode disagrees with the per-frame decoder")
    return 0 if exact else 1


def cmd_faults_bench(args) -> int:
    from repro.faults import ALL_SITES, FaultCampaign

    if args.frames < 1:
        print("faults-bench: --frames must be >= 1", file=sys.stderr)
        return 2
    sites = tuple(args.sites) if args.sites else ("p_mem", "r_mem", "llr")
    unknown = [s for s in sites if s not in ALL_SITES]
    if unknown:
        print(
            f"faults-bench: unknown sites {unknown}; choose from {ALL_SITES}",
            file=sys.stderr,
        )
        return 2
    registry = None
    if args.json:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    campaign = FaultCampaign(
        _build_code(args),
        sites=sites,
        rates=tuple(args.rates),
        frames_per_cell=args.frames,
        ebno_db=args.ebno,
        seed=args.seed,
        max_iterations=args.iterations,
        registry=registry,
    )
    result = campaign.run()
    if args.json:
        from repro.utils.provenance import bench_meta

        cells = [
            {
                "site": c.site,
                "rate": c.rate,
                "frames": c.frames,
                "frame_errors": c.frame_errors,
                "detected_errors": c.detected_errors,
                "silent_errors": c.silent_errors,
                "injections": c.injections,
                "fer": c.fer,
                "silent_rate": c.silent_rate,
                "detection_rate": c.detection_rate,
                "mean_iterations": c.mean_iterations,
            }
            for c in result.baselines + result.cells
        ]
        doc = bench_meta("faults")
        doc.update(
            {
                "code": result.code_name,
                "ebno_db": result.ebno_db,
                "seed": result.seed,
                "frames_per_cell": result.frames_per_cell,
                "cells": cells,
                "metrics": registry.to_dict(),
            }
        )
        _emit_json(doc)
        return 0
    print(result.report())
    return 0


def _parse_hostport(spec, default_host="127.0.0.1"):
    """``HOST:PORT`` (or bare ``PORT``) -> (host, port)."""
    host, sep, port_part = spec.rpartition(":")
    if not sep:
        host, port_part = default_host, spec
    return (host or default_host), int(port_part)


def cmd_obs_report(args) -> int:
    from repro.accel.bench import generate_traffic
    from repro.obs import EventLog, TraceRecorder, layer_profile_report
    from repro.obs.slo import default_serve_slos
    from repro.serve import ContinuousBatchingEngine, DecodeJob, ServeMetrics
    from repro.serve.pool import DecodeService

    if args.endpoint:
        # scrape a live gateway's status endpoint instead of running
        # local traffic — same formats, so dashboards don't care
        from repro.net.console import fetch_status, render_top

        try:
            host, port = _parse_hostport(args.endpoint)
            status = fetch_status(host, port)
        except (OSError, ValueError) as exc:
            print(f"obs-report: endpoint {args.endpoint}: {exc}",
                  file=sys.stderr)
            return 2
        if args.format == "prometheus":
            print(status.get("prometheus", ""), end="")
        elif args.format == "json":
            doc = dict(status)
            doc.pop("prometheus", None)  # redundant with "metrics"
            _emit_json(doc)
        else:
            print(render_top(status))
        return 0

    if args.frames < 1:
        print("obs-report: --frames must be >= 1", file=sys.stderr)
        return 2
    if args.batch < 1:
        print("obs-report: --batch must be >= 1", file=sys.stderr)
        return 2

    code = _build_code(args)
    traffic = generate_traffic(code, args.frames, args.ebno, args.seed)

    recorder = TraceRecorder()
    log = EventLog(path=args.log_out or None, recorder=recorder)
    slo_report = None
    if args.backend == "engine":
        metrics = ServeMetrics()
        engine = ContinuousBatchingEngine(
            code,
            batch_size=args.batch,
            max_iterations=args.iterations,
            fixed=args.fixed,
            metrics=metrics,
            recorder=recorder,
        )
        engine.run([DecodeJob(llrs=f) for f in traffic])
    else:
        # full service: pool events, structured log and SLO verdicts
        monitor = default_serve_slos()
        service = DecodeService(
            code,
            batch_size=args.batch,
            max_iterations=args.iterations,
            fixed=args.fixed,
            recorder=recorder,
            log=log,
            slo=monitor,
        )
        metrics = service.metrics
        try:
            # warm-up: one frame through the service, then zero the
            # serving metrics so the SLO window covers only the
            # measured traffic
            service.submit(traffic[0], timeout=None).result()
            metrics.reset()
            futures = [service.submit(f, timeout=None) for f in traffic]
            for future in futures:
                future.result()
            slo_report = service.health().slo
        finally:
            service.close()
    log.close()

    if args.chrome_out:
        recorder.write_chrome_trace(args.chrome_out)
        print(f"wrote Chrome trace to {args.chrome_out}", file=sys.stderr)
    if args.log_out:
        print(f"wrote event log to {args.log_out}", file=sys.stderr)

    registry = metrics.registry
    if args.format == "json":
        doc = {"spans": recorder.summary(), "metrics": registry.to_dict()}
        if slo_report is not None:
            doc["slo"] = slo_report.to_dict()
        _emit_json(doc)
    elif args.format == "prometheus":
        print(registry.render_prometheus(), end="")
    else:
        print(
            recorder.report(
                title=(
                    f"obs-report: {code.name}, {args.frames} frames, "
                    f"batch {args.batch}, backend {args.backend}"
                )
            )
        )
        print()
        print(
            layer_profile_report(
                recorder, span_name="batch.layer",
                title="per-layer wall time (batch.layer)",
            )
        )
        print()
        print(registry.render_text(title="serve metrics"))
        if slo_report is not None:
            print()
            print(slo_report.report())
    return 0


def cmd_logs(args) -> int:
    import json

    from repro.obs.log import follow_log, format_record, format_records, read_log

    def emit(record):
        if args.json:
            print(json.dumps(record.to_dict(), sort_keys=True), flush=True)
        else:
            print(format_record(record), flush=True)

    fields = {}
    if args.tenant:
        fields["tenant"] = args.tenant
    if args.code_id:
        fields["code_id"] = args.code_id
    fields = fields or None

    if args.follow:
        # replay the existing tail, then stream appends until Ctrl-C
        from_start = False
        try:
            records = read_log(args.file, level=args.level or None,
                               event=args.event or None, fields=fields)
        except OSError:
            # not written yet; once it appears, replay it from the top
            records = []
            from_start = True
        except ValueError as exc:
            print(f"logs: {exc}", file=sys.stderr)
            return 2
        if args.tail > 0:
            records = records[-args.tail:]
        for record in records:
            emit(record)
        try:
            for record in follow_log(args.file, level=args.level or None,
                                     event=args.event or None,
                                     fields=fields,
                                     from_start=from_start):
                emit(record)
        except KeyboardInterrupt:
            pass
        return 0

    try:
        records = read_log(args.file, level=args.level or None,
                           event=args.event or None, fields=fields)
    except OSError as exc:
        print(f"logs: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"logs: {exc}", file=sys.stderr)
        return 2
    if args.tail > 0:
        records = records[-args.tail:]
    if args.json:
        for record in records:
            print(json.dumps(record.to_dict(), sort_keys=True))
    elif records:
        print(format_records(records))
    return 0


def _parse_tenants(specs):
    """``name:rate:burst[:priority]`` CLI specs -> TenantPolicy mapping."""
    from repro.net.admission import BRONZE, GOLD, SILVER, TenantPolicy

    classes = {"gold": GOLD, "silver": SILVER, "bronze": BRONZE}
    tenants = {}
    for spec in specs:
        parts = spec.split(":")
        if not 3 <= len(parts) <= 4:
            raise ValueError(
                f"bad tenant spec {spec!r}; want name:rate:burst[:priority]"
            )
        priority = GOLD
        if len(parts) == 4:
            key = parts[3].lower()
            priority = classes[key] if key in classes else int(parts[3])
        tenants[parts[0]] = TenantPolicy(
            rate=float(parts[1]), burst=float(parts[2]), priority=priority
        )
    return tenants


def cmd_net_serve(args) -> int:
    import asyncio

    from repro.net.admission import AdmissionController, TenantPolicy
    from repro.net.autoscaler import Autoscaler
    from repro.net.gateway import DecodeGateway
    from repro.obs import EventLog, TraceRecorder
    from repro.obs.slo import default_serve_slos
    from repro.serve.pool import DecodeService

    try:
        tenants = _parse_tenants(args.tenant)
    except (KeyError, ValueError) as exc:
        print(f"net-serve: {exc}", file=sys.stderr)
        return 2
    # with no explicit tenants, admit anyone under a generous default
    default_policy = None if tenants else TenantPolicy(rate=1e9, burst=1e9)

    code = _build_code(args)
    recorder = TraceRecorder()
    log = EventLog(path=args.log_out or None, recorder=recorder)
    service = DecodeService(
        code,
        batch_size=args.batch,
        max_iterations=args.iterations,
        fixed=args.fixed,
        queue_capacity=args.queue_capacity,
        recorder=recorder,
        log=log,
        slo=default_serve_slos(),
    )
    admission = AdmissionController(
        tenants,
        max_iterations=args.iterations,
        default_policy=default_policy,
    )
    gateway = DecodeGateway(
        service, admission, host=args.host, port=args.port,
        log=log, recorder=recorder,
    )
    scaler = None
    if args.max_shards > 1:
        scaler = Autoscaler(
            service,
            min_shards=1,
            max_shards=args.max_shards,
            log=log,
        )

    async def _run() -> None:
        host, port = await gateway.start()
        print(f"net-serve: listening on {host}:{port} "
              f"(code {code.name})", flush=True)
        obs = None
        if args.obs_port is not None:
            from repro.net.console import ObsEndpoint

            obs = ObsEndpoint(
                gateway, host=args.host, port=args.obs_port,
                autoscaler=scaler,
            )
            await obs.start()
            obs_host, obs_port = obs.address
            print(f"net-serve: status endpoint on {obs_host}:{obs_port} "
                  f"(watch it with `repro top --port {obs_port}`)",
                  flush=True)
        if scaler is not None:
            scaler.start()
        try:
            await asyncio.Event().wait()  # until Ctrl-C cancels us
        finally:
            if obs is not None:
                await obs.close()
            await gateway.close(drain=True)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        if scaler is not None:
            scaler.stop()
        service.close()
        log.close()
    print("net-serve: drained and closed", file=sys.stderr)
    return 0


def cmd_net_soak(args) -> int:
    from repro.net.soak import SoakConfig, run_net_soak
    from repro.utils.tables import render_table

    if args.connections < 1:
        print("net-soak: --connections must be >= 1", file=sys.stderr)
        return 2
    if args.frames < 1:
        print("net-soak: --frames must be >= 1", file=sys.stderr)
        return 2
    phases = tuple(
        (name, load, duration * args.duration_scale)
        for name, load, duration in SoakConfig().phases
    )
    cfg = SoakConfig(
        family=args.family,
        rate_class=args.rate,
        length=args.length,
        iterations=args.iterations,
        fixed=args.fixed,
        batch=args.batch,
        queue_capacity=args.queue_capacity,
        connections=args.connections,
        peak_frames_per_conn=args.frames,
        phases=phases,
        ebno_db=args.ebno,
        seed=args.seed,
        inject_crash=not args.no_crash,
        max_shards=args.max_shards,
        chaos=args.chaos,
        replicas=args.replicas,
        chaos_corrupt_p=args.corrupt_p,
        partition_s=args.partition_s,
        kill_gateway=not args.no_kill_gateway,
        hedge_delay_s=args.hedge_delay,
        heartbeat_s=args.heartbeat,
        trace=args.trace,
    )
    doc = run_net_soak(
        cfg,
        log_path=args.log_out or None,
        trace_path=args.trace_out or None,
        top_path=args.top_out or None,
        progress=(None if args.json else
                  (lambda msg: print(f"net-soak: {msg}", file=sys.stderr))),
    )
    verify = doc["verify"]
    slo = doc["slo"] or {}
    ok = verify["mismatches"] == 0 and slo.get("status") == "pass"
    if args.chaos:
        ok = ok and doc["chaos"]["amplification"] < 2.0
    trace_verify = doc.get("trace_verify")
    if trace_verify is not None:
        ok = ok and trace_verify["ok"]
    if args.json:
        _emit_json(doc, args.output)
        return 0 if ok else 1

    mode = doc["modes"][0]
    print(
        render_table(
            ["tenant", "ok", "quota_rejected", "retries", "failed",
             "unconverged"],
            [
                [name, s["ok"], s["quota_rejected"], s["retries"],
                 s["failed"], s["unconverged"]]
                for name, s in sorted(doc["tenants"].items())
            ],
            title=(
                f"net-soak: {doc['code']}, {args.connections} connections, "
                f"{mode['frames_per_s']:.1f} frames/s"
            ),
        )
    )
    scale = doc["autoscaler"]
    crash = doc["crash"]
    print(
        f"\nlatency p50/p99: {mode['p50_latency_s'] * 1e3:.1f} / "
        f"{mode['p99_latency_s'] * 1e3:.1f} ms"
        f"\nautoscaler: up={scale['up']} down={scale['down']} "
        f"replace={scale['replace']}"
        f"\ncrash: injected={crash['injected']} "
        f"crashes={crash['worker_crashes']} restarts={crash['worker_restarts']}"
        f"\nverify: {verify['checked']} frames checked, "
        f"{verify['mismatches']} mismatches, "
        f"{verify['unconverged']} unconverged"
        f"\nslo: {slo.get('status', 'unknown')}"
    )
    if trace_verify is not None:
        print(
            f"trace: {trace_verify['traces']} traces, "
            f"{trace_verify['checked']} chains checked, "
            f"{trace_verify['broken']} broken"
        )
    if args.chaos:
        chaos = doc["chaos"]
        injected = {
            key: sum(p[key] for p in chaos["proxies"])
            for key in ("corrupted_bytes", "truncations", "resets",
                        "delays", "partial_writes")
        }
        clients = chaos["clients"]
        print(
            f"chaos: partition={chaos['partitioned']} "
            f"gateway_killed={chaos['gateway_killed']} "
            f"crc_detected={chaos['crc_detected']} injected={injected}"
            f"\nchaos clients: amplification="
            f"{chaos['amplification']:.2f}x "
            f"retries={clients['retries']} hedges={clients['hedges']} "
            f"reconnects={clients['reconnects']} "
            f"dedup_hits={chaos['dedup']['hits']}"
            f"+{chaos['dedup']['joined']} joined"
        )
    if args.log_out:
        print(f"wrote event log to {args.log_out}", file=sys.stderr)
    if args.trace_out:
        print(f"wrote Chrome trace to {args.trace_out}", file=sys.stderr)
    if args.top_out:
        print(f"wrote top snapshot to {args.top_out}", file=sys.stderr)
    return 0 if ok else 1


def cmd_top(args) -> int:
    from repro.errors import ReproError
    from repro.net.console import run_top

    try:
        host, port = _parse_hostport(
            args.endpoint, default_host=args.host
        ) if args.endpoint else (args.host, args.port)
    except ValueError as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 2
    try:
        run_top(
            host, port,
            interval_s=args.interval,
            once=args.once,
            as_json=args.json,
        )
    except (OSError, ReproError, ValueError) as exc:
        print(f"top: {host}:{port}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_trace_request(args) -> int:
    import json

    from repro.obs.request_trace import (
        TraceLookupError,
        extract_request,
        format_waterfall,
        load_chrome_trace,
        request_waterfall,
        trace_ids,
    )

    try:
        doc = load_chrome_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"trace-request: {exc}", file=sys.stderr)
        return 2
    if args.list:
        for trace in trace_ids(doc):
            print(trace)
        return 0
    try:
        request = extract_request(
            doc, trace_id=args.trace_id, job_id=args.job_id
        )
    except TraceLookupError as exc:
        print(f"trace-request: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(request, handle, sort_keys=True)
            handle.write("\n")
        print(f"wrote request slice to {args.output}", file=sys.stderr)
    waterfall = request_waterfall(request)
    if args.json:
        _emit_json(waterfall)
    else:
        print(format_waterfall(waterfall))
    return 0


def cmd_chaos_proxy(args) -> int:
    import asyncio

    from repro.chaos import ChaosConfig, ChaosProxy
    from repro.utils.provenance import bench_meta

    target = args.target
    host_part, sep, port_part = target.rpartition(":")
    if not sep or not host_part:
        print(f"chaos-proxy: --target must be HOST:PORT, got {target!r}",
              file=sys.stderr)
        return 2
    try:
        target_port = int(port_part)
    except ValueError:
        print(f"chaos-proxy: bad target port {port_part!r}", file=sys.stderr)
        return 2
    chaos_cfg = ChaosConfig(
        seed=args.seed,
        corrupt_p=args.corrupt_p,
        truncate_p=args.truncate_p,
        reset_p=args.reset_p,
        latency_p=args.latency_p,
        latency_s=args.latency_s,
        partial_write_p=args.partial_p,
    )
    proxy = ChaosProxy(
        host_part, target_port, chaos_cfg, host=args.host, port=args.port
    )

    async def _run() -> None:
        host, port = await proxy.start()
        print(
            f"chaos-proxy: {host}:{port} -> {host_part}:{target_port} "
            f"(corrupt_p={args.corrupt_p:g}, reset_p={args.reset_p:g}, "
            f"seed={args.seed}; Ctrl-C to stop)",
            file=sys.stderr, flush=True,
        )
        try:
            await asyncio.Event().wait()  # until Ctrl-C cancels us
        finally:
            await proxy.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    doc = bench_meta("chaos")
    doc.update(
        {
            "target": f"{host_part}:{target_port}",
            "config": chaos_cfg.to_dict(),
            "injected": proxy.injected(),
        }
    )
    if args.json:
        _emit_json(doc)
    else:
        print(f"chaos-proxy: injected {doc['injected']}", file=sys.stderr)
    return 0


def cmd_perf_gate(args) -> int:
    import os

    from repro.obs.perfgate import DEFAULT_BASELINES, PerfGateError, run_perf_gate

    baselines = args.baseline or [
        name for name in DEFAULT_BASELINES if os.path.exists(name)
    ]
    if not baselines:
        print(
            "perf-gate: no baselines found (pass --baseline or run from "
            "the repository root)",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_perf_gate(
            baselines,
            k=args.k,
            tolerance=args.tolerance,
            modes=args.modes,
            history_path=args.history or None,
        )
    except PerfGateError as exc:
        print(f"perf-gate: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(report.report())
    return 0 if report.ok else 1


def cmd_experiments(args) -> int:
    from repro.eval.__main__ import main as eval_main

    return eval_main(args.ids)


def _compile(args):
    from repro.hls import PicoCompiler
    from repro.hls.programs import (
        DecoderProfile,
        build_perlayer_program,
        build_pipelined_program,
    )

    code = _build_code(args)
    profile = DecoderProfile.from_code(
        code, r_words=84 if code.z == 96 else None
    )
    builder = (
        build_pipelined_program
        if args.architecture == "pipelined"
        else build_perlayer_program
    )
    return PicoCompiler(clock_mhz=args.clock).compile(builder(profile))


def cmd_synth(args) -> int:
    from repro.hls.report import synthesis_report

    print(synthesis_report(_compile(args)))
    return 0


def cmd_verilog(args) -> int:
    from repro.hls.verilog import emit_verilog

    text = emit_verilog(_compile(args))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {len(text.splitlines())} lines to {args.output}")
    else:
        print(text)
    return 0


def cmd_alist(args) -> int:
    from repro.codes.alist import to_alist

    text = to_alist(_build_code(args))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.obs.perfgate import DEFAULT_BASELINES, DEFAULT_K, DEFAULT_TOLERANCE

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("codes", help="list supported code families")

    demo = sub.add_parser("demo", help="decode one noisy frame")
    _add_code_args(demo)
    demo.add_argument("--ebno", type=float, default=2.0)
    demo.add_argument("--iterations", type=int, default=10)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--fixed", action="store_true", help="8-bit datapath")

    exp = sub.add_parser("experiments", help="regenerate paper artifacts")
    exp.add_argument("ids", nargs="*", help="experiment ids (default: all)")

    zb = sub.add_parser(
        "zoo-bench",
        help="per-code throughput/FER across the registry zoo",
    )
    zb.add_argument(
        "--codes", nargs="*", default=None,
        help="registry ids to bench (default: a representative subset)",
    )
    zb.add_argument(
        "--family", default="",
        help="add every registry code of this family (wimax, wifi, nr)",
    )
    zb.add_argument(
        "--all", action="store_true",
        help="bench the entire registry",
    )
    zb.add_argument("--ebno", type=float, default=4.0)
    zb.add_argument("--frames", type=int, default=32, help="frames per code")
    zb.add_argument("--iterations", type=int, default=10)
    zb.add_argument("--seed", type=int, default=11)
    zb.add_argument("--fixed", action="store_true", help="8-bit datapath")
    zb.add_argument(
        "--schedule", choices=("row", "column"), default="row",
        help="layered schedule for the batch kernel",
    )
    zb.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable BENCH_zoo.json document",
    )
    zb.add_argument(
        "--output", "-o", default="",
        help="with --json, write the document to this path",
    )

    ab = sub.add_parser(
        "accel-bench",
        help="frames/s + per-layer ns across all decode paths",
    )
    _add_code_args(ab)
    ab.add_argument("--ebno", type=float, default=2.5)
    ab.add_argument("--frames", type=int, default=128, help="traffic size")
    ab.add_argument("--batch", type=int, default=64, help="decoder slots")
    ab.add_argument("--iterations", type=int, default=10)
    ab.add_argument("--seed", type=int, default=5)
    ab.add_argument(
        "--float", action="store_true",
        help="float datapath (default: the paper's 8-bit fixed datapath)",
    )
    ab.add_argument(
        "--modes", nargs="*", default=None,
        help="subset of modes to run (default: all four)",
    )
    ab.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable BENCH_accel.json document",
    )
    ab.add_argument(
        "--output", "-o", default="",
        help="with --json, write the document to this path",
    )

    fb = sub.add_parser(
        "faults-bench", help="fault-injection campaign (FER/silent/detect)"
    )
    _add_code_args(fb)
    fb.add_argument("--ebno", type=float, default=5.0)
    fb.add_argument("--frames", type=int, default=20, help="frames per cell")
    fb.add_argument("--iterations", type=int, default=10)
    fb.add_argument("--seed", type=int, default=0)
    fb.add_argument(
        "--sites", nargs="*", default=None,
        help="injection sites (default: p_mem r_mem llr)",
    )
    fb.add_argument(
        "--rates", nargs="*", type=float, default=(1e-4, 1e-3, 1e-2),
        help="per-access fault probabilities",
    )
    fb.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report (metrics registry snapshot)",
    )

    ob = sub.add_parser(
        "obs-report",
        help="traced serve run: span summary, layer profile, metrics",
    )
    _add_code_args(ob)
    ob.add_argument("--ebno", type=float, default=2.5)
    ob.add_argument("--frames", type=int, default=32, help="traffic size")
    ob.add_argument("--batch", type=int, default=8, help="decoder slots")
    ob.add_argument("--iterations", type=int, default=10)
    ob.add_argument("--seed", type=int, default=0)
    ob.add_argument("--fixed", action="store_true", help="8-bit datapath")
    ob.add_argument(
        "--format", choices=("text", "json", "prometheus"), default="text",
        help="metrics output format",
    )
    ob.add_argument(
        "--chrome-out", default="",
        help="also write the trace as Chrome-trace JSON to this path",
    )
    ob.add_argument(
        "--backend", choices=("engine", "thread"),
        default="engine",
        help="decode surface to trace: bare continuous engine (default) "
             "or a full thread-backed DecodeService (adds pool events "
             "and SLO verdicts)",
    )
    ob.add_argument(
        "--log-out", default="",
        help="also write the structured event log (JSONL) to this path",
    )
    ob.add_argument(
        "--endpoint", default="", metavar="HOST:PORT",
        help="scrape a live gateway's status endpoint (net-serve "
             "--obs-port) instead of running local traffic; honours "
             "--format json/prometheus/text",
    )

    lg = sub.add_parser(
        "logs", help="pretty-print / filter a structured event log (JSONL)"
    )
    lg.add_argument("file", help="event log path (see obs-report --log-out)")
    lg.add_argument(
        "--level", default="",
        help="minimum severity (debug/info/warning/error)",
    )
    lg.add_argument("--event", default="", help="exact event name filter")
    lg.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="only the last N matching records",
    )
    lg.add_argument(
        "--json", action="store_true",
        help="re-emit matching records as JSON lines",
    )
    lg.add_argument(
        "--follow", "-f", action="store_true",
        help="after printing the current tail, stream new records as "
             "they are appended (like tail -f; Ctrl-C stops)",
    )
    lg.add_argument(
        "--tenant", default="",
        help="only records whose tenant field matches",
    )
    lg.add_argument(
        "--code-id", default="",
        help="only records whose code_id field matches (HARQ rung "
             "switches, autoscaler decisions, request incidents)",
    )

    nsv = sub.add_parser(
        "net-serve",
        help="run the framed TCP decode gateway until interrupted",
    )
    _add_code_args(nsv)
    nsv.add_argument("--host", default="127.0.0.1")
    nsv.add_argument("--port", type=int, default=7207, help="0 = OS-assigned")
    nsv.add_argument("--batch", type=int, default=16, help="decoder slots")
    nsv.add_argument("--iterations", type=int, default=10)
    nsv.add_argument("--fixed", action="store_true", help="8-bit datapath")
    nsv.add_argument("--queue-capacity", type=int, default=256)
    nsv.add_argument(
        "--tenant", action="append", default=[], metavar="NAME:RATE:BURST[:PRI]",
        help="tenant quota spec (repeatable); PRI is gold/silver/bronze "
             "or a number; with no specs every tenant is admitted",
    )
    nsv.add_argument(
        "--max-shards", type=int, default=1,
        help="enable SLO-driven autoscaling up to this many shards",
    )
    nsv.add_argument(
        "--log-out", default="",
        help="write the structured event log (JSONL) to this path "
             "(tail it with `repro logs --follow`)",
    )
    nsv.add_argument(
        "--obs-port", type=int, default=None, metavar="PORT",
        help="also serve the JSON status endpoint for `repro top` on "
             "this port (0 = OS-assigned; omit to disable)",
    )

    ns = sub.add_parser(
        "net-soak",
        help="diurnal-traffic soak of the gateway with verification",
    )
    _add_code_args(ns)
    ns.set_defaults(length=576)
    ns.add_argument("--ebno", type=float, default=4.0)
    ns.add_argument("--connections", type=int, default=60)
    ns.add_argument(
        "--frames", type=int, default=6,
        help="frames per connection during the peak phase",
    )
    ns.add_argument(
        "--duration-scale", type=float, default=1.0,
        help="stretch/compress the diurnal phase durations",
    )
    ns.add_argument("--batch", type=int, default=8, help="decoder slots")
    ns.add_argument("--iterations", type=int, default=10)
    ns.add_argument("--seed", type=int, default=0)
    ns.add_argument("--fixed", action="store_true", help="8-bit datapath")
    ns.add_argument("--queue-capacity", type=int, default=16)
    ns.add_argument("--max-shards", type=int, default=3)
    ns.add_argument(
        "--no-crash", action="store_true",
        help="skip the mid-peak worker crash injection",
    )
    ns.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable BENCH_net.json document",
    )
    ns.add_argument(
        "--output", "-o", default="",
        help="with --json, write the document to this path",
    )
    ns.add_argument(
        "--log-out", default="",
        help="write the structured event log (JSONL) to this path",
    )
    ns.add_argument(
        "--trace-out", default="",
        help="write the Chrome trace JSON to this path",
    )
    ns.add_argument(
        "--chaos", action="store_true",
        help="route all traffic through fault-injecting proxies and "
             "assert zero silent corruption + bounded retry "
             "amplification (see docs/SERVING.md)",
    )
    ns.add_argument(
        "--replicas", type=int, default=2,
        help="gateway replicas behind chaos proxies (chaos mode)",
    )
    ns.add_argument(
        "--corrupt-p", type=float, default=1e-3,
        help="per-byte corruption probability on the hostile proxy",
    )
    ns.add_argument(
        "--partition-s", type=float, default=0.5,
        help="duration of the mid-peak network partition",
    )
    ns.add_argument(
        "--no-kill-gateway", action="store_true",
        help="skip killing the last gateway replica in the final phase",
    )
    ns.add_argument(
        "--hedge-delay", type=float, default=1.0,
        help="seconds before a slow request is hedged on another replica",
    )
    ns.add_argument(
        "--heartbeat", type=float, default=0.5,
        help="PING cadence for dead-peer detection (both directions)",
    )
    ns.add_argument(
        "--trace", action="store_true",
        help="record wire-level trace propagation and "
             "verify every request's client->gateway->worker span chain "
             "in the merged Chrome trace",
    )
    ns.add_argument(
        "--top-out", default="",
        help="write a `repro top --once --json` status snapshot taken "
             "at the end of the soak to this path",
    )

    tp = sub.add_parser(
        "top",
        help="live ops console against a net-serve --obs-port gateway",
    )
    tp.add_argument("--host", default="127.0.0.1")
    tp.add_argument("--port", type=int, default=7208)
    tp.add_argument(
        "--endpoint", default="", metavar="HOST:PORT",
        help="status endpoint address (overrides --host/--port)",
    )
    tp.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh period in seconds for the live view",
    )
    tp.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (no alternate screen)",
    )
    tp.add_argument(
        "--json", action="store_true",
        help="print the raw status document instead of tables",
    )

    tr = sub.add_parser(
        "trace-request",
        help="extract one request's distributed trace + waterfall "
             "from a merged Chrome trace (net-soak --trace --trace-out)",
    )
    tr.add_argument("file", help="Chrome trace JSON path")
    tr.add_argument(
        "--trace-id", type=int, default=None,
        help="distributed trace id to extract",
    )
    tr.add_argument(
        "--job-id", type=int, default=None,
        help="client-side wire job id to look the trace up by",
    )
    tr.add_argument(
        "--list", action="store_true",
        help="list every distributed trace id in the document and exit",
    )
    tr.add_argument(
        "--json", action="store_true",
        help="emit the waterfall as JSON instead of a text bar chart",
    )
    tr.add_argument(
        "--output", "-o", default="",
        help="also write the extracted single-request Chrome trace "
             "(opens in Perfetto) to this path",
    )

    cp = sub.add_parser(
        "chaos-proxy",
        help="run a standalone fault-injecting TCP proxy until interrupted",
    )
    cp.add_argument(
        "--target", required=True, metavar="HOST:PORT",
        help="the real gateway to proxy onto",
    )
    cp.add_argument("--host", default="127.0.0.1")
    cp.add_argument("--port", type=int, default=0, help="0 = OS-assigned")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument(
        "--corrupt-p", type=float, default=1e-3,
        help="per-byte corruption probability",
    )
    cp.add_argument(
        "--truncate-p", type=float, default=0.0,
        help="per-chunk truncation probability",
    )
    cp.add_argument(
        "--reset-p", type=float, default=0.0,
        help="per-chunk connection-reset probability",
    )
    cp.add_argument(
        "--latency-p", type=float, default=0.0,
        help="per-chunk latency-spike probability",
    )
    cp.add_argument(
        "--latency-s", type=float, default=0.02,
        help="latency spike magnitude (seconds)",
    )
    cp.add_argument(
        "--partial-p", type=float, default=0.0,
        help="per-chunk partial-write probability",
    )
    cp.add_argument(
        "--json", action="store_true",
        help="on exit, emit the provenance header + injection counters "
             "as JSON",
    )

    pg = sub.add_parser(
        "perf-gate",
        help="re-run committed BENCH_*.json baselines and fail on regression",
    )
    pg.add_argument(
        "--baseline", action="append", default=[],
        help="bench JSON baseline to gate (repeatable; default: the "
             f"committed {', '.join(DEFAULT_BASELINES)})",
    )
    pg.add_argument(
        "--k", type=int, default=DEFAULT_K,
        help="re-runs per baseline (the median is compared)",
    )
    pg.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed relative slowdown (0.30 = 30%% below baseline fails)",
    )
    pg.add_argument(
        "--modes", nargs="*", default=None,
        help="restrict the gate to these mode names",
    )
    pg.add_argument(
        "--history", default="BENCH_history.jsonl",
        help="bench history JSONL to append to ('' disables)",
    )
    pg.add_argument(
        "--json", action="store_true",
        help="emit the gate report as JSON",
    )

    for name, helptext in (
        ("synth", "print the synthesis report"),
        ("verilog", "emit structural Verilog"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_code_args(p)
        p.add_argument(
            "--architecture", choices=("perlayer", "pipelined"),
            default="pipelined",
        )
        p.add_argument("--clock", type=float, default=400.0)
        if name == "verilog":
            p.add_argument("--output", "-o", default="")

    al = sub.add_parser("alist", help="export H in alist format")
    _add_code_args(al)
    al.add_argument("--output", "-o", default="")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "codes": cmd_codes,
        "demo": cmd_demo,
        "experiments": cmd_experiments,
        "zoo-bench": cmd_zoo_bench,
        "accel-bench": cmd_accel_bench,
        "faults-bench": cmd_faults_bench,
        "obs-report": cmd_obs_report,
        "logs": cmd_logs,
        "net-serve": cmd_net_serve,
        "net-soak": cmd_net_soak,
        "top": cmd_top,
        "trace-request": cmd_trace_request,
        "chaos-proxy": cmd_chaos_proxy,
        "perf-gate": cmd_perf_gate,
        "synth": cmd_synth,
        "verilog": cmd_verilog,
        "alist": cmd_alist,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
