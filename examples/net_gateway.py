"""Serve LDPC decode traffic over TCP through the network gateway.

Demonstrates the `repro.net` stack end to end, all in one process:

* a :class:`DecodeGateway` (framed TCP protocol, OS-assigned port) in
  front of a :class:`DecodeService`;
* multi-tenant admission — a ``gold`` tenant with headroom and a
  ``free`` tenant whose token bucket runs dry mid-run, surfacing as
  :class:`~repro.errors.QuotaExceededError` on the client;
* both client flavours: the blocking :class:`DecodeClient` and the
  asyncio :class:`AsyncDecodeClient` with pipelined requests;
* a bit-exactness check of every remote result against the in-process
  :func:`repro.decoder.decode_many` on the same (quantized) LLRs.

Run:  python examples/net_gateway.py [--frames N]
"""

import argparse
import asyncio

import numpy as np

from repro.channel import AwgnChannel
from repro.codes import wimax_code
from repro.decoder import decode_many
from repro.encoder import RuEncoder
from repro.errors import QuotaExceededError
from repro.net import (
    GOLD,
    AdmissionController,
    AsyncDecodeClient,
    DecodeClient,
    DecodeGateway,
    TenantPolicy,
    pack_llrs,
    unpack_llrs,
)
from repro.serve import DecodeService


def make_traffic(code, count, ebno_db, rng):
    """Random payloads, encoded and AWGN-corrupted, as canonical
    (wire-quantized) LLR vectors."""
    encoder = RuEncoder(code)
    frames = []
    for _ in range(count):
        message = rng.integers(0, 2, encoder.k).astype(np.uint8)
        codeword = encoder.encode(message)
        channel = AwgnChannel.from_ebno(ebno_db, code.rate, seed=rng)
        frames.append(unpack_llrs(*pack_llrs(channel.llrs(codeword))))
    return frames


async def run_async_clients(host, port, frames):
    """One pipelined gold connection plus a quota-starved free one."""
    async with await AsyncDecodeClient.connect(
        host, port, tenant="gold", priority=GOLD
    ) as gold:
        results = await asyncio.gather(
            *[gold.decode(f, timeout=60) for f in frames]
        )
    rejected = 0
    async with await AsyncDecodeClient.connect(
        host, port, tenant="free"
    ) as free:
        for f in frames:
            try:
                await free.decode(f, timeout=60)
            except QuotaExceededError:
                rejected += 1
    return results, rejected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=12)
    parser.add_argument("--ebno", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    code = wimax_code("1/2", 576)
    rng = np.random.default_rng(args.seed)
    frames = make_traffic(code, args.frames, args.ebno, rng)

    admission = AdmissionController(
        {
            "gold": TenantPolicy(rate=1e6, burst=1e6, priority=GOLD),
            "free": TenantPolicy(rate=0.1, burst=3),
        },
        max_iterations=10,
    )

    async def serve_and_query():
        async with DecodeGateway(service, admission) as gateway:
            host, port = gateway.address
            print(f"gateway listening on {host}:{port}")
            # the blocking client drives its own event loop on a thread,
            # so it must not run on *this* loop — demonstrate it via a
            # worker thread instead
            loop = asyncio.get_running_loop()

            def blocking_roundtrip():
                with DecodeClient(host, port, tenant="gold") as client:
                    rtt = client.ping()
                    result = client.decode(frames[0], timeout=60)
                    return rtt, result

            rtt, first = await loop.run_in_executor(None, blocking_roundtrip)
            print(f"blocking client: ping {rtt * 1e3:.2f} ms, frame 0 "
                  f"converged={first.converged} in {first.iterations} iters")
            return await run_async_clients(host, port, frames)

    with DecodeService(code, batch_size=8) as service:
        results, rejected = asyncio.run(serve_and_query())

    reference = decode_many(code, np.stack(frames), max_iterations=10)
    mismatches = sum(
        not np.array_equal(reference.bits[i], r.bits)
        for i, r in enumerate(results)
    )
    converged = sum(r.converged for r in results)
    print(f"async gold client: {len(results)} frames, {converged} converged, "
          f"{mismatches} bit mismatches vs decode_many")
    print(f"free tenant: {rejected}/{len(frames)} rejected by quota")
    return 0 if mismatches == 0 and rejected > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
