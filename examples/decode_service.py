"""Serve mixed-rate LDPC traffic through the batched decode service.

Demonstrates the `repro.serve` runtime end to end:

* a :class:`DecodeService` sharded over two WiMax rate classes (each
  shard owns a continuous-batching engine, so mixed-rate traffic never
  fragments a batch);
* futures-based submission with bounded-queue backpressure;
* the metrics snapshot/report (occupancy, early-retirement savings,
  latency percentiles).

Run:  python examples/decode_service.py [--frames N] [--batch B]
"""

import argparse

import numpy as np

from repro.channel import AwgnChannel
from repro.codes import wimax_code
from repro.encoder import RuEncoder
from repro.serve import DecodeService


def make_traffic(code, count, ebno_db, rng):
    """Encode random payloads and push them through an AWGN channel."""
    encoder = RuEncoder(code)
    frames = []
    for _ in range(count):
        message = rng.integers(0, 2, encoder.k).astype(np.uint8)
        codeword = encoder.encode(message)
        channel = AwgnChannel.from_ebno(ebno_db, code.rate, seed=rng)
        frames.append((message, channel.llrs(codeword)))
    return frames


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=24, help="frames per rate")
    parser.add_argument("--batch", type=int, default=8, help="slots per shard")
    parser.add_argument("--ebno", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    codes = {
        "1/2": wimax_code("1/2", 576),
        "3/4A": wimax_code("3/4A", 576),
    }
    traffic = {
        key: make_traffic(code, args.frames, args.ebno, rng)
        for key, code in codes.items()
    }

    with DecodeService(
        codes, batch_size=args.batch, queue_capacity=4 * args.frames,
    ) as service:
        futures = []
        for key, frames in traffic.items():
            for message, llrs in frames:
                futures.append((key, message, service.submit(llrs, code_key=key)))

        payload_errors = 0
        converged = 0
        for key, message, future in futures:
            done = future.result(timeout=120)
            converged += done.result.converged
            k = codes[key].k
            payload_errors += int(
                np.count_nonzero(done.result.message_bits(k) != message)
            )

    total = len(futures)
    print(
        f"{total} frames decoded across {len(codes)} rate shards: "
        f"{converged} converged, {payload_errors} payload bit errors"
    )
    print()
    print(service.metrics.report(title="decode service metrics"))
    return 0 if converged == total and payload_errors == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
