"""A fixed HTTP/1.1 responder: the calibration server of the ``serve``
workload.

    python3 perfbench/echo.py PORT

It answers every request on a keep-alive connection with the same small
JSON body, from an ``asyncio`` stream server on one event loop, as the
gateway answers a response-cache hit. Timed by the same generator at the
same rate, its median latency is what the host's wake-ups, loopback TCP
and event loop cost with no program work at all; ``wl_serve`` scales the
gateway's latency by it (README, "Host speed"). It prints ``ready`` once
it listens and runs until killed.
"""

from __future__ import annotations

import asyncio
import sys

BODY = b'{"site": "site0000.example", "score": 0.5, "support": 10}'
RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\n\r\n%s" % (len(BODY), BODY)
)


async def _answer(reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            await reader.readuntil(b"\r\n\r\n")
            writer.write(RESPONSE)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def _serve(port: int) -> None:
    server = await asyncio.start_server(_answer, "127.0.0.1", port)
    print("ready", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(_serve(int(sys.argv[1])))
