"""A bound port costs a few hundred bytes.

Every co-allocated process binds its own mailbox, and a wide request
holds thousands at once.  Most receive a message or two in their life,
so what an idle port carries — its ``Port``, its ``Store`` and the
store's item and waiter queues — is what a wide run pays per process.
Binding 1 000 idle ports may add at most 512 traced bytes each.
"""

import tracemalloc

from repro.net import Network
from repro.net.address import Endpoint
from repro.net.transport import Port
from repro.simcore import Environment

PORTS = 1_000

#: Traced bytes one more bound, idle port may add.  An empty
#: ``collections.deque`` alone is 760 bytes.
BYTES_PER_PORT = 512


def test_a_bound_port_costs_a_few_hundred_bytes():
    network = Network(Environment())
    network.add_host("h")
    endpoints = [Endpoint("h", f"app.pid{pid}") for pid in range(PORTS)]
    ports = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ports.extend(Port(network, endpoint) for endpoint in endpoints)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(network._mailboxes) == PORTS
    per_port = (after - before) / PORTS
    assert per_port <= BYTES_PER_PORT, f"{per_port:.0f} bytes per bound port"
