"""Timer churn and an echo storm, straight on the kernel and network.

Two concurrent phases, below the protocol layers:

* **timer churn** — workers repeatedly arm a long watchdog timeout,
  finish their (short) work, and retire the watchdog: the pattern that
  floods a lazy-deletion heap with cancelled entries;
* **echo storm** — clients ping an echo server through the simulated
  network, one round trip at a time.

The workload draws no random numbers, so it is deterministic by
construction.  The heap-gauge tests (``tests/simcore/test_equeue.py``)
pin its queue statistics; the op-counter tests
(``tests/prof/test_counters.py``) run it with and without compaction.
"""

from repro.net.address import Endpoint
from repro.net.message import Message
from repro.net.network import Network
from repro.simcore.environment import Environment
from repro.simcore.probe import attach

WORKERS = 150
ROUNDS = 60
CLIENTS = 40
TRIPS = 100


def run_timer_churn(compact_cancelled=True, probes=()):
    """Run both phases to completion; returns ``(env, network)``."""
    env = Environment(compact_cancelled=compact_cancelled)
    attach(env, *probes)
    network = Network(env)
    network.add_host("churn")

    def churn_worker(env):
        for _ in range(ROUNDS):
            watchdog = env.timeout(1_000.0)
            yield env.timeout(0.01)
            # The work finished in time: retire the watchdog.
            watchdog.cancelled = True

    echo_endpoint = Endpoint("churn", "echo")
    echo_box = network.bind(echo_endpoint)

    def echo_server(env):
        while True:
            message = yield echo_box.get()
            network.send(Message(
                src=echo_endpoint, dst=message.reply_to,
                kind="pong", payload=message.payload,
            ))

    def client(env, endpoint, box):
        for trip in range(TRIPS):
            network.send(Message(
                src=endpoint, dst=echo_endpoint,
                kind="ping", payload=trip, reply_to=endpoint,
            ))
            yield box.get()

    for worker in range(WORKERS):
        env.process(churn_worker(env), name=f"churn-{worker}")
    env.process(echo_server(env), name="echo")
    for idx in range(CLIENTS):
        endpoint = Endpoint("churn", f"client-{idx}")
        env.process(client(env, endpoint, network.bind(endpoint)), name=f"client-{idx}")

    env.run()
    return env, network
