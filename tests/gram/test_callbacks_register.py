"""Tests for runtime callback (un)registration on GRAM jobs."""

from repro.gram import CallbackListener, JobState

from .conftest import rsl_for


def drive(env, gen):
    return env.run(env.process(gen))


class TestRegisterCallback:
    def test_late_listener_sees_terminal_state(self, env, net, site, client):
        """A monitoring tool attaching after submission still gets events."""
        late = CallbackListener(net, "workstation")
        states = []
        late.on(None, lambda j, s, r: states.append(s))

        def scenario(env):
            handle = yield from client.submit(site.contact, rsl_for(site.contact))
            yield from client.register_callback(handle, late.endpoint)
            yield from client.wait_for_state(handle, JobState.DONE)

        drive(env, scenario(env))
        env.run()
        assert JobState.DONE in states

    def test_duplicate_registration_is_idempotent(self, env, net, site, client):
        listener = CallbackListener(net, "workstation")
        states = []
        listener.on(None, lambda j, s, r: states.append(s))

        def scenario(env):
            handle = yield from client.submit(site.contact, rsl_for(site.contact))
            yield from client.register_callback(handle, listener.endpoint)
            yield from client.register_callback(handle, listener.endpoint)
            yield from client.wait_for_state(handle, JobState.DONE)

        drive(env, scenario(env))
        env.run()
        # DONE delivered exactly once, not once per registration.
        assert states.count(JobState.DONE) == 1

    def test_unregister_stops_delivery(self, env, net, site, client):
        listener = CallbackListener(net, "workstation")
        states = []
        listener.on(None, lambda j, s, r: states.append(s))

        def scenario(env):
            handle = yield from client.submit(
                site.contact, rsl_for(site.contact),
                callback=listener.endpoint,
            )
            yield from client.wait_for_state(handle, JobState.ACTIVE)
            yield from client.unregister_callback(handle, listener.endpoint)
            yield from client.wait_for_state(handle, JobState.DONE)

        drive(env, scenario(env))
        env.run()
        assert JobState.DONE not in states

    def test_register_returns_current_state(self, env, net, site, client):
        listener = CallbackListener(net, "workstation")

        def scenario(env):
            handle = yield from client.submit(site.contact, rsl_for(site.contact))
            yield from client.wait_for_state(handle, JobState.ACTIVE)
            state = yield from client.register_callback(handle, listener.endpoint)
            return state

        assert drive(env, scenario(env)) is JobState.ACTIVE
