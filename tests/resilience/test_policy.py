"""Retry policy, deadline, and retrying-executor behaviour.

The property tests pin the determinism contract the fault-campaign
harness rests on: a policy's backoff schedule is a pure function of the
RNG seed, and a deadline's remaining budget never increases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlineExceeded, GramError, RetryExhausted, RPCTimeout
from repro.resilience import Deadline, RetryEpisode, RetryPolicy, retrying
from repro.simcore import Environment

policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=8),
    base_delay=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    multiplier=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    max_delay=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    jitter=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)


class TestPolicy:
    @given(policy=policies, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150)
    def test_schedule_is_pure_function_of_seed(self, policy, seed):
        """Same seed, same policy: byte-for-byte identical backoff."""
        first = policy.schedule(np.random.default_rng(seed))
        second = policy.schedule(np.random.default_rng(seed))
        assert first == second
        assert len(first) == policy.max_attempts - 1

    @given(policy=policies, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150)
    def test_delays_respect_cap_and_jitter_band(self, policy, seed):
        rng = np.random.default_rng(seed)
        for attempt, delay in enumerate(policy.schedule(rng), start=1):
            nominal = min(
                policy.max_delay,
                policy.base_delay * policy.multiplier ** (attempt - 1),
            )
            assert delay >= 0.0
            assert nominal * (1 - policy.jitter) - 1e-12 <= delay
            assert delay <= nominal * (1 + policy.jitter) + 1e-12

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.25)
        assert policy.schedule(None) == [1.0, 2.0, 4.0]

    def test_growth_is_capped_past_float_overflow(self):
        """``multiplier ** n`` overflows long before attempt 1100; the
        delay stays at the cap, within the jitter band."""
        policy = RetryPolicy(max_attempts=1100)
        assert policy.schedule()[-1] == policy.max_delay
        delays = policy.schedule(np.random.default_rng(0))
        assert max(delays) <= policy.max_delay * (1 + policy.jitter)
        assert RetryPolicy(max_attempts=1100, base_delay=0.0).schedule()[-1] == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay": -1.0},
            {"multiplier": 0.5},
            {"max_delay": -0.1},
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"deadline": 0.0},
            {"base_delay": float("nan")},
            {"base_delay": float("inf")},
            {"multiplier": float("nan")},
            {"multiplier": float("inf")},
            {"max_delay": float("nan")},
            {"max_delay": float("inf")},
            {"deadline": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestDeadline:
    @given(
        budget=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        steps=st.lists(
            st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=150)
    def test_remaining_monotone_nonincreasing(self, budget, steps):
        """As simulated time advances, ``remaining`` only shrinks."""
        env = Environment()
        deadline = Deadline(env, budget)
        observed = [deadline.remaining]

        def walker(env):
            for step in steps:
                yield env.timeout(step)
                observed.append(deadline.remaining)

        env.process(walker(env))
        env.run()
        assert observed[0] == budget
        assert all(b <= a for a, b in zip(observed, observed[1:]))
        assert all(r >= 0.0 for r in observed)

    def test_unbounded(self):
        env = Environment()
        deadline = Deadline(env)
        assert deadline.remaining == float("inf")
        assert not deadline.expired
        deadline.check()  # never raises
        assert deadline.clamp(7.0) == 7.0
        assert deadline.clamp(None) is None

    def test_check_raises_typed_error(self):
        env = Environment()
        deadline = Deadline(env, 5.0)
        env.run(until=env.timeout(6.0))
        assert deadline.expired
        with pytest.raises(DeadlineExceeded) as err:
            deadline.check("handshake")
        assert err.value.deadline == 5.0

    @pytest.mark.parametrize("budget", [-1.0, float("nan")])
    def test_validation(self, budget):
        with pytest.raises(ValueError):
            Deadline(Environment(), budget)

    def test_clamp_takes_the_tighter_bound(self):
        env = Environment()
        deadline = Deadline(env, 10.0)
        assert deadline.clamp(3.0) == 3.0
        assert deadline.clamp(60.0) == 10.0
        assert deadline.clamp(None) == 10.0


def run_retrying(env, policy, factory, **kwargs):
    proc = env.process(
        retrying(env, policy, factory, rng=np.random.default_rng(0), **kwargs)
    )
    return env.run(proc)


class TestRetrying:
    def test_succeeds_after_transient_failures(self):
        env = Environment()
        calls = []

        def factory():
            calls.append(env.now)
            if len(calls) < 3:
                raise RPCTimeout("lost reply")
            return "ok"
            yield  # pragma: no cover - makes this a generator

        policy = RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.0)
        assert run_retrying(env, policy, factory) == "ok"
        assert len(calls) == 3
        # Slept 1 s then 2 s between the three attempts.
        assert calls == [0.0, 1.0, 3.0]

    def test_exhaustion_is_typed(self):
        env = Environment()

        def factory():
            raise RPCTimeout("still lost")
            yield  # pragma: no cover

        policy = RetryPolicy(max_attempts=3, base_delay=0.5, jitter=0.0)
        with pytest.raises(RetryExhausted) as err:
            run_retrying(env, policy, factory, operation="gram.submit")
        assert err.value.attempts == 3
        assert isinstance(err.value.last_error, RPCTimeout)
        assert "gram.submit" in str(err.value)

    def test_non_retryable_propagates_immediately(self):
        env = Environment()
        calls = []

        def factory():
            calls.append(env.now)
            raise GramError("request refused")
            yield  # pragma: no cover

        policy = RetryPolicy(max_attempts=5, base_delay=1.0, jitter=0.0)
        with pytest.raises(GramError):
            run_retrying(env, policy, factory)
        assert len(calls) == 1

    def test_deadline_stops_the_episode(self):
        env = Environment()

        def factory():
            yield env.timeout(1.0)
            raise RPCTimeout("lost reply")

        policy = RetryPolicy(
            max_attempts=50, base_delay=2.0, multiplier=1.0, jitter=0.0,
            deadline=5.0,
        )
        with pytest.raises(RetryExhausted) as err:
            run_retrying(env, policy, factory)
        assert "deadline" in str(err.value)
        assert env.now <= 5.0

    def test_episode_counts_retries(self):
        env = Environment()
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        episode = RetryEpisode(env, policy)
        assert episode.retries == 0

        def driver(env):
            yield from episode.backoff(RPCTimeout("x"))

        env.run(env.process(driver(env)))
        assert episode.attempt == 2
        assert episode.retries == 1
