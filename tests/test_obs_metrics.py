"""Token-level SLOs and the streaming (sketch-backed) serving report.

Two contracts guard the metrics overhaul:

* ``SloConfig.tokens_on_time`` — the closed form must agree with a
  naive per-token deadline loop;
* ``streaming=True`` reports — every counter and mean is float-equal
  to the exact path, percentiles are within sketch tolerance, and the
  accumulator ``merge()`` matches single-pass observation.
"""

import dataclasses
import random

import pytest

from repro.serve.metrics import (
    ServingReport,
    ServingReportAccumulator,
    SloConfig,
    percentile,
)
from repro.serve.request import RequestState, ServeRequest


def make_finished(req_id, arrival=0.0, ttft=1.0, tpot=0.04, tokens=100,
                  prompt=128, preemptions=0):
    request = ServeRequest(req_id=req_id, arrival_s=arrival,
                           prompt_tokens=prompt, output_tokens=tokens)
    request.state = RequestState.FINISHED
    request.admitted_s = arrival + ttft / 2.0
    request.first_token_s = arrival + ttft
    request.tokens_done = tokens
    request.finished_s = arrival + ttft + tpot * max(tokens - 1, 0)
    request.preemptions = preemptions
    return request


def make_rejected(req_id, arrival=0.0, after_s=3.0, tokens_done=0,
                  reason="timeout"):
    request = ServeRequest(req_id=req_id, arrival_s=arrival,
                           prompt_tokens=64, output_tokens=32)
    request.state = RequestState.REJECTED
    request.rejected_s = arrival + after_s
    request.reject_reason = reason
    request.tokens_done = tokens_done
    return request


def brute_force_on_time(slo, request):
    """Token k (1-based) emitted at ttft + (k-1)*tpot, due at
    slo.ttft + (k-1)*slo.tpot — count the on-time ones directly."""
    if not request.finished or request.tokens_done <= 0:
        return 0
    if request.ttft_s is None:
        return 0
    ttft = request.ttft_s
    tpot = request.tpot_s or 0.0
    count = 0
    for k in range(1, request.tokens_done + 1):
        if (ttft - slo.ttft_s) <= (k - 1) * (slo.tpot_s - tpot):
            count += 1
    return count


class TestTokensOnTime:
    SLO = SloConfig(ttft_s=2.0, tpot_s=0.05)

    def test_token_deadline_schedule(self):
        assert self.SLO.token_deadline_s(1) == 2.0
        assert self.SLO.token_deadline_s(101) == pytest.approx(2.0 + 5.0)
        with pytest.raises(ValueError):
            self.SLO.token_deadline_s(0)

    def test_all_on_time_when_both_slos_met(self):
        request = make_finished(0, ttft=1.5, tpot=0.04, tokens=100)
        assert self.SLO.tokens_on_time(request) == 100

    def test_late_start_fast_decode_catches_up(self):
        # lateness 0.5s, decoding 10ms/token under SLO pace: token k is
        # on time once (k-1)*0.01 >= 0.5, i.e. from token 51 on.
        request = make_finished(0, ttft=2.5, tpot=0.04, tokens=100)
        assert self.SLO.tokens_on_time(request) == 50

    def test_late_start_exact_pace_never_catches_up(self):
        request = make_finished(0, ttft=2.5, tpot=0.05, tokens=100)
        assert self.SLO.tokens_on_time(request) == 0

    def test_on_time_start_exact_pace_all_on_time(self):
        request = make_finished(0, ttft=2.0, tpot=0.05, tokens=100)
        assert self.SLO.tokens_on_time(request) == 100

    def test_early_start_slow_decode_falls_behind(self):
        # 1s of TTFT headroom erodes at 10ms/token: tokens 1..101 make
        # their deadlines, later ones miss.
        request = make_finished(0, ttft=1.0, tpot=0.06, tokens=200)
        assert self.SLO.tokens_on_time(request) == 101

    def test_early_start_slow_decode_short_request(self):
        request = make_finished(0, ttft=1.0, tpot=0.06, tokens=50)
        assert self.SLO.tokens_on_time(request) == 50

    def test_unfinished_and_rejected_count_zero(self):
        assert self.SLO.tokens_on_time(make_rejected(0, tokens_done=7)) == 0
        queued = ServeRequest(req_id=1, arrival_s=0.0, prompt_tokens=8,
                              output_tokens=8)
        assert self.SLO.tokens_on_time(queued) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_closed_form_matches_brute_force(self, seed):
        rng = random.Random(seed)
        slo = SloConfig(ttft_s=rng.uniform(0.5, 3.0),
                        tpot_s=rng.uniform(0.01, 0.1))
        for req_id in range(200):
            request = make_finished(
                req_id,
                arrival=rng.uniform(0.0, 50.0),
                ttft=rng.uniform(0.01, 6.0),
                tpot=rng.uniform(0.0, 0.2),
                tokens=rng.randint(1, 400),
            )
            got = slo.tokens_on_time(request)
            want = brute_force_on_time(slo, request)
            # The closed form and the loop compare the same affine
            # quantities with different float groupings; an exact
            # boundary may fall either way, never further.
            assert abs(got - want) <= 1, (slo, request)
            assert 0 <= got <= request.tokens_done


def synthetic_population(n, seed=0):
    rng = random.Random(seed)
    requests = []
    for req_id in range(n):
        if rng.random() < 0.12:
            requests.append(make_rejected(
                req_id, arrival=rng.uniform(0.0, 500.0),
                tokens_done=rng.randint(0, 5),
                reason=rng.choice(["timeout", "preempted-out"])))
        else:
            requests.append(make_finished(
                req_id,
                arrival=rng.uniform(0.0, 500.0),
                ttft=rng.lognormvariate(-0.5, 0.8),
                tpot=rng.uniform(0.01, 0.09),
                tokens=rng.randint(1, 300),
                preemptions=rng.randint(0, 2),
            ))
    return requests


EXACT_FIELDS = [
    "n_requests", "completed", "rejected", "timed_out", "preemptions",
    "makespan_s", "mean_ttft_s", "mean_tpot_s", "throughput_req_s",
    "goodput_req_s", "slo_attainment", "tokens_per_s", "utilization",
    "peak_reserved_gb", "output_tokens", "on_time_tokens",
    "token_slo_attainment", "token_goodput_tok_s",
]

SKETCH_FIELDS = [
    "p50_ttft_s", "p99_ttft_s", "p50_latency_s", "p95_latency_s",
    "p99_latency_s",
]


class TestStreamingReport:
    def test_counters_and_means_are_exact(self):
        requests = synthetic_population(2000)
        slo = SloConfig()
        exact = ServingReport.from_requests(requests, 600.0, slo,
                                            utilization=0.9,
                                            peak_reserved_gb=40.0)
        stream = ServingReport.from_requests(requests, 600.0, slo,
                                             utilization=0.9,
                                             peak_reserved_gb=40.0,
                                             streaming=True)
        for field in EXACT_FIELDS:
            assert getattr(stream, field) == getattr(exact, field), field
        assert exact.streaming is False
        assert stream.streaming is True

    def test_percentiles_within_one_percent_at_10k(self):
        """The acceptance bar: 10k requests, p50/p95/p99 within 1%
        relative error of exact, without materialized sample lists."""
        requests = synthetic_population(10_000)
        exact = ServingReport.from_requests(requests, 600.0)
        stream = ServingReport.from_requests(requests, 600.0,
                                             streaming=True)
        for field in SKETCH_FIELDS:
            want = getattr(exact, field)
            got = getattr(stream, field)
            assert abs(got - want) <= 0.01 * abs(want), \
                f"{field}: {got} vs exact {want}"

    def test_accumulator_is_constant_memory(self):
        acc = ServingReportAccumulator()
        for request in synthetic_population(10_000, seed=3):
            acc.observe(request)
        for sketch in (acc.ttft.sketch, acc.latency.sketch):
            assert sketch.centroid_count <= 2 * sketch.compression

    def test_merge_matches_single_pass(self):
        requests = synthetic_population(3000, seed=5)
        slo = SloConfig(ttft_s=1.5, tpot_s=0.06)
        whole = ServingReportAccumulator(slo)
        for request in requests:
            whole.observe(request)

        shards = [ServingReportAccumulator(slo) for _ in range(4)]
        for i, request in enumerate(requests):
            shards[i % 4].observe(request)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)

        one = whole.report(400.0, utilization=0.8, peak_reserved_gb=30.0)
        two = merged.report(400.0, utilization=0.8, peak_reserved_gb=30.0)
        for field in ("n_requests", "completed", "rejected", "timed_out",
                      "preemptions", "output_tokens", "on_time_tokens",
                      "slo_attainment", "token_slo_attainment"):
            assert getattr(one, field) == getattr(two, field), field
        for field in SKETCH_FIELDS:
            want = getattr(one, field)
            assert getattr(two, field) == pytest.approx(want, rel=0.02), field

    def test_merge_rejects_slo_mismatch(self):
        left = ServingReportAccumulator(SloConfig(ttft_s=1.0, tpot_s=0.05))
        right = ServingReportAccumulator(SloConfig(ttft_s=2.0, tpot_s=0.05))
        with pytest.raises(ValueError):
            left.merge(right)


class TestReportSurface:
    def test_as_row_has_timeout_and_token_slo_columns(self):
        requests = synthetic_population(200)
        report = ServingReport.from_requests(requests, 100.0)
        row = report.as_row()
        assert row["timeout"] == report.timed_out
        assert row["tok SLO %"] == round(report.token_slo_attainment * 100.0, 1)
        keys = list(row)
        assert keys.index("timeout") == keys.index("rej") + 1
        assert keys.index("tok SLO %") == keys.index("SLO %") + 1

    def test_percentile_presorted_matches_unsorted(self):
        rng = random.Random(9)
        values = [rng.uniform(0.0, 10.0) for _ in range(101)]
        ordered = sorted(values)
        for q in (0.0, 12.5, 50.0, 95.0, 99.0, 100.0):
            assert (percentile(values, q)
                    == percentile(ordered, q, presorted=True))

    def test_empty_population(self):
        exact = ServingReport.from_requests([], 0.0)
        stream = ServingReport.from_requests([], 0.0, streaming=True)
        as_exact = dataclasses.asdict(exact)
        as_stream = dataclasses.asdict(stream)
        as_exact.pop("streaming")
        as_stream.pop("streaming")
        assert as_exact == as_stream
        assert exact.token_slo_attainment == 0.0
