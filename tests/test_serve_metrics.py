"""Tests for serving SLO metrics and the report aggregation."""

import pytest

from repro.serve import ServingReport, SloConfig, percentile
from repro.serve.request import RequestState, ServeRequest


def finished_request(req_id=0, arrival=0.0, first=1.0, done=3.0, tokens=5):
    request = ServeRequest(req_id=req_id, arrival_s=arrival,
                           prompt_tokens=64, output_tokens=tokens)
    request.state = RequestState.FINISHED
    request.admitted_s = arrival + (first - arrival) / 2
    request.first_token_s = first
    request.finished_s = done
    request.tokens_done = tokens
    return request


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestRequestDerivedMetrics:
    def test_ttft_latency_tpot(self):
        request = finished_request(arrival=0.0, first=1.0, done=3.0,
                                   tokens=5)
        assert request.ttft_s == 1.0
        assert request.latency_s == 3.0
        assert request.tpot_s == pytest.approx(0.5)  # 2 s over 4 tokens

    def test_unfinished_has_no_latency(self):
        request = ServeRequest(req_id=0, arrival_s=0.0, prompt_tokens=64,
                               output_tokens=8)
        assert request.ttft_s is None
        assert request.latency_s is None
        assert request.tpot_s is None


class TestSloConfig:
    def test_met(self):
        slo = SloConfig(ttft_s=2.0, tpot_s=0.6)
        assert slo.met_by(finished_request())

    def test_ttft_violation(self):
        slo = SloConfig(ttft_s=0.5, tpot_s=10.0)
        assert not slo.met_by(finished_request(first=1.0))

    def test_tpot_violation(self):
        slo = SloConfig(ttft_s=10.0, tpot_s=0.1)
        assert not slo.met_by(finished_request())

    def test_unfinished_never_meets(self):
        request = ServeRequest(req_id=0, arrival_s=0.0, prompt_tokens=64,
                               output_tokens=8)
        assert not SloConfig().met_by(request)


class TestServingReport:
    def test_aggregates(self):
        requests = [
            finished_request(0, arrival=0.0, first=0.5, done=1.0),
            finished_request(1, arrival=1.0, first=1.5, done=3.0),
        ]
        rejected = ServeRequest(req_id=2, arrival_s=0.0, prompt_tokens=64,
                                output_tokens=8)
        rejected.state = RequestState.REJECTED
        rejected.reject_reason = "timeout"
        report = ServingReport.from_requests(
            requests + [rejected], makespan_s=10.0,
            slo=SloConfig(ttft_s=1.0, tpot_s=1.0))
        assert report.n_requests == 3
        assert report.completed == 2
        assert report.rejected == 1
        assert report.timed_out == 1
        assert report.mean_ttft_s == pytest.approx(0.5)
        assert report.throughput_req_s == pytest.approx(0.2)
        assert report.goodput_req_s == pytest.approx(0.2)
        assert report.slo_attainment == pytest.approx(2 / 3)
        assert report.tokens_per_s == pytest.approx(1.0)

    def test_goodput_below_throughput_on_slo_miss(self):
        requests = [
            finished_request(0, arrival=0.0, first=0.1, done=1.0),
            finished_request(1, arrival=0.0, first=5.0, done=6.0),
        ]
        report = ServingReport.from_requests(
            requests, makespan_s=10.0, slo=SloConfig(ttft_s=1.0, tpot_s=1.0))
        assert report.goodput_req_s < report.throughput_req_s

    def test_empty_population(self):
        report = ServingReport.from_requests([], makespan_s=0.0)
        assert report.n_requests == 0
        assert report.slo_attainment == 0.0
        assert report.goodput_req_s == 0.0

    def test_row_and_summary(self):
        report = ServingReport.from_requests(
            [finished_request()], makespan_s=5.0)
        row = report.as_row()
        assert {"done", "goodput (req/s)", "lat p99 (s)"} <= set(row)
        assert "goodput" in report.summary()
        # The memory headline is the run result's, not the report's.
        assert "util=" not in report.summary()
        assert not {"util", "RM (GB)", "migrated (MB)"} & set(row)
