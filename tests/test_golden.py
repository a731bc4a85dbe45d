"""Byte-identity gates over whole command-line runs (see golden.py): the
committed digests, and one CPU against two in the same process."""

import os
import threading

import pytest

import golden
from gestemo import fusion, snn

#: private SNN functions the worker thread runs: the forward's second batch
#: half and the backward's offloaded weight gradients
WORKER_FUNCTIONS = ("_layer_forward", "_weight_backward")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The corpus digests; then per CPU count the code sees (2, then 1) the
    run digests and how many calls of each WORKER_FUNCTIONS ran on the
    worker thread; and per CPU count how many LSTM backward calls had their
    weight sums run by the forked helper."""
    root = str(tmp_path_factory.mktemp("golden"))
    manifests = golden.synth_corpora(root)
    corpora = golden.corpus_digests(manifests)
    by_cpus, helper_calls = {}, {}
    for cpus in ({0, 1}, {0}):
        threads = {name: [] for name in WORKER_FUNCTIONS}
        helped = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snn.os, "sched_getaffinity", lambda pid: cpus, raising=False)
            def counted(sums, tape, _begin=fusion._WeightSums.begin):
                helped.append(None)
                return _begin(sums, tape)
            mp.setattr(fusion._WeightSums, "begin", counted)
            for name, seen in threads.items():
                def traced(*args, _fn=getattr(snn, name), _seen=seen):
                    _seen.append(threading.current_thread().name)
                    return _fn(*args)
                mp.setattr(snn, name, traced)
            digests = golden.run_all(os.path.join(root, f"cpus{len(cpus)}"), manifests)
        on_worker = {name: sum(t.startswith("gestemo-snn") for t in seen)
                     for name, seen in threads.items()}
        by_cpus[len(cpus)] = (digests, on_worker)
        helper_calls[len(cpus)] = len(helped)
    return corpora, by_cpus, helper_calls


def test_outputs_match_the_golden_digests(runs):
    fp = golden.fingerprint()
    expected = golden.load_golden().get(fp)
    if expected is None:
        pytest.skip(f"no golden digests for {fp}; tests/golden.py writes them")
    corpora, by_cpus, _ = runs
    assert {**corpora, **by_cpus[2][0]} == expected


def test_one_and_two_cpus_write_the_same_bytes(runs):
    _, by_cpus, _ = runs
    (two, two_on_worker), (one, one_on_worker) = by_cpus[2], by_cpus[1]
    assert two == one
    assert all(n > 0 for n in two_on_worker.values()), two_on_worker
    assert all(n == 0 for n in one_on_worker.values()), one_on_worker


def test_only_two_cpus_run_the_lstm_weight_sums_on_the_helper(runs):
    _, _, helper_calls = runs
    assert helper_calls[2] > 0 and helper_calls[1] == 0, helper_calls
