"""The Kraus pipeline keeps its bits: recorded outputs of fixed inputs.

tests/data/pipeline_bits.json holds the inputs of 200 two-qubit
pipeline_state draws, with the sha256 of each final state's bytes and the
repr of its joint probability, or the message of the PostSelectionError it
raised. The draws cover channels with p, r in {0, 1}, complex amplitudes,
strengths above one and joint probabilities just above and below the
cutoff, as test_the_record_covers_the_domain asserts. It also holds one
stacked call each of measure_damp_reverse (under the key
"kraus_pipeline_state"), apply_protection and bb84_error_rate.

The record holds only where numpy multiplies complex arrays with its fused
x86-64-v3 (AVX2 + FMA3) loop, numpy's choice on a CPU that has those. That
loop's complex product differs from Python's in the last bit for 43 842 of
100 000 random pairs, and a * b from b * a for about a third. With
NPY_DISABLE_CPU_FEATURES="X86_V4 X86_V3 AVX512_ICL AVX512_SPR", numpy
takes its unfused loop, whose product equals Python's, and both bit tests
here fail. Disabling only X86_V4 and the AVX-512 groups leaves them passing.

Run `PYTHONPATH=src python tests/test_pipeline_bits.py` to rewrite every
outcome in the file from the current code. The inputs are never redrawn: a
re-record recomputes the outcomes of the recorded inputs, so the rewritten
file differs from the old one in outcomes alone. Do so only for a change
that is meant to move the pipeline's bits: the point of the record is that
the routes keep them.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from decoshield.channels import GadParams, gad_channel
from decoshield.entangle import EntangledInput, pipeline_state
from decoshield.linalg import equatorial_state
from decoshield.qubit import apply_protection, bb84_error_rate
from decoshield.weakmeas import MIN_POSTSELECT_PROB, PostSelectionError, measure_damp_reverse

RECORD = Path(__file__).with_name("data") / "pipeline_bits.json"


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def lone_args(draw):
    inp = EntangledInput(complex(*draw["alpha"]), complex(*draw["beta"]))
    return (inp, GadParams(*draw["ch1"]), GadParams(*draw["ch2"]), *draw["strengths"])


def lone_outcome(draw) -> dict:
    try:
        state, prob = pipeline_state(*lone_args(draw))
    except PostSelectionError as exc:
        return {"error": str(exc)}
    assert state.shape == (4, 4) and state.dtype == complex
    return {"state_sha256": digest(state), "prob": repr(prob)}


def stacked_pipeline(draws) -> dict:
    """measure_damp_reverse on the draws' states, channels and strengths
    stacked along one axis, the channels built as GadParams arrays."""
    rho = np.stack([lone_args(d)[0].density() for d in draws])
    ops = [gad_channel(GadParams(*map(np.array, zip(*(d[ch] for d in draws)))))
           for ch in ("ch1", "ch2")]
    m1, m2, n1, n2 = [np.array(s) for s in zip(*(d["strengths"] for d in draws))]
    state, prob = measure_damp_reverse(rho, (m1, m2), (n1, n2), tuple(ops))
    return {"state_sha256": digest(state), "prob": [repr(v) for v in prob.tolist()]}


def stacked_protection(call) -> dict:
    params = GadParams(np.array(call["p"]), np.array(call["r"]))
    rho = np.stack([equatorial_state(phi) for phi in call["phi"]])
    state, prob = apply_protection(params, np.array(call["m"]), np.array(call["n"]), rho)
    return {"state_sha256": digest(state), "prob": [repr(v) for v in prob.tolist()]}


def array_error_rate(call) -> dict:
    params = GadParams(np.array(call["p"]), np.array(call["r"]))
    error = bb84_error_rate(params, np.array(call["m"]), np.array(call["n"]))
    return {"error_rate": [repr(v) for v in error.tolist()]}


def rerecorded(record: dict) -> dict:
    """The record with every outcome recomputed from its recorded inputs."""
    draws = [{**draw, "outcome": lone_outcome(draw)} for draw in record["pipeline_state"]]
    stack = record["kraus_pipeline_state"]["draws"]
    return {
        "pipeline_state": draws,
        "kraus_pipeline_state": {
            "draws": stack, "outcome": stacked_pipeline([draws[i] for i in stack])},
        **{name: {**record[name], "outcome": run(record[name])}
           for name, run in (("apply_protection", stacked_protection),
                             ("bb84_error_rate", array_error_rate))},
    }


@functools.cache
def record_and_rerecord() -> tuple[dict, dict]:
    """The committed record, and its outcomes recomputed, once for the tests below."""
    record = json.loads(RECORD.read_text())
    return record, rerecorded(record)


def test_lone_draws_keep_their_bits():
    record, fresh = record_and_rerecord()
    for draw, new in zip(record["pipeline_state"], fresh["pipeline_state"]):
        assert new == draw, draw


def test_stacked_calls_keep_their_bits():
    record, fresh = record_and_rerecord()
    for name in ("kraus_pipeline_state", "apply_protection", "bb84_error_rate"):
        assert fresh[name] == record[name], name


def test_the_record_covers_the_domain():
    record = record_and_rerecord()[1]
    draws = record["pipeline_state"]
    assert {0.0, 1.0} <= {v for draw in draws for v in draw["ch1"] + draw["ch2"]}
    assert any(draw["alpha"][1] and draw["beta"][1] for draw in draws)
    assert any(s > 1.0 for draw in draws for s in draw["strengths"])
    # each joint probability over the cutoff: read from the outcome, or from the error's message
    kept = ["prob" in draw["outcome"] for draw in draws]
    ratio = [float(draw["outcome"]["prob"] if ok else draw["outcome"]["error"].split()[2])
             / MIN_POSTSELECT_PROB for draw, ok in zip(draws, kept)]
    assert any(ok and 1.0 <= x <= 1.05 for ok, x in zip(kept, ratio))
    assert any(not ok and 0.95 <= x < 1.0 for ok, x in zip(kept, ratio))
    assert all(kept[i] for i in record["kraus_pipeline_state"]["draws"])
    call = record["apply_protection"]
    assert {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)} <= set(zip(call["p"], call["r"]))


if __name__ == "__main__":
    RECORD.write_text(json.dumps(rerecorded(json.loads(RECORD.read_text())), indent=1) + "\n")
