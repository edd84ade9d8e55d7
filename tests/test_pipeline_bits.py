"""The Kraus pipeline keeps its bits: recorded outputs of seeded draws.

tests/data/pipeline_bits.json holds the inputs of about 200 two-qubit
pipeline_state draws, with the sha256 of each final state's bytes and the
repr of its joint probability, or the message of the PostSelectionError it
raised. The draws cover channels with p, r in {0, 1}, complex amplitudes,
strengths above one and joint probabilities just above and below the
cutoff. It also holds one stacked call each of measure_damp_reverse (under
the key "kraus_pipeline_state"), apply_protection and bb84_error_rate.

The record holds only where numpy multiplies complex arrays with its fused
x86-64-v3 (AVX2 + FMA3) loop, numpy's choice on a CPU that has those. That
loop's complex product differs from Python's in the last bit for 43 842 of
100 000 random pairs, and a * b from b * a for about a third. With
NPY_DISABLE_CPU_FEATURES="X86_V4 X86_V3 AVX512_ICL AVX512_SPR", numpy
takes its unfused loop, whose product equals Python's, and both tests here
fail. Disabling only X86_V4 and the AVX-512 groups leaves them passing.

Run `PYTHONPATH=src python tests/test_pipeline_bits.py` to rewrite the
file from the current code. Do so only for a change that is meant to move
the pipeline's bits: the point of the record is that the routes keep them.
"""

import hashlib
import json
import math
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


def test_lone_draws_keep_their_bits():
    record = json.loads(RECORD.read_text())
    for draw in record["pipeline_state"]:
        assert lone_outcome(draw) == draw["outcome"], draw


def test_stacked_calls_keep_their_bits():
    record = json.loads(RECORD.read_text())
    stack = record["kraus_pipeline_state"]
    draws = [record["pipeline_state"][i] for i in stack["draws"]]
    assert stacked_pipeline(draws) == stack["outcome"]
    for name, run in (("apply_protection", stacked_protection),
                      ("bb84_error_rate", array_error_rate)):
        assert run(record[name]) == record[name]["outcome"]


# --- recording -------------------------------------------------------------

def _channel(rng, edge: bool) -> list[float]:
    if not edge:
        return [float(v) for v in rng.uniform(0.0, 1.0, 2)]
    return [float(rng.choice([0.0, 1.0])) if rng.uniform() < 0.6 else float(rng.uniform())
            for _ in range(2)]


def _draw(rng, strengths, edge=False) -> dict:
    alpha_sq = float(rng.uniform())
    a, b = (complex(math.sqrt(w) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            for w in (alpha_sq, 1.0 - alpha_sq))
    return {"alpha": [a.real, a.imag], "beta": [b.real, b.imag],
            "ch1": _channel(rng, edge), "ch2": _channel(rng, edge), "strengths": strengths}


def _joint_prob(draw) -> float:
    try:
        return pipeline_state(*lone_args(draw))[1]
    except PostSelectionError as exc:
        return float(str(exc).split()[2])


def _near_cutoff(rng, factor: float) -> dict | None:
    """A draw whose four strengths, scaled together, put the joint
    probability at factor times the cutoff, to within 5 %; one channel
    has p or r at 0, so the probability falls to 0 as the strengths grow."""
    base = [float(v) for v in rng.uniform(0.5, 2.0, 4)]
    draw = _draw(rng, base)
    draw[str(rng.choice(["ch1", "ch2"]))][int(rng.integers(2))] = 0.0
    target = factor * MIN_POSTSELECT_PROB
    lo, hi = 0.0, 12.0  # log10 of the scale
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        draw["strengths"] = [v * 10.0 ** mid for v in base]
        prob = _joint_prob(draw)
        if abs(prob / target - 1.0) < 0.05:
            return draw
        lo, hi = (mid, hi) if prob > target else (lo, mid)
    return None


def record() -> dict:
    rng = np.random.default_rng(20131018)
    draws = [_draw(rng, [float(v) for v in rng.uniform(0.05, 3.0, 4)]) for _ in range(110)]
    draws += [_draw(rng, [float(v) for v in rng.uniform(0.05, 3.0, 4)], edge=True)
              for _ in range(40)]
    draws += [_draw(rng, [float(10.0 ** v) for v in rng.uniform(0.0, 3.0, 4)])
              for _ in range(25)]
    near = []
    while len(near) < 25:
        draw = _near_cutoff(rng, 1.02 if len(near) % 5 else 0.97)
        if draw is not None:
            near.append(draw)
    draws += near
    for draw in draws:
        draw["outcome"] = lone_outcome(draw)
    kept = [i for i, d in enumerate(draws) if "error" not in d["outcome"]]
    stack = kept[:48]
    qubit = {
        "p": [float(v) for v in rng.uniform(0.0, 1.0, 24)] + [0.0, 1.0, 1.0, 0.0],
        "r": [float(v) for v in rng.uniform(0.0, 1.0, 24)] + [0.0, 1.0, 0.0, 1.0],
        "m": [float(v) for v in rng.uniform(0.05, 3.0, 28)],
        "n": [float(v) for v in rng.uniform(0.05, 3.0, 28)],
        "phi": [float(v) for v in rng.uniform(0.0, 2.0 * math.pi, 28)],
    }
    rates = {k: qubit[k][:-4] for k in ("p", "r", "m", "n")}
    return {
        "pipeline_state": draws,
        "kraus_pipeline_state": {
            "draws": stack,
            "outcome": stacked_pipeline([draws[i] for i in stack]),
        },
        "apply_protection": {**qubit, "outcome": stacked_protection(qubit)},
        "bb84_error_rate": {**rates, "outcome": array_error_rate(rates)},
    }


if __name__ == "__main__":
    RECORD.write_text(json.dumps(record(), indent=1) + "\n")
