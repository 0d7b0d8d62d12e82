"""The command-line contract over random configs.

A run either exits 0 or 2 with a report whose recheck gives the same code,
or exits 1 with one `error:` line on stderr and no output directory; no
exception escapes. The configs are built from `cli.CONFIG_KEYS`, so a key
added there is fuzzed with no edit here. The draws lean toward valid
configs: every required key is there and of its kind, except in one block
of about 25; grids have 101 or 201 points; three configs in four take
moderate positive numbers, one of those three with one float moved to an
end of the float range, and the fourth takes numbers of any sign and size.
"""

import contextlib
import io
import json
from pathlib import Path
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracosc import cli


def weighted(*choices):
    """One of the (strategy, weight) choices, picked in proportion to weight."""
    return st.sampled_from([strategy for strategy, weight in choices
                            for _ in range(weight)]).flatmap(lambda strategy: strategy)


# magnitudes from the subnormal range to the top of the float range
log_uniform = st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
                        st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99),
                        st.integers(-320, 307))
numbers = weighted((st.floats(0.1, 5.0), 3), (st.floats(-5.0, 5.0), 2),
                   (st.integers(-6, 6), 1), (st.sampled_from([0.0, -0.0, 1.0, 0.5]), 1),
                   (log_uniform, 1))
WILD = {
    "number": numbers,
    "integer": st.integers(-2, 12),
    "boolean": st.booleans(),
    "string": st.text("ab", max_size=2),
    "number list": st.lists(numbers, min_size=1, max_size=6),
}
# moderate positive values, which most keys take (hypothesis favours the
# first choice of a sampled_from)
tame_numbers = weighted((st.floats(0.1, 5.0), 4), (st.sampled_from([0.0, 0.5, 1.0, 2.0]), 1))
TAME = {**WILD, "number": tame_numbers, "integer": st.sampled_from([3, 1, 2, 5, 9]),
        "number list": st.lists(tame_numbers, min_size=1, max_size=6)}
# keys whose valid values a generic draw would rarely hit
BY_KEY = {
    "schema": st.just(1),
    "workflow": st.sampled_from(cli.WORKFLOWS),
    "n_points": st.sampled_from([101, 201]),
    "half_length": weighted((st.floats(2.0, 30.0), 7), (numbers, 1)),
    "nodes": weighted(
        (st.builds(lambda lo, step, count: [lo + step * i for i in range(count)],
                   st.floats(-40.0, -1.0), st.floats(0.5, 20.0), st.integers(3, 8)), 1),
        (WILD["number list"], 1)),
}
# a value of no kind the config format takes
WRONG = st.sampled_from([None, True, "1", [], {}, float("nan"), float("inf")])
# a float at the ends of the float range
EXTREME = weighted((log_uniform, 3), (st.sampled_from(
    [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308]), 1))


@st.composite
def block(draw, keys, kinds):
    """A dict for one CONFIG_KEYS table with values of the given kinds:
    optional keys half the time, and in about one block of 25 a required key
    dropped, an unknown key added or a value of the wrong kind."""
    doc = {}
    for key, kind in keys.items():
        if kind.endswith("?") and draw(st.booleans()):
            continue
        kind = kind.rstrip("?")
        if key in BY_KEY:
            doc[key] = draw(BY_KEY[key])
        elif kind == "object":
            doc[key] = draw(typed_block(key, kinds) if key in ("model", "profile")
                            else block(cli.CONFIG_KEYS[key], kinds))
        else:
            doc[key] = draw(kinds[kind])
    # the faults are the largest draws, so that the simplest block has none
    fault = draw(st.integers(0, 24))
    if fault == 24 and doc:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == 23:
        doc["unknown"] = 1.0
    elif fault == 22 and doc:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(WRONG)
    return doc


@st.composite
def typed_block(draw, family, kinds):
    kind = draw(st.sampled_from(sorted(cli.CONFIG_KEYS[family])))
    return {"type": kind, **draw(block(cli.CONFIG_KEYS[family][kind], kinds))}


def float_leaves(doc, path=()):
    """Key paths of the float values in a nested config."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from float_leaves(value, path + (key,))
        elif isinstance(value, float):
            yield path + (key,)


@st.composite
def configs(draw):
    """Three configs in four tame, one of those three with one float at an
    end of the float range, and the rest wild; a workflow other than
    zeromode mostly gets the coupled model it needs, and a tame spectrum the
    kappa_v = 0 it needs."""
    mode = draw(st.sampled_from(["tame", "tame", "extreme", "wild"]))
    kinds = WILD if mode == "wild" else TAME
    doc = draw(block(cli.CONFIG_KEYS["config"], kinds))
    workflow = doc.get("workflow")
    if workflow != "zeromode" and draw(st.integers(0, 9)) < 9:
        doc["model"] = {"type": "coupled",
                        **draw(block(cli.CONFIG_KEYS["model"]["coupled"], kinds))}
        if workflow == "spectrum" and kinds is TAME:
            doc["model"]["kappa_v"] = 0.0
    paths = list(float_leaves(doc))
    if mode == "extreme" and paths:
        *keys, last = draw(st.sampled_from(paths))
        parent = doc
        for key in keys:
            parent = parent[key]
        parent[last] = draw(EXTREME)
    return doc


def assert_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = cli.main(["run", "--config", str(path), "--out", str(out)])
            if code in (0, 2):
                report = out / f"{doc['workflow']}_report.json"
                assert cli.main(["run", "--recheck", str(report)]) == code
        if code == 1:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not out.exists()
        else:
            assert code in (0, 2)


def config(workflow, model, half_length, n_points):
    return {"schema": 1, "workflow": workflow, "model": model,
            "grid": {"half_length": half_length, "n_points": n_points}}


NO_MASS = {"type": "coupled", "kappa_f": 0.0, "kappa_m": 0.0, "kappa_v": 0.5,
           "profile": {"type": "tanh", "amplitude": 1.0}}


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(doc=configs())
# a zero-mode spinor whose sign was taken before a subnormal x rounded to 0
@example(doc=config("zeromode", {**NO_MASS, "kappa_f": 1.0, "kappa_m": 5e-324,
                                 "kappa_v": 0.0,
                                 "profile": {"type": "tanh", "amplitude": -1.0}}, 20.0, 401))
# kappa_f = kappa_m = 0: a ValueError traceback from the sweep
@example(doc=config("sweep", NO_MASS, 20.0, 401))
# band squares that overflow: a LAPACK RuntimeError, and a ZeroDivisionError
# from a grid spacing whose square underflows
@example(doc=config("sweep", {**NO_MASS, "kappa_m": 2.83, "kappa_v": 0.0,
                              "profile": {"type": "tanh_sech", "a": -4.3e101, "b": 2.09}},
                    4.5e-161, 401))
@example(doc=config("spectrum", {**NO_MASS, "kappa_f": 3.0, "kappa_m": 4.0, "kappa_v": 0.0,
                                 "profile": {"type": "tanh", "amplitude": 0.8}},
                    1e-160, 2001))
@example(doc=config("zeromode", {"type": "transformed_potential", "lambda": 3, "n": 1},
                    1e-100, 401))
@example(doc=config("zeromode", {"type": "transformed_potential", "lambda": 3, "n": 1},
                    1e-160, 401))
# kappa_f * W overflows: numpy warnings and a message about a NaN check value
@example(doc=config("zeromode", {"type": "coupled", "kappa_f": 6.5e64, "kappa_m": 5e-296,
                                 "kappa_v": -0.1,
                                 "profile": {"type": "tanh", "amplitude": 6.9e266,
                                             "shift": -0.65}}, 20.0, 401))
# further faults the fuzzer found: a transformed potential at a spacing whose
# square overflows (an OverflowError, after a cosh overflow warning), and on
# fewer points than the levels it solves for (a ValueError); tiny grids whose
# masked end stencils overflow (numpy warnings in the residual)
@example(doc=config("zeromode", {"type": "transformed_potential", "lambda": 3, "n": 1},
                    1e301, 201))
@example(doc=config("zeromode", {"type": "transformed_potential", "lambda": 3, "n": 1},
                    10.0, 3))
@example(doc=config("zeromode", {**NO_MASS, "kappa_f": 0.6, "kappa_m": 0.8, "kappa_v": 0.3},
                    3e-118, 201))
@example(doc=config("zeromode", {"type": "step", "f_plus": 3.0, "f_minus": 3.0,
                                 "m_plus": 4.0, "m_minus": 4.0}, 5e-150, 201))
def test_every_config_keeps_the_cli_contract(doc):
    assert_contract(doc)
