"""Seeded workloads: the inputs, the operation each input drives, and its check.

Every workload is a single client in a closed loop: the next operation starts
only when the last one has ended.  Inputs are generated from the seed before
timing starts and are laid out in passes of fixed composition (stratified by
the property that sets an operation's cost), so two seeds give the same mix
of work and differ only in the concrete inputs.

    cli_cold     one fresh `python -m singint.cli` per operation, argv drawn
                 over every subcommand and flag; what a CLI user pays
    reduce_mix   parse -> reduce -> render of 1-8 term sums with shapes up to
                 D^6 dD^6 ddD^2 delta^2 (p+q <= 2) and coefficients in
                 w, d0, a, g; 1 in 20 inputs is outside the rule domain and
                 must raise RuleError
    reduce_deep  reduce(D^m dD^n), m in [0, 8], even n in [100, 1000]
                 (stratified), plus one odd n per pass that parity zeroes
    census       order_check, diagram_classes, diagram_identities,
                 identity_suite and enumerate_contractions of vertex pairs
                 with 8, 10 and 12 legs (105, 945 and 10395 matchings)

Generators use only the standard library and reference.py; binding a case
to the program (`bind`) imports singint.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

import reference as ref

WORKLOADS = ("cli_cold", "reduce_mix", "reduce_deep", "census")

# passes generated per run; the timed loop cycles through them
PASSES = {"cli_cold": 8, "reduce_mix": 200, "reduce_deep": 32, "census": 40}
# passes making up one traced unit (the fixed work whose counts are reported)
TRACE_PASSES = {"cli_cold": 1, "reduce_mix": 5, "reduce_deep": 1, "census": 1}

RULE_ERROR = "RuleError"

# vertex label -> leg count, as returned by action_vertices(1) and (2)
VERTICES = {"qd2q2": 4, "q4": 4, "jq2": 2, "qd2q4": 6, "q6": 6, "jq4": 4}


@dataclass(frozen=True)
class Case:
    label: str      # operation kind; groups trace counts
    payload: tuple  # what the program receives
    expected: Any   # what a correct run returns (see the checks below)


@dataclass(frozen=True)
class Op:
    label: str
    payload: tuple
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def _cycle(rng: random.Random, items: list) -> Iterator:
    """Endless seeded permutations of `items`: each appears once per lap."""
    while True:
        lap = list(items)
        rng.shuffle(lap)
        yield from lap


# -- reduce_mix ---------------------------------------------------------------

FACTORS = ("D", "dD", "ddD", "delta")
SYMBOLS = ("w", "d0", "a", "g")
MIX_PASS_TERMS = (1, 2, 3, 4, 5, 6, 7, 8) * 5
MIX_OUT_OF_DOMAIN_PER_PASS = 2


def _atom(name: str, power: int) -> str:
    return name if power == 1 else f"{name}^{power}"


def _random_term(rng: random.Random, shape=None):
    """(text without sign, sign, shape, coefficient poly) of one term."""
    if shape is None:
        p = rng.randint(0, 2)
        shape = (rng.randint(0, 6), rng.randint(0, 6), p, rng.randint(0, 2 - p))
        if shape == (0, 0, 0, 0):
            shape = (rng.randint(1, 6), 0, 0, 0)
    num, den = rng.randint(1, 9), rng.choice((1, 1, 2, 3, 4, 5, 8))
    exps = (rng.choice((0, 0, -1, 1, 2, -2, 3, -3)), rng.choice((0, 0, 1)),
            rng.choice((0, 0, 1)), rng.choice((0, 1, 2)))
    atoms = [_atom(s, k) for s, k in zip(SYMBOLS, exps) if k]
    atoms += [_atom(f, k) for f, k in zip(FACTORS, shape) if k]
    rng.shuffle(atoms)
    coeff = Fraction(num, den)
    if coeff != 1 or not atoms:
        atoms.insert(rng.randrange(len(atoms) + 1), str(coeff))
    text = atoms[0]
    for atom in atoms[1:]:
        text += rng.choice((" ", " ", " * ")) + atom
    sign = rng.choice((1, -1))
    return text, sign, shape, {exps: coeff * sign}


def _out_of_domain_term(rng: random.Random):
    kind = rng.choice(("delta3", "field_equation", "bare"))
    if kind == "delta3":
        shape = (rng.randint(0, 3), 0, 0, 3)
    elif kind == "field_equation":
        p = rng.randint(1, 3)
        shape = (rng.randint(0, 3), rng.choice((0, 2)), p, 3 - p)
    else:
        shape = (0, 0, 0, 0)
    return _random_term(rng, shape)


def mix_expression(rng: random.Random, n_terms: int, out_of_domain: bool = False):
    """(text, [(shape, coeff poly)]) of a random sum of `n_terms` terms."""
    terms = [_random_term(rng) for _ in range(n_terms)]
    if out_of_domain:
        terms[rng.randrange(n_terms)] = _out_of_domain_term(rng)
    text = ""
    for i, (body, sign, _, _) in enumerate(terms):
        if i == 0:
            text = body if sign > 0 else "-" + rng.choice(("", " ")) + body
        else:
            text += (" + " if sign > 0 else " - ") + body
    return text, [(shape, coeff) for _, _, shape, coeff in terms]


def expected_reduction(terms) -> str:
    try:
        return ref.render(ref.evaluate(terms))
    except ref.OutOfDomain:
        return RULE_ERROR


def _mix_pass(rng: random.Random) -> list[Case]:
    sizes = list(MIX_PASS_TERMS)
    rng.shuffle(sizes)
    bad = set(rng.sample(range(len(sizes)), MIX_OUT_OF_DOMAIN_PER_PASS))
    cases = []
    for i, n_terms in enumerate(sizes):
        text, terms = mix_expression(rng, n_terms, out_of_domain=i in bad)
        label = "reduce_mix/out_of_domain" if i in bad else f"reduce_mix/{n_terms}_terms"
        cases.append(Case(label, (text,), expected_reduction(terms)))
    return cases


# -- reduce_deep --------------------------------------------------------------

DEEP_EVEN_N = list(range(100, 1001, 2))
DEEP_BINS = 16


def _deep_pass(rng: random.Random) -> list[Case]:
    cases = []
    for k in range(DEEP_BINS):
        lo = k * len(DEEP_EVEN_N) // DEEP_BINS
        hi = (k + 1) * len(DEEP_EVEN_N) // DEEP_BINS
        cases.append((rng.randint(0, 8), rng.choice(DEEP_EVEN_N[lo:hi])))
    cases.append((rng.randint(0, 8), rng.randrange(101, 1000, 2)))
    rng.shuffle(cases)
    return [Case("reduce_deep/" + ("odd" if n % 2 else "even"), (m, n),
                 ref.pure_integral(m, n)) for m, n in cases]


# -- census -------------------------------------------------------------------

def _pairs_with_legs(total: int) -> list[tuple[str, str]]:
    return [(a, b) for a in VERTICES for b in VERTICES
            if VERTICES[a] + VERTICES[b] == total]


def _a_binding(rng: random.Random) -> Fraction | None:
    if rng.random() < 0.5:
        return None
    return Fraction(rng.randint(-5, 5), rng.randint(1, 6))


def _enumeration(v1: str, v2: str) -> Case:
    total = ref.matchings(VERTICES[v1] + VERTICES[v2])
    connected = total - ref.disconnected_matchings(VERTICES[v1], VERTICES[v2])
    return Case(f"enumerate_contractions({v1},{v2})", ("enumerate_contractions", v1, v2),
                (total, connected))


def _census_passes(rng: random.Random, passes: int) -> list[list[Case]]:
    # Every pass enumerates all four 12-leg pairs.  The two that start with
    # q6 are the slowest operations, and a run holds more of them than the
    # 10 samples above the tail, so the tail lands inside that group.  The
    # other 14 operations are dealt between the four, so a run that stops
    # mid-pass keeps the mix.  Five of the 18 cost under 25 ms and seven more
    # than 30 ms, so the median lands among the six order-2 checks (about
    # 28 ms each).  The 10- and 8-leg pairs visit every pair of their class
    # once before any repeats.
    pair_cycles = {legs: _cycle(rng, _pairs_with_legs(legs)) for legs in (10, 8)}
    out = []
    for _ in range(passes):
        light = []
        for order in (1, 2, 2, 2, 2, 2, 2):
            a, veltman = _a_binding(rng), rng.random() < 0.5
            light.append(Case(f"order_check({order})",
                              ("order_check", order, a, veltman), "zero"))
        for order in (1, 2):
            light.append(Case(f"diagram_classes({order})", ("diagram_classes", order),
                              ref.connected_matchings(order)))
        light.append(Case("diagram_identities", ("diagram_identities",), "all pass"))
        light.append(Case("identity_suite", ("identity_suite",), "all pass"))
        light += [_enumeration(*next(pair_cycles[legs])) for legs in (10, 10, 8)]
        rng.shuffle(light)
        heavy = [_enumeration(v1, v2) for v1, v2 in _pairs_with_legs(12)]
        rng.shuffle(heavy)
        cases = []
        for k, big in enumerate(heavy):
            group = light[k::len(heavy)] + [big]
            rng.shuffle(group)
            cases += group
        out.append(cases)
    return out


# -- cli_cold -----------------------------------------------------------------

def _fraction_text(rng: random.Random, positive: bool = False) -> str:
    num = rng.randint(1, 7) if positive else rng.randint(-4, 4)
    den = rng.randint(1, 5)
    return f"{num}/{den}" if den != 1 else str(num)


def _cli_pass(rng: random.Random) -> list[Case]:
    cases = []

    def reduce_case(flags: list[str], n_terms: int, out_of_domain=False):
        text, terms = mix_expression(rng, n_terms, out_of_domain)
        value = expected_reduction(terms)
        # argparse reads a lone "-7/2" or "-D^2" as an option; "--" ends them
        argv = ("reduce", *flags, "--", text) if text.startswith("-") else ("reduce", text, *flags)
        if value == RULE_ERROR:
            return Case("cli/reduce", argv, ("error", 2, None))
        if flags and flags[0] == "--omega":
            value = ref.render(ref.substitute_w(ref.evaluate(terms), Fraction(flags[1])))
        mode = "json" if "--json" in flags else "text"
        return Case("cli/reduce", argv, ("reduce", 0, (mode, value)))

    cases.append(reduce_case([], rng.randint(1, 4)))
    cases.append(reduce_case(["--trace"], rng.randint(1, 4)))
    cases.append(reduce_case(["--json"], rng.randint(1, 4)))
    cases.append(reduce_case(["--omega", _fraction_text(rng, positive=True)], rng.randint(1, 4)))
    cases.append(reduce_case([], rng.randint(1, 3), out_of_domain=True))

    def verify_case(argv: list[str]):
        orders = 1 if "--order" in argv else 2
        mode = "json" if "--json" in argv else "text"
        return Case("cli/verify", ("verify", *argv), ("checks", 0, (mode, orders)))

    cases.append(verify_case([]))
    a = _fraction_text(rng)
    # argparse reads a separate "-3/2" as an option, so negatives use --a=-3/2
    argv = ["--order", str(rng.choice((1, 2))), *([f"--a={a}"] if a.startswith("-") else ["--a", a])]
    cases.append(verify_case(argv + (["--veltman"] if rng.random() < 0.5 else [])))
    cases.append(verify_case(["--veltman", "--json"] + (["--order", "2"] if rng.random() < 0.5 else [])))
    cases.append(verify_case(["--order", str(rng.choice((1, 2))), "--trace"]))

    cases.append(Case("cli/identities", ("identities",), ("checks", 0, ("text", None))))
    flag = rng.choice(("--json", "--trace"))
    cases.append(Case("cli/identities", ("identities", flag),
                      ("checks", 0, ("json" if flag == "--json" else "text", None))))
    for order in (1, 2):
        flags = ["--json"] if rng.random() < 0.5 else []
        cases.append(Case("cli/diagrams", ("diagrams", "--order", str(order), *flags),
                          ("diagrams", 0, ("json" if flags else "text",
                                           ref.connected_matchings(order)))))
    rng.shuffle(cases)
    return cases


# -- generation ---------------------------------------------------------------

def generate(workload: str, seed: int, passes: int | None = None) -> list[list[Case]]:
    """The seeded inputs of `workload`, as passes of equal composition."""
    rng = random.Random(f"{workload}:{seed}")
    passes = PASSES[workload] if passes is None else passes
    if workload == "census":
        return _census_passes(rng, passes)
    make = {"cli_cold": _cli_pass, "reduce_mix": _mix_pass, "reduce_deep": _deep_pass}[workload]
    return [make(rng) for _ in range(passes)]


# -- binding cases to the program ---------------------------------------------

def _poly_of(value) -> dict:
    return dict(value.items())


def _checks_pass(results) -> bool:
    return bool(results) and all(
        r.passed and _poly_of(r.expected) == _poly_of(r.actual) for r in results)


def _bind_mix(case: Case) -> Op:
    import singint
    from singint import cli
    text, = case.payload

    def run():
        try:
            value, _ = singint.reduce(cli.parse(text))
        except singint.RuleError:
            return RULE_ERROR
        return value.render()
    return Op(case.label, case.payload, run, lambda out: out == case.expected)


def _bind_deep(case: Case) -> Op:
    import singint
    m, n = case.payload
    s = singint.integrand_sum(singint.mono(m, n))
    return Op(case.label, case.payload, lambda: singint.reduce(s)[0],
              lambda out: _poly_of(out) == case.expected)


def _bind_census(case: Case) -> Op:
    from singint import verify, wick
    kind, *args = case.payload
    if kind == "order_check":
        order, a, veltman = args
        return Op(case.label, case.payload,
                  lambda: verify.order_check(order, a_binding=a, veltman=veltman),
                  lambda r: r.passed and not _poly_of(r.actual))
    if kind == "diagram_classes":
        return Op(case.label, case.payload, lambda: wick.diagram_classes(args[0]),
                  lambda classes: sum(c.multiplicity for c in classes) == case.expected)
    if kind in ("diagram_identities", "identity_suite"):
        return Op(case.label, case.payload, lambda: getattr(verify, kind)(), _checks_pass)
    vertices = {v.label: v for order in (1, 2) for v in wick.action_vertices(order)}
    v1, v2 = vertices[args[0]], vertices[args[1]]
    if (len(v1.legs), len(v2.legs)) != (VERTICES[args[0]], VERTICES[args[1]]):
        raise ValueError(f"vertex legs changed for {args}")
    total, connected = case.expected
    return Op(case.label, case.payload, lambda: wick.enumerate_contractions(v1, v2),
              lambda cs: len(cs) == total and sum(c.connected for c in cs) == connected)


def check_cli(expected, code: int, out: str, err: str) -> bool:
    """Exit code and output of one CLI run against its expectation."""
    kind, want_code, data = expected
    if code != want_code:
        return False
    if kind == "error":
        return not out and err.startswith("error:")
    mode, value = data
    if kind == "reduce":
        if mode == "json":
            return json.loads(out)["result"] == value
        return out.rstrip("\n").split("\n")[-1] == value
    if kind == "checks":
        if mode == "json":
            rows = json.loads(out)
            return bool(rows) and all(r["passed"] for r in rows) and value in (None, len(rows))
        lines = [ln for ln in out.splitlines() if not ln.startswith(" ")]
        return (bool(lines) and all(ln.startswith("PASS  ") for ln in lines)
                and value in (None, len(lines)))
    if kind == "diagrams":
        if mode == "json":
            return sum(r["matchings"] for r in json.loads(out)) == value
        header, *rows = out.splitlines()
        column = re.split(r"\s{2,}", header).index("matchings")
        return sum(int(re.split(r"\s{2,}", r)[column]) for r in rows) == value
    return False


def bind_cli_in_process(case: Case) -> Op:
    """A CLI case run through singint.cli.main inside this process."""
    from singint import cli
    argv = list(case.payload)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return Op(case.label, case.payload, run, lambda r: check_cli(case.expected, *r))


def bind(workload: str, case: Case) -> Op:
    """The in-process operation for `case`; cli_cold runs main() in-process."""
    return {"reduce_mix": _bind_mix, "reduce_deep": _bind_deep, "census": _bind_census,
            "cli_cold": bind_cli_in_process}[workload](case)


# Fixed warm-up per workload: the first calls a process makes before its
# timed work.  Independent of the seed, so set-up time is too.
WARM_UP = {
    "cli_cold": [],
    "reduce_mix": [Case("warm", ("dD^2 + w^2 D^2",), None),
                   Case("warm", ("-3/4 g a ddD^2 D^2 * d0 + delta^2 D",), None),
                   Case("warm", ("delta^3 D",), None)],
    "reduce_deep": [Case("warm", (1, 100), None), Case("warm", (0, 101), None)],
    "census": [Case("warm", ("order_check", 1, None, False), None),
               Case("warm", ("order_check", 2, None, False), None),
               Case("warm", ("diagram_classes", 1), None),
               Case("warm", ("diagram_classes", 2), None),
               Case("warm", ("diagram_identities",), None),
               Case("warm", ("identity_suite",), None),
               Case("warm", ("enumerate_contractions", "qd2q2", "q4"), (105, 96))],
}


def warm_up(workload: str) -> None:
    for case in WARM_UP[workload]:
        bind(workload, case).run()
