"""A seeded mutation sweep of the input parsers.

Mutants of the bundled data files and of one structured report, plus the
inputs that once exhausted memory or time, are parsed in a child process
that bounds its own address space and CPU time.  Every input must parse or
be refused with a varred error, each within a second of CPU time.
"""

import json
import os
import random
import subprocess
import sys

import varred
from varred import fixtures
from varred.fileformats import render_report

SEED = 1402
MUTANTS_PER_SOURCE = 36
CHILD_AS_BYTES = 1 << 30
CHILD_CPU_S = 20
MUTANT_CPU_S = 1.0

# Reads [kind, text] lines from stdin and answers each with [outcome, cpu
# seconds]; outcome is "parsed", "refused" or the unexpected exception.
CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (%d, %d))
resource.setrlimit(resource.RLIMIT_CPU, (%d, %d))
from varred import errors, expr, fileformats
parse = {"ham": fileformats.parse_hamiltonian, "sys": fileformats.parse_system,
         "report": fileformats.parse_report}
refusals = (errors.FileFormatError, errors.PreconditionFailure,
            errors.UnsupportedRegime, expr.ExprError)
for line in sys.stdin:
    kind, text = json.loads(line)
    t0 = time.process_time()
    try:
        parse[kind](text)
        outcome = "parsed"
    except refusals:
        outcome = "refused"
    except Exception as e:
        outcome = "%%s: %%s" %% (type(e).__name__, str(e)[:200])
    print(json.dumps([outcome, time.process_time() - t0]), flush=True)
""" % (CHILD_AS_BYTES, CHILD_AS_BYTES, CHILD_CPU_S, CHILD_CPU_S + 1)

INSERTS = ["^", "^99", "^100", "*", "/", "(", ")", "-", "0", "/0", " = ", "\n",
           "begin x\n", "end x\n", "entry 1 1 = ", "size = ", "x", "1/x", "q1*",
           "999999999", "-1", "1/2"]


def mutate(rng, text):
    """One random edit: a number made huge, a span deleted or doubled, a
    token inserted, two lines swapped or one character replaced."""
    n = len(text)
    i = rng.randrange(n)
    j = min(n, i + rng.randint(1, 40))
    op = rng.randrange(6)
    if op == 0:
        digits = [k for k, ch in enumerate(text) if ch.isdigit()]
        k = rng.choice(digits)
        return text[:k] + "99999999" + text[k:]
    if op == 1:
        return text[:i] + text[j:]
    if op == 2:
        return text[:j] + text[i:j] + text[j:]
    if op == 3:
        return text[:i] + rng.choice(INSERTS) + text[i:]
    if op == 4:
        lines = text.split("\n")
        a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[a], lines[b] = lines[b], lines[a]
        return "\n".join(lines)
    return text[:i] + chr(rng.randrange(32, 127)) + text[i + 1:]


def fixed_cases():
    """Inputs that once ran out of memory or time, or raised a bare
    ValueError (superscript digits), each to be refused."""
    ham = fixtures.fixture_text("henon-heiles")
    linear = "(q1 + 2*q2 + 3*p1 + p2 + 1)"
    sys_head = "format = system v1\nvariable = x\nsize = 1\nentry 1 1 = %s\n"
    return [
        ("sys", "format = system v1\nvariable = x\nsize = 499999999\n"),
        ("sys", sys_head % "x^299999999"),
        ("sys", sys_head % "(x^2 + 1)^999999992"),
        ("ham", ham.replace("hamiltonian = ", "hamiltonian = %s^20 + " % linear)),
        ("ham", ham.replace("hamiltonian = ", "hamiltonian = %s + " % "*".join([linear] * 20))),
        ("sys", sys_head % "*".join(["(x^2 + 1)^50"] * 21)),
        ("sys", sys_head % "2\u00b2"),
        ("sys", sys_head % "x^\u00b2"),
        ("ham", ham.replace("hamiltonian = ", "hamiltonian = 2\u00b2*q1 + ")),
    ]


def test_parser_mutants_parse_or_are_refused(lve2_run):
    sources = [("ham" if name.endswith(".ham") else "sys", fixtures.fixture_text(key))
               for key, name in sorted(fixtures.FIXTURES.items())]
    sources.append(("report", render_report(lve2_run[0][-1], "structured", "x")))
    rng = random.Random(SEED)
    cases = fixed_cases()
    n_fixed = len(cases)
    for kind, text in sources:
        cases += [(kind, mutate(rng, text)) for _ in range(MUTANTS_PER_SOURCE)]
    assert len(cases) <= 300

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(varred.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120,
                          input="".join(json.dumps(c) + "\n" for c in cases))
    answers = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(answers) == len(cases), (
        "child stopped (exit %d) at input %d: %r\n%s"
        % (proc.returncode, len(answers), cases[len(answers)][1][:300], proc.stderr[-2000:]))
    assert proc.returncode == 0

    bad = [(k, out, text[:300]) for k, ((_, text), (out, _)) in enumerate(zip(cases, answers))
           if out not in ("parsed", "refused")]
    assert not bad
    slow = [(k, cpu) for k, (_, cpu) in enumerate(answers) if cpu > MUTANT_CPU_S]
    assert not slow
    outcomes = [out for out, _ in answers]
    assert outcomes[:n_fixed] == ["refused"] * n_fixed
    assert "parsed" in outcomes[n_fixed:] and "refused" in outcomes[n_fixed:]
