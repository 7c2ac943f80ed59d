"""Reference answers for the benchmark's queries, computed apart from Bayonet.

Nothing here calls the program or uses its Rational/BigInt. The paper's
rationals are literals copied from the paper, the closed forms and the
gossip chain are evaluated with Python's `fractions` and floats, and the
load-balancing posterior is checked by Bayes' rule over two runs whose
prior is fixed.

Every check takes the answer as the harness reports it and returns a list
of error strings; an empty list means the answer is right.
"""

import re
from fractions import Fraction

# Fig. 2 of the paper: probability of congestion at S1, costs (2, 1, 1).
FIGURE2 = Fraction(30378810105265, 67706637778944)

# Fig. 3 of the paper: the same query with symbolic link costs, one value
# per region, keyed by the region text formatExactAnswer prints.
FIGURE3 = {
    "{COST_01 - COST_02 - COST_21 < 0}": Fraction(491806403, 1088391168),
    "{COST_01 - COST_02 - COST_21 == 0}": FIGURE2,
    "{-COST_01 + COST_02 + COST_21 < 0}": Fraction(2025575442161,
                                                  4231664861184),
}

# Table 1, gossip on K_4: expected number of infected nodes.
GOSSIP4 = Fraction(94, 27)

# Section 5.5, reliability with an unknown strategy, observation "123":
# posterior of the random strategy.
BAYES123_RAND = Fraction(41922792469, 95643630613)

# Section 5.5, load balancing, observation S1,S0,S0,S1,H1: the paper
# prints the posterior that S0's hash is bad as 0.152.
LOADBALANCING_PAPER_OBS = "1001H"
LOADBALANCING_PAPER = "0.152"
LOADBALANCING_PRIOR_BAD = Fraction(1, 10)

# An SMC estimate must lie within this many of its reported standard
# errors of the reference.
SMC_SE_TOLERANCE = 5


def chain_reliability(diamonds, p_fail):
    """Fig. 11(b): one packet crosses `diamonds` diamonds; in each it takes
    the bottom path with probability 1/2, whose link fails with p_fail."""
    return (1 - Fraction(p_fail) / 2) ** diamonds


def ring_reliability(nodes, p_hop):
    """A packet crosses nodes-1 hops of a ring, each lost with p_hop."""
    return (1 - Fraction(p_hop)) ** (nodes - 1)


def gossip_expected_infected(k, exact=False):
    """Expected infected count of gossip on the complete graph K_k.

    Lumped chain over (i infected, p packets in flight), starting from
    (1, 1). A delivery reaches one of the k-1 other nodes uniformly; it
    infects with probability (k-i)/(k-1), and the new node sends two
    packets, giving (i+1, p+1); otherwise the packet dies, giving (i, p-1).
    The chain stops when p = 0. In flight there are never more than i
    packets, so p <= i.
    """
    one = Fraction(1) if exact else 1.0
    # value[i][p]: expected final infected count from state (i, p).
    value = [[one * 0] * (k + 2) for _ in range(k + 2)]
    for i in range(k, 0, -1):
        value[i][0] = one * i
        q = one * (k - i) / (k - 1)
        for p in range(1, i + 1):
            stay = (1 - q) * value[i][p - 1]
            grow = q * value[i + 1][p + 1] if i < k else 0
            value[i][p] = stay + grow
    return value[1][1]


_NUMBER = r"(-?\d+(?:/\d+)?)"
_CONCRETE = re.compile(r"^" + _NUMBER + r" \(~[^)]*\)$")
_REGION = re.compile(r"^(\{.*\}): " + _NUMBER + r" \(~[^)]*\)$")


def parse_concrete(text):
    """The rational of a concrete formatExactAnswer text, or None."""
    m = _CONCRETE.match(text)
    return Fraction(m.group(1)) if m else None


def parse_regions(text):
    """{region: rational} of a piecewise formatExactAnswer text, or None."""
    out = {}
    for line in text.split("\n"):
        m = _REGION.match(line)
        if not m or m.group(1) in out:
            return None
        out[m.group(1)] = Fraction(m.group(2))
    return out


def check_rational(text, want):
    got = parse_concrete(text)
    if got is None:
        return ["not a concrete rational answer: %r" % text]
    if got != want:
        return ["got %s, want %s" % (got, want)]
    return []


def check_regions(text, want):
    got = parse_regions(text)
    if got is None:
        return ["not a piecewise answer: %r" % text]
    if got != want:
        return ["regions %r, want %r" % (got, want)]
    return []


def check_smc(answer, reference):
    """An SMC answer is {value, stderr, survivors, particles}."""
    errors = []
    if answer["survivors"] != answer["particles"]:
        errors.append("%d of %d particles survived, want all"
                      % (answer["survivors"], answer["particles"]))
    se = answer["stderr"]
    if not se > 0:
        errors.append("standard error %r is not positive" % se)
    elif abs(answer["value"] - reference) > SMC_SE_TOLERANCE * se:
        errors.append("estimate %.6f is %.1f SE from %.6f"
                      % (answer["value"], abs(answer["value"] - reference) / se,
                         reference))
    return errors


def check_sum_to_one(texts):
    values = [parse_concrete(t) for t in texts]
    if None in values:
        return ["posteriors are not concrete: %r" % texts]
    if sum(values) != 1:
        return ["posteriors sum to %s, want 1" % sum(values)]
    return []


def check_three_digits(text, printed):
    """The paper prints 0.152: the answer must round to it."""
    got = parse_concrete(text)
    if got is None:
        return ["not a concrete rational answer: %r" % text]
    if "%.3f" % float(got) != printed:
        return ["%s rounds to %.3f, the paper prints %s"
                % (got, float(got), printed)]
    return []


def check_bayes(posterior_text, bad, good, prior_bad):
    """Bayes' rule over the runs with the prior fixed to bad and to good.

    `bad` and `good` are those runs' answers: the query (probability that
    the hash is bad) must be 1 and 0, and each ok_mass is the likelihood
    of the observations under that hash.
    """
    errors = check_rational(bad["text"], Fraction(1))
    errors += check_rational(good["text"], Fraction(0))
    posterior = parse_concrete(posterior_text)
    if posterior is None:
        return errors + ["not a concrete rational answer: %r" % posterior_text]
    like_bad = Fraction(bad["ok_mass"])
    like_good = Fraction(good["ok_mass"])
    joint_bad = prior_bad * like_bad
    want = joint_bad / (joint_bad + (1 - prior_bad) * like_good)
    if posterior != want:
        errors.append("posterior %s, Bayes' rule gives %s" % (posterior, want))
    return errors


def check_answers(checks, answers):
    """Applies every check of a workload.

    `checks` is the workload's list of (kind, query ids, argument) tuples;
    `answers` maps query id to the harness's answer record. Returns the
    list of errors, each prefixed with the query ids it concerns.
    """
    errors = []
    for kind, ids, arg in checks:
        missing = [i for i in ids if i not in answers]
        if missing:
            errors.append("%s: no answer" % ",".join(missing))
            continue
        got = [answers[i] for i in ids]
        if kind == "rational":
            found = check_rational(got[0]["text"], arg)
        elif kind == "regions":
            found = check_regions(got[0]["text"], arg)
        elif kind == "smc":
            found = check_smc(got[0], arg)
        elif kind == "sum_to_one":
            found = check_sum_to_one([a["text"] for a in got])
        elif kind == "three_digits":
            found = check_three_digits(got[0]["text"], arg)
        elif kind == "bayes":
            found = check_bayes(got[0]["text"], got[1], got[2], arg)
        else:
            raise ValueError("unknown check kind %r" % kind)
        errors += ["%s: %s" % (",".join(ids), e) for e in found]
    return errors
