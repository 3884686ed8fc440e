import itertools
import random

from zsite.search import backtrack


def always(_prefix, _value):
    return True


def test_tuples_come_out_in_lexicographic_domain_order():
    domains = [["b", "a"], [2, 1, 3], ["x"]]
    assert list(backtrack(domains, always)) == list(itertools.product(*domains))


def test_an_empty_domain_yields_nothing():
    assert list(backtrack([[1, 2], [], [3]], always)) == []


def test_zero_variables_yield_one_empty_tuple():
    assert list(backtrack([], always)) == [()]


def test_a_rejected_value_prunes_every_later_position():
    asked = []

    def consistent(prefix, value):
        asked.append((*prefix, value))
        return (*prefix, value) != (0, 1)

    out = list(backtrack([[0, 1]] * 4, consistent))
    assert not [t for t in asked if t[:2] == (0, 1) and len(t) > 2]
    assert (0, 1) in asked
    assert out == [t for t in itertools.product([0, 1], repeat=4) if t[:2] != (0, 1)]


def test_pairwise_constraints_match_product_and_filter():
    rng = random.Random(7)
    for _ in range(50):
        domains = [rng.sample(range(5), rng.randint(0, 4)) for _ in range(rng.randint(0, 4))]
        banned = {(rng.randrange(5), rng.randrange(5)) for _ in range(6)}

        def consistent(prefix, value):
            return all((p, value) not in banned for p in prefix)

        want = [
            t for t in itertools.product(*domains)
            if all((t[i], t[j]) not in banned for i in range(len(t)) for j in range(i + 1, len(t)))
        ]
        assert list(backtrack(domains, consistent)) == want
