"""One backtracking search over finite domains.

``backtrack(domains, consistent)`` assigns positions 0, 1, ... in turn and
asks ``consistent(prefix, value)`` before it extends the prefix by the
value, so a rejected value prunes every completion of that prefix: each
constraint is checked as soon as the positions it reads are assigned
(Haralick & Elliott, "Increasing tree search efficiency for constraint
satisfaction problems", Artificial Intelligence 14, 1980).  A caller may keep
state per depth, indexed by ``len(prefix)``: the search is depth-first, so
what an accepted value stored there stands until the search returns to that
depth.
"""

from __future__ import annotations


def backtrack(domains, consistent):
    """Every tuple ``t`` with ``t[i]`` in ``domains[i]`` whose every prefix is
    consistent, in lexicographic domain order; zero domains yield one ``()``.

    ``prefix`` is a list the search reuses: read it, do not keep it.
    """
    if not domains:
        yield ()
        return
    prefix: list = []
    pending = [iter(domains[0])]
    while pending:
        for value in pending[-1]:
            if consistent(prefix, value):
                if len(prefix) + 1 == len(domains):
                    yield (*prefix, value)
                else:
                    prefix.append(value)
                    pending.append(iter(domains[len(prefix)]))
                    break
        else:
            pending.pop()
            if prefix:
                prefix.pop()
