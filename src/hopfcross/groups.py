"""Finite group multiplication tables."""

from itertools import permutations

from .errors import InvalidGroupTableError


class GroupTable:
    """A finite group given by labels and an index multiplication table."""

    def __init__(self, elements, mult):
        self.elements = tuple(elements)
        self.order = len(self.elements)
        self.mult = tuple(tuple(row) for row in mult)
        self.identity = self._find_identity()
        self.inv = self._find_inverses()

    def _find_identity(self):
        n = self.order
        for e in range(n):
            if all(self.mult[e][g] == g and self.mult[g][e] == g for g in range(n)):
                return e
        raise InvalidGroupTableError("no identity element")

    def _find_inverses(self):
        n = self.order
        e = self.identity
        inv = []
        for g in range(n):
            cand = [h for h in range(n) if self.mult[g][h] == e and self.mult[h][g] == e]
            if len(cand) != 1:
                raise InvalidGroupTableError("element %r has no unique inverse" % (self.elements[g],))
            inv.append(cand[0])
        return tuple(inv)

    def validate(self):
        n = self.order
        if n == 0:
            raise InvalidGroupTableError("empty group")
        for row in self.mult:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise InvalidGroupTableError("malformed multiplication table")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mult[self.mult[a][b]][c] != self.mult[a][self.mult[b][c]]:
                        raise InvalidGroupTableError(
                            "associativity fails at (%d, %d, %d)" % (a, b, c)
                        )
        return True

    def mul(self, g, h):
        return self.mult[g][h]

    def index(self, label):
        return self.elements.index(label)

    @staticmethod
    def cyclic(n):
        elements = ["1"] + ["g" if n == 2 else "g%d" % i for i in range(1, n)]
        if n == 2:
            elements = ["1", "g"]
        mult = [[(i + j) % n for j in range(n)] for i in range(n)]
        return GroupTable(elements, mult)

    @staticmethod
    def symmetric(n):
        perms = sorted(permutations(range(n)))
        labels = ["".join(str(x + 1) for x in p) for p in perms]
        index = {p: i for i, p in enumerate(perms)}
        # composition: (p @ q)(x) = p(q(x))
        mult = [
            [index[tuple(p[q[x]] for x in range(n))] for q in perms]
            for p in perms
        ]
        return GroupTable(labels, mult)
