"""REP103 fixture: label-dict work inside a hot function (should fire 4x)."""


class Counter:
    def _rebuild(self, updates):
        per_label = {u: 1 for u in updates}           # finding: dict comprehension
        extra = dict(per_label)                       # finding: dict() construction
        table = {"a": 1}                              # finding: dict literal
        total = 0
        for key, value in per_label.items():          # finding: .items() iteration
            total += value
        return extra, table, total
