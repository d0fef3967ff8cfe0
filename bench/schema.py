"""The benchmark's own classes, declared through the public ``repro`` API.

Class names carry a ``Bench`` prefix because the class registry is global
to the process and keyed by name.
"""

from __future__ import annotations

from repro import (FloatField, IntField, OdeObject, SetField, StringField,
                   Trigger, constraint)


def _restock(item) -> None:
    item.qty += 100
    item.fired += 1


class BenchItem(OdeObject):
    """Stock item with the paper's perpetual restock trigger, a class
    constraint and one public (constraint-checked) member function."""

    id = IntField(default=0)
    name = StringField(default="")
    price = FloatField(default=0.0)
    qty = IntField(default=100)
    category = IntField(default=0)
    supplier_id = IntField(default=0)
    reorder_level = IntField(default=10)
    fired = IntField(default=0)

    restock = Trigger(condition=lambda self: self.qty <= self.reorder_level,
                      action=_restock, perpetual=True)

    def take(self, n):
        self.qty -= min(n, self.qty)

    @constraint
    def qty_nonneg(self):
        return self.qty >= 0


class BenchDesign(OdeObject):
    """Versioned document for ``newversion`` + edit."""

    name = StringField(default="")
    revision = IntField(default=0)
    notes = StringField(default="")


class BenchSupplier(OdeObject):
    sid = IntField(default=0)
    region = StringField(default="")


class BenchEvent(OdeObject):
    """Measurement row of the sliding window the analytics scans run on."""

    seq = IntField(default=0)
    detector = IntField(default=0)
    energy = FloatField(default=0.0)


class BenchPart(OdeObject):
    """Bill-of-materials node for the recursive part explosion."""

    name = StringField(default="")
    cost = FloatField(default=1.0)
    uses = SetField("BenchPart")


#: The server workload's classes, in O++: every session re-declares them,
#: and set-up runs the same text (plus ``create``) through an embedded
#: Interpreter. Lookups, updates and scans run on ``ritem``; inserts go to
#: ``rorder``, so ``ritem`` keeps its size for the whole run.
OPP_CLASSES = """
class ritem {
  public:
    char* name;
    int id;
    int qty;
    int category;
    double price;
};
class rorder {
  public:
    int id;
    int item;
    int qty;
    double amount;
};
"""
OPP_CREATE = "create ritem;\ncreate rorder;\n"


def item_state(i: int, qty: int, price: float, category: int) -> dict:
    """Field values of item *i*, the same dict the shadow model keeps."""
    return {"id": i, "name": "item%06d" % i, "price": price, "qty": qty,
            "category": category, "supplier_id": i % 8}
