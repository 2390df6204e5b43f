"""Direct-product covers Z/k x W built from the generators of W.

The committed ``fixtures/`` corpus is the only copy of the bundled data;
this module builds the larger covers of the scaling ladder, whose hyperplane
indices follow the enumeration order of the group engine.
"""

from __future__ import annotations

from .extension import ExtensionDatum
from .reflgrp import CayleyGroup, enumerate_group, hyperplanes


def table_from_elements(elements, mul, generators=None):
    """Cayley table over a fixed element list (deterministic indices)."""
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    gens = [index[g] for g in generators] if generators else None
    return CayleyGroup(table, gens), index


def direct_product_datum(name, w_generators, k, tau_exponent=0, relations=None):
    """Covering group Z/k x W with the obvious projection and splitting.

    tau_exponent=1 puts the order-two sign character on a kernel of even
    order (the kernel is generated by 1 in the Z/k factor).
    """
    group = enumerate_group(w_generators)
    arr = hyperplanes(group)
    nw = len(group)
    elements = [(i, w) for i in range(k) for w in range(nw)]

    def mul(a, b):
        return ((a[0] + b[0]) % k, group.mul(a[1], b[1]))

    gens = [(1 % k, 0)] + [(0, g) for g in group.generators]
    wtilde, index = table_from_elements(elements, mul, gens)
    q = [w for (_, w) in elements]
    splitting = {
        a: index[(0, group.inv(arr[a].distinguished_generator))]
        for a in range(len(arr))
    }
    tau = None
    if tau_exponent:
        if k % 2:
            raise ValueError("sign character needs an even cyclic factor")
        tau = {index[(i, 0)]: (-1) ** i for i in range(k)}
    return ExtensionDatum(
        group, arr, wtilde, q, splitting, tau=tau, name=name,
        braid_relations=relations,
    )
