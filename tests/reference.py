"""Reference noisy-OR arithmetic that the tests compare the package against.

Written from the definition and read only from each node's ``NodeSpec``
(``prior``, ``leak`` and ``links``), never through the package's own factor
code (``noisy_or_absent``, ``node_factor`` or the ``Network``'s flat
parameter tables), so a fault there cannot pass a comparison with it:

    P(node absent | parents) = (1 - leak) * prod(1 - q_p : parent p present)

and a root's factor is its prior.  ``states`` is indexed by node id and
holds True, False or None (unassigned).
"""

from __future__ import annotations


def factor(net, nid, states):
    """The factor node ``nid`` contributes to the joint; it and its parents
    must have a state."""
    spec = net.nodes[nid]
    if spec.prior is not None:
        return spec.prior if states[nid] else 1.0 - spec.prior
    w = 1.0 - spec.leak
    for p, q in spec.links:
        if states[p]:
            w *= 1.0 - q
    return 1.0 - w if states[nid] else w


def complete(net, states, nid):
    """Node ``nid`` and every parent of it have a state, so its factor is
    known."""
    return states[nid] is not None and all(states[p] is not None for p, _ in net.nodes[nid].links)


def known_product(net, states):
    """The product of every known factor, in node-id order; 1 when none is."""
    prod = 1.0
    for nid in range(len(net)):
        if complete(net, states, nid):
            prod *= factor(net, nid, states)
    return prod


def joint(net, states):
    """The joint probability of a complete instantiation."""
    if None in states:
        raise ValueError("the instantiation is incomplete")
    return known_product(net, states)
