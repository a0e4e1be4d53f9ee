"""The tuple-keyed readout: the reference for ``spectra.readout_timeseries``.

The readout as it was first written: the signature classes come from the
node-by-node signature pass (``node_passes.forward``), keyed by the tuple
of probed sites each passes, and each class's row of the membership
matrix asks ``sm.site in sig`` of every plan site.  ``readout_timeseries``
keys the classes by int masks and unpacks their bits in numpy, for any
number of sites; the two must agree bit for bit, signs of zero included.
Of the readout's bounds and errors, only its refusal of a detector that
no route reaches is repeated here.
"""

from __future__ import annotations

import numpy as np

import node_passes
from weaktrace.errors import DegeneratePointerError
from weaktrace.pathsum import resolve_detector
from weaktrace.weakval import post_selected_mean


def readout_timeseries(net, plan, sigma, detector=None):
    """(xbar, rate) of the plan's readout at the detector."""
    target = resolve_detector(net, detector)
    in_amp, _ = node_passes.forward(net, frozenset(sm.site for sm in plan.sites))
    classes = in_amp.get((target, 0), {})
    if not classes:
        raise DegeneratePointerError(f"no paths reach detector {target!r}")
    member = np.array([[sm.site in sig for sm in plan.sites] for sig in classes], dtype=float)
    xbar, rate = post_selected_mean(list(classes.values()), plan._waves @ member.T)
    xbar *= sigma
    return xbar, rate
