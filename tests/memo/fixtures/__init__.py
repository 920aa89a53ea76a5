"""P-action cache files written by earlier versions of the recorder.

``compress-tiny-cut-every-action.fspc`` is the ``.fspc`` a cold
``compress`` run at ``tiny`` (``api.simulate(..., cache_dir=D)``, r10k,
bimodal predictor) left when the recorder cut a configuration at the
end of every cycle that recorded *any* action, a ``Retire`` included.
It holds configurations today's recorder no longer cuts: interior ones,
and the drained, halted terminal configuration whose only successor is
the ``EndNode``. The format is unchanged, so it must still warm-start.
"""

import os

CUT_EVERY_ACTION_FSPC = os.path.join(
    os.path.dirname(__file__), "compress-tiny-cut-every-action.fspc")
CUT_EVERY_ACTION_SHA256 = (
    "a85f2385bcda8e4dd6c3144c64f755f8179a8c52076bd775c71125e5e44b4c63")
