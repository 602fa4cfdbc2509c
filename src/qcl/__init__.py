"""Information capacity of single-server queue channels with
delay-dependent noise.

Symbols queue for a single server; the longer one waits, the noisier its
channel use becomes: erased, or permuted by a delay-dependent noise symbol.
One DecoherenceModel(kappa), the depolarizing law p(w) = 1 - exp(-kappa*w),
drives both kinds: the erasure channel erases with probability p(w), and
the binary symmetric channel, the two-symbol permutation channel with XOR
table (RandomBijective.binary_symmetric), flips with probability p(w)/2, the
depolarizing flip. The package pairs closed-form capacity expressions with a
discrete-event Monte Carlo simulator and a check suite that holds the two
against each other; each channel's capacity and score methods are the one
evaluation path per channel that the command line renders. Both return
CapacityResults, which carry a sampled value's std_error and n with them.

Every name is imported from the module that defines it: the closed forms
and the optimal arrival rate from qcl.capacity, the queue from qcl.queueing,
the channels from qcl.channels, the Monte Carlo witnesses from qcl.simulate,
the checks from qcl.validation. `import qcl` itself loads none of them, and
numpy is imported only by the code that draws or holds arrays, so the
closed forms start without it.
"""

__version__ = "0.1.0"
