"""The two reference nets of the acceptance suite, as spec texts: a stride-1
net (two circular convs, then gap) and a strided one (a 2x2 max-pool after
each conv)."""

STRIDED_SPEC = """\
input 1 32 32
conv 8 3 stride=1 pad=circular act=relu
maxpool 2 stride=2
conv 16 3 stride=1 pad=circular act=relu
maxpool 2 stride=2
gap
dense 16
softmax
"""

STRIDE1_SPEC = """\
input 1 32 32
conv 16 3 stride=1 pad=circular act=relu
conv 16 3 stride=1 pad=circular act=relu
gap
dense 16
softmax
"""
