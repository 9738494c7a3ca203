"""
A tape in five minutes
======================

Everything in this package differentiates through one reverse-mode tape
over dense float64 arrays. This walkthrough fits a tiny two-layer classifier,
built from the ops the networks use, to the sign of a random projection with
Adam, and cross-checks the analytic gradients against central finite
differences along the way.
"""

import numpy as np

from hiergan.autodiff import Adam, Tape, Tensor, grad_check

rng = np.random.default_rng(0)

# A fixed classification problem: the sign of a random projection.
x = Tensor(rng.standard_normal((64, 3)))
labels = (x.data @ rng.standard_normal((3, 1)) > 0).astype(np.float64)

w1 = Tensor(0.5 * rng.standard_normal((3, 16)), name="w1")
b1 = Tensor(np.zeros(16), name="b1")
w2 = Tensor(0.5 * rng.standard_normal((16, 1)), name="w2")
b2 = Tensor(np.zeros(1), name="b2")
params = [w1, b1, w2, b2]


def logits(tape: Tape, ps) -> Tensor:
    return tape.linear(tape.leaky_relu(tape.linear(x, ps[0], ps[1])), ps[2], ps[3])


def objective(tape: Tape, ps) -> Tensor:
    return tape.binary_cross_entropy_with_logits(logits(tape, ps), labels)


# A tape names the tensors it differentiates. One forward pass records the
# ops that depend on them; one reverse sweep yields every gradient.
tape = Tape(params)
loss = objective(tape, params)
grads = tape.backward(loss)
print(f"initial loss {loss.item():.4f}")
print(f"dL/dw1 shape {grads[w1].shape}, dL/db2 shape {grads[b2].shape}")

# Finite differences agree coordinate by coordinate.
print(grad_check(objective, params, step=1e-5))

# So Adam can descend with confidence. Tapes are throwaway, one per step; the
# optimizer keeps its moment estimates across steps and takes backward's dict.
opt = Adam(params, lr=0.01)
for step in range(1, 201):
    tape = Tape(params)
    loss = objective(tape, params)
    grads = tape.backward(loss)
    opt.step(grads)
    if step % 50 == 0:
        print(f"step {step:3d}  loss {loss.item():.4f}")

# A tape that tracks nothing records nothing: forward-only passes are free.
tape = Tape()
probs = tape.sigmoid(logits(tape, params))
print(f"accuracy {np.mean((probs.data > 0.5) == labels):.2f}")
print(f"records on a bare tape: {len(tape)}")
