"""Tour of the autodiff engine: ops, a backward pass, a finite-difference check.

Every operation records a vector-Jacobian closure; backward() replays the
graph once in reverse creation order and accumulates into the leaves.
"""

import numpy as np

from stereosr import tensor as T
from stereosr.gradcheck import check_gradients
from stereosr.tensor import Tensor

rng = np.random.default_rng(0)

# scalar chain rule on a tiny expression
p = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
loss = ((p * p) + p).sum()
loss.backward()
print("d/dp of sum(p^2 + p) at [1,2,3]:", p.grad, "(expected [3, 5, 7])")

# a dilated convolution, the workhorse of the feature extractor
x = Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True, dtype=np.float64)
w = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True, dtype=np.float64)
b = Tensor(np.zeros(4), requires_grad=True, dtype=np.float64)
y = T.conv2d(x, w, b, padding=4, dilation=4)
print("dilated conv output:", y.shape)

# softmax rows normalize and stay put under huge logits
logits = Tensor(np.array([[1000.0, 0.0, -5.0]]))
print("softmax([1000, 0, -5]) =", T.softmax_lastdim(logits).data.round(6))

# the same machinery the test suite uses: central differences vs backward
report = check_gradients(
    lambda: (T.conv2d(x, w, b, padding=2, dilation=2) ** 2).mean(),
    [("x", x), ("w", w), ("b", b)],
)
print("finite-difference agreement (max rel err per tensor):")
for name, err in report.items():
    print(f"  {name}: {err:.2e}")
