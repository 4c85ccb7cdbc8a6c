"""
Group quantization and bit packing
==================================

The storage primitive: map a small group of floats to 2- or 4-bit
integer codes with one shared (zero_point, scale) pair, pack the codes
into bytes, and bound the reconstruction error by half the scale.
"""

import numpy as np

from kvmix import BitWidth
from kvmix.quant import dequantize_group, pack_codes, quantize_group, unpack_codes

# A group is any 1-D run of floats. Quantization is asymmetric: the
# zero point is the group minimum, the scale is the range divided by
# the number of code levels.
x = np.array([0.0, 0.3, 0.7, 1.0])
g = quantize_group(x, BitWidth.UINT2)
print("group:      ", x)
print("zero point: ", g.zero_point)
print("scale:      ", g.scale)
print("codes:      ", unpack_codes(g.codes))

# Decoding is code * scale + zero_point. Every element lands within
# scale/2 of its original, and the bound is available up front.
x_hat = dequantize_group(g)
print("decoded:    ", x_hat)
print("max error:  ", np.abs(x - x_hat).max())
print("bound (s/2):", g.scale / 2)

# Four bits buy five times finer steps on the same range: the scale is
# (max - min) / 15 instead of (max - min) / 3.
g4 = quantize_group(x, BitWidth.UINT4)
print("\n4-bit scale:", g4.scale, " (2-bit scale / 5 =", g.scale / 5, ")")
print("4-bit max error:", np.abs(x - dequantize_group(g4)).max())

# Codes pack LSB-first within each byte, little-endian across bytes.
# Four 2-bit codes fill exactly one byte.
buf = pack_codes([0, 1, 2, 3], BitWidth.UINT2)
print("\npacked [0,1,2,3] @ 2 bit ->", buf.data.hex(), "(1 byte)")
print("unpacked:", unpack_codes(buf))

# A tail that does not fill a byte is zero-padded; unpacking uses the
# stored length, so the round trip is always exact.
buf = pack_codes([3, 3, 3], BitWidth.UINT2)
print("packed [3,3,3] @ 2 bit ->", buf.data.hex(), "(still 1 byte, 2 pad bits)")

# A constant group degenerates gracefully: scale 0, all codes 0, and
# decoding returns the constant exactly.
g = quantize_group([5.0, 5.0, 5.0], BitWidth.UINT4)
print("\nconstant group -> scale", g.scale, ", decoded", dequantize_group(g))

# The error bound holds over any distribution. Stress it with heavy
# tails and mixed magnitudes.
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(2000):
    x = rng.standard_cauchy(size=rng.integers(1, 65)) * 10.0 ** rng.integers(-3, 4)
    g = quantize_group(x, BitWidth.UINT2)
    err = np.abs(x - dequantize_group(g)).max()
    worst = max(worst, err / (g.scale / 2) if g.scale else 0.0)
print(f"\n2000 random groups: worst error / bound = {worst:.6f}  (must stay <= 1)")
