#ifndef DEEPST_NN_INFER_PRECISION_H_
#define DEEPST_NN_INFER_PRECISION_H_

#include <string>

namespace deepst {
namespace nn {
namespace infer {

// Storage precision of the packed weight matrices consumed by the GEMV
// fast path (nn/infer/forward.h). Weights are always float32 on disk and in
// the autodiff graph; the inference engine re-packs them once per model:
//
//   kDouble -- exact widening to double (the PR 3 baseline).
//   kBf16   -- bfloat16 (top 16 bits of the float, round-to-nearest-even):
//              half the weight bytes, ~3 decimal digits of mantissa.
//   kInt8   -- 8-bit affine quantization with a per-row scale/zero-point:
//              quarter the weight bytes; per-row ranges keep the step size
//              proportional to each output neuron's weight spread.
//
// Activations, biases and accumulation stay double/float in every mode, so
// reduced precision only perturbs the weight operand. bf16/int8 results are
// NOT bitwise comparable to double -- they are gated on eval-metric parity
// (top-1 next-segment agreement, CE delta) instead; see docs/inference.md.
enum class Precision {
  kDouble = 0,
  kBf16 = 1,
  kInt8 = 2,
};

inline const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kDouble:
      return "double";
    case Precision::kBf16:
      return "bf16";
    case Precision::kInt8:
      return "int8";
  }
  return "double";
}

// Parses "double" | "bf16" | "int8"; returns false (leaving *out untouched)
// on anything else.
inline bool ParsePrecision(const std::string& name, Precision* out) {
  if (name == "double") {
    *out = Precision::kDouble;
    return true;
  }
  if (name == "bf16") {
    *out = Precision::kBf16;
    return true;
  }
  if (name == "int8") {
    *out = Precision::kInt8;
    return true;
  }
  return false;
}

// Bytes per packed weight element (excluding the per-row scale/zero-point
// sidecar of int8); used by inspect/serve to report packing metadata.
inline int PrecisionWeightBytes(Precision p) {
  switch (p) {
    case Precision::kDouble:
      return 8;
    case Precision::kBf16:
      return 2;
    case Precision::kInt8:
      return 1;
  }
  return 8;
}

}  // namespace infer
}  // namespace nn
}  // namespace deepst

#endif  // DEEPST_NN_INFER_PRECISION_H_
