#pragma once

#include <cstdint>
#include <string>

#include "dnn/shape.hpp"

namespace extradeep::dnn {

/// The layer vocabulary the cost model understands. Each kind maps to a
/// distinct family of GPU kernels in the simulator (cuDNN convolutions,
/// cuBLAS GEMMs, Eigen elementwise kernels, ...).
enum class LayerKind {
    Conv2d,
    DepthwiseConv2d,
    Dense,
    BatchNorm,
    Activation,   ///< ReLU / swish / sigmoid — elementwise
    MaxPool,
    GlobalAvgPool,
    Add,          ///< residual addition
    Scale,        ///< channelwise scale (squeeze-excite apply)
    Embedding,
    Softmax,
    Flatten,
    Dropout,
};

/// One layer of a network with its fully-derived per-sample cost numbers.
/// All FLOPs/bytes are *per sample*; the simulator multiplies by the batch
/// size per rank.
struct Layer {
    std::string name;
    LayerKind kind = LayerKind::Conv2d;
    TensorShape input;
    TensorShape output;
    int kernel_size = 0;           ///< spatial kernel size (conv/pool), else 0
    std::int64_t params = 0;       ///< trainable parameter count
    double flops_forward = 0.0;    ///< per-sample forward FLOPs
    double flops_backward = 0.0;   ///< per-sample backward FLOPs (dgrad+wgrad)
    double weight_bytes = 0.0;     ///< fp32 bytes of the trainable parameters
    double output_bytes = 0.0;     ///< fp32 bytes of the output activation
};

}  // namespace extradeep::dnn
