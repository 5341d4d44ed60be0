#pragma once

#include <string>
#include <vector>

#include "dnn/layer.hpp"
#include "dnn/shape.hpp"

namespace extradeep::dnn {

/// A complete network as a linear sequence of cost-annotated layers. The
/// simulator does not need the DAG structure (residual branches are encoded
/// as Add layers whose cost covers the merge), only per-layer costs and
/// boundary activation sizes.
struct NetworkModel {
    std::string name;
    TensorShape input;
    std::vector<Layer> layers;

    /// Total trainable parameters.
    std::int64_t total_params() const;
    /// Total fp32 bytes of the gradient exchanged per step (== weight bytes).
    double gradient_bytes() const;
    /// Per-sample forward FLOPs of the full network.
    double flops_forward() const;

    /// Splits the layer list into `stages` contiguous stages with roughly
    /// balanced forward FLOPs (used by pipeline parallelism). Returns the
    /// exclusive end-index of each stage. Throws if stages > layer count.
    std::vector<std::size_t> balanced_stage_bounds(int stages) const;
};

/// Incremental builder that tracks the current tensor shape and derives each
/// layer's FLOPs/params. Convolution FLOPs use the 2*K*K*Cin*Cout*Hout*Wout
/// multiply-add convention; backward cost is the standard ~2x forward
/// (data-gradient + weight-gradient).
class NetworkBuilder {
public:
    NetworkBuilder(std::string network_name, TensorShape input);

    /// 2D convolution, 'same'-style padding: output spatial size is
    /// ceil(size / stride). No bias (ResNet/EfficientNet convention).
    NetworkBuilder& conv2d(int out_channels, int kernel, int stride,
                           const std::string& name = "");
    /// Depthwise 2D convolution (channel multiplier 1).
    NetworkBuilder& depthwise_conv2d(int kernel, int stride,
                                     const std::string& name = "");
    /// Fully connected layer with bias; flattens the input if needed.
    NetworkBuilder& dense(int units, const std::string& name = "");
    NetworkBuilder& batch_norm(const std::string& name = "");
    NetworkBuilder& activation(const std::string& act = "relu",
                               const std::string& name = "");
    NetworkBuilder& max_pool(int kernel, int stride, const std::string& name = "");
    NetworkBuilder& global_avg_pool(const std::string& name = "");
    /// Residual addition with a branch whose output has the current shape.
    NetworkBuilder& add(const std::string& name = "");
    /// Channelwise scaling (squeeze-excite application).
    NetworkBuilder& scale(const std::string& name = "");
    /// Token embedding lookup: input must be (length); output (length, dim).
    NetworkBuilder& embedding(std::int64_t vocab, int dim,
                              const std::string& name = "");
    NetworkBuilder& softmax(const std::string& name = "");
    NetworkBuilder& flatten(const std::string& name = "");
    NetworkBuilder& dropout(const std::string& name = "");

    const TensorShape& current_shape() const { return shape_; }

    /// Saves the current shape cursor so a parallel branch (e.g. a residual
    /// shortcut) can be emitted later with branch(); the merge itself is
    /// expressed by a following add()/scale().
    TensorShape mark() const { return shape_; }
    /// Rewinds the shape cursor to a previously saved branch point. The
    /// layers emitted afterwards are costed against that shape.
    NetworkBuilder& branch(const TensorShape& at);

    NetworkModel build() &&;

private:
    Layer& push(LayerKind kind, const std::string& name,
                const std::string& auto_prefix);

    NetworkModel model_;
    TensorShape shape_;
    int auto_index_ = 0;
};

}  // namespace extradeep::dnn
