#include "dnn/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace extradeep::dnn {

std::int64_t NetworkModel::total_params() const {
    std::int64_t n = 0;
    for (const auto& l : layers) n += l.params;
    return n;
}

double NetworkModel::gradient_bytes() const {
    double b = 0.0;
    for (const auto& l : layers) b += l.weight_bytes;
    return b;
}

double NetworkModel::flops_forward() const {
    double f = 0.0;
    for (const auto& l : layers) f += l.flops_forward;
    return f;
}

std::vector<std::size_t> NetworkModel::balanced_stage_bounds(int stages) const {
    if (stages < 1 || static_cast<std::size_t>(stages) > layers.size()) {
        throw InvalidArgumentError(
            "balanced_stage_bounds: invalid stage count for this network");
    }
    const double total = flops_forward();
    std::vector<std::size_t> bounds;
    bounds.reserve(stages);
    double acc = 0.0;
    int next_stage = 1;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        acc += layers[i].flops_forward;
        // Close a stage once its share of FLOPs is reached, keeping enough
        // layers for the remaining stages.
        const double target = total * next_stage / stages;
        const std::size_t remaining_layers = layers.size() - (i + 1);
        const std::size_t remaining_stages = stages - next_stage;
        if ((acc >= target && remaining_layers >= remaining_stages &&
             next_stage < stages) ||
            remaining_layers == remaining_stages) {
            if (next_stage < stages) {
                bounds.push_back(i + 1);
                ++next_stage;
            }
        }
    }
    bounds.push_back(layers.size());
    return bounds;
}

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

}  // namespace

NetworkBuilder::NetworkBuilder(std::string network_name, TensorShape input)
    : shape_(std::move(input)) {
    model_.name = std::move(network_name);
    model_.input = shape_;
}

Layer& NetworkBuilder::push(LayerKind kind, const std::string& name,
                            const std::string& auto_prefix) {
    Layer l;
    l.kind = kind;
    l.name = name.empty()
                 ? auto_prefix + "_" + std::to_string(++auto_index_)
                 : name;
    l.input = shape_;
    model_.layers.push_back(std::move(l));
    return model_.layers.back();
}

NetworkBuilder& NetworkBuilder::conv2d(int out_channels, int kernel, int stride,
                                       const std::string& name) {
    if (shape_.rank() != 3) {
        throw InvalidArgumentError("conv2d: input must be HWC");
    }
    Layer& l = push(LayerKind::Conv2d, name, "conv");
    l.kernel_size = kernel;
    const std::int64_t h = shape_.dims[0], w = shape_.dims[1], c = shape_.dims[2];
    const std::int64_t ho = ceil_div(h, stride), wo = ceil_div(w, stride);
    l.output = TensorShape{ho, wo, out_channels};
    l.params = static_cast<std::int64_t>(c) * kernel * kernel * out_channels;
    l.flops_forward = 2.0 * static_cast<double>(ho) * wo * out_channels * c *
                      kernel * kernel;
    l.flops_backward = 2.0 * l.flops_forward;
    l.weight_bytes = 4.0 * static_cast<double>(l.params);
    l.output_bytes = l.output.bytes();
    shape_ = l.output;
    return *this;
}

NetworkBuilder& NetworkBuilder::depthwise_conv2d(int kernel, int stride,
                                                 const std::string& name) {
    if (shape_.rank() != 3) {
        throw InvalidArgumentError("depthwise_conv2d: input must be HWC");
    }
    Layer& l = push(LayerKind::DepthwiseConv2d, name, "dwconv");
    l.kernel_size = kernel;
    const std::int64_t h = shape_.dims[0], w = shape_.dims[1], c = shape_.dims[2];
    const std::int64_t ho = ceil_div(h, stride), wo = ceil_div(w, stride);
    l.output = TensorShape{ho, wo, c};
    l.params = static_cast<std::int64_t>(c) * kernel * kernel;
    l.flops_forward =
        2.0 * static_cast<double>(ho) * wo * c * kernel * kernel;
    l.flops_backward = 2.0 * l.flops_forward;
    l.weight_bytes = 4.0 * static_cast<double>(l.params);
    l.output_bytes = l.output.bytes();
    shape_ = l.output;
    return *this;
}

NetworkBuilder& NetworkBuilder::dense(int units, const std::string& name) {
    Layer& l = push(LayerKind::Dense, name, "dense");
    const std::int64_t in = shape_.elements();
    l.output = TensorShape{units};
    // Sequence inputs keep their leading dim: (len, feat) -> (len, units).
    if (shape_.rank() == 2) {
        l.output = TensorShape{shape_.dims[0], units};
        const std::int64_t feat = shape_.dims[1];
        l.params = feat * units + units;
        l.flops_forward = 2.0 * static_cast<double>(shape_.dims[0]) * feat * units;
    } else {
        l.params = in * units + units;
        l.flops_forward = 2.0 * static_cast<double>(in) * units;
    }
    l.flops_backward = 2.0 * l.flops_forward;
    l.weight_bytes = 4.0 * static_cast<double>(l.params);
    l.output_bytes = l.output.bytes();
    shape_ = l.output;
    return *this;
}

NetworkBuilder& NetworkBuilder::batch_norm(const std::string& name) {
    Layer& l = push(LayerKind::BatchNorm, name, "bn");
    const std::int64_t c = shape_.dims.back();
    l.output = shape_;
    l.params = 2 * c;  // gamma + beta (running stats are not trainable)
    l.flops_forward = 4.0 * static_cast<double>(shape_.elements());
    l.flops_backward = 4.0 * static_cast<double>(shape_.elements());
    l.weight_bytes = 4.0 * static_cast<double>(l.params);
    l.output_bytes = l.output.bytes();
    return *this;
}

NetworkBuilder& NetworkBuilder::activation(const std::string& act,
                                           const std::string& name) {
    Layer& l = push(LayerKind::Activation, name, act);
    l.output = shape_;
    // Swish/sigmoid cost ~4 flops/element, relu ~1.
    const double per_elem = (act == "relu") ? 1.0 : 4.0;
    l.flops_forward = per_elem * static_cast<double>(shape_.elements());
    l.flops_backward = l.flops_forward;
    l.output_bytes = l.output.bytes();
    return *this;
}

NetworkBuilder& NetworkBuilder::max_pool(int kernel, int stride,
                                         const std::string& name) {
    if (shape_.rank() != 3) {
        throw InvalidArgumentError("max_pool: input must be HWC");
    }
    Layer& l = push(LayerKind::MaxPool, name, "maxpool");
    l.kernel_size = kernel;
    const std::int64_t ho = ceil_div(shape_.dims[0], stride);
    const std::int64_t wo = ceil_div(shape_.dims[1], stride);
    l.output = TensorShape{ho, wo, shape_.dims[2]};
    l.flops_forward = static_cast<double>(kernel) * kernel * l.output.elements();
    l.flops_backward = static_cast<double>(l.output.elements());
    l.output_bytes = l.output.bytes();
    shape_ = l.output;
    return *this;
}

NetworkBuilder& NetworkBuilder::global_avg_pool(const std::string& name) {
    Layer& l = push(LayerKind::GlobalAvgPool, name, "gap");
    const std::int64_t c = shape_.dims.back();
    l.output = TensorShape{c};
    l.flops_forward = static_cast<double>(shape_.elements());
    l.flops_backward = static_cast<double>(shape_.elements());
    l.output_bytes = l.output.bytes();
    shape_ = l.output;
    return *this;
}

NetworkBuilder& NetworkBuilder::add(const std::string& name) {
    Layer& l = push(LayerKind::Add, name, "add");
    l.output = shape_;
    l.flops_forward = static_cast<double>(shape_.elements());
    l.flops_backward = static_cast<double>(shape_.elements());
    l.output_bytes = l.output.bytes();
    return *this;
}

NetworkBuilder& NetworkBuilder::scale(const std::string& name) {
    Layer& l = push(LayerKind::Scale, name, "scale");
    l.output = shape_;
    l.flops_forward = static_cast<double>(shape_.elements());
    l.flops_backward = static_cast<double>(shape_.elements());
    l.output_bytes = l.output.bytes();
    return *this;
}

NetworkBuilder& NetworkBuilder::embedding(std::int64_t vocab, int dim,
                                          const std::string& name) {
    if (shape_.rank() != 1) {
        throw InvalidArgumentError("embedding: input must be a token sequence");
    }
    Layer& l = push(LayerKind::Embedding, name, "embed");
    const std::int64_t len = shape_.dims[0];
    l.output = TensorShape{len, dim};
    l.params = vocab * dim;
    l.flops_forward = 0.0;  // gather, memory bound
    // Sparse gradient scatter-add.
    l.flops_backward = static_cast<double>(len) * dim;
    l.weight_bytes = 4.0 * static_cast<double>(l.params);
    l.output_bytes = l.output.bytes();
    shape_ = l.output;
    return *this;
}

NetworkBuilder& NetworkBuilder::softmax(const std::string& name) {
    Layer& l = push(LayerKind::Softmax, name, "softmax");
    l.output = shape_;
    l.flops_forward = 5.0 * static_cast<double>(shape_.elements());
    l.flops_backward = 3.0 * static_cast<double>(shape_.elements());
    l.output_bytes = l.output.bytes();
    return *this;
}

NetworkBuilder& NetworkBuilder::flatten(const std::string& name) {
    Layer& l = push(LayerKind::Flatten, name, "flatten");
    l.output = TensorShape{shape_.elements()};
    l.output_bytes = l.output.bytes();
    shape_ = l.output;
    return *this;
}

NetworkBuilder& NetworkBuilder::dropout(const std::string& name) {
    Layer& l = push(LayerKind::Dropout, name, "dropout");
    l.output = shape_;
    l.flops_forward = 2.0 * static_cast<double>(shape_.elements());
    l.flops_backward = static_cast<double>(shape_.elements());
    l.output_bytes = l.output.bytes();
    return *this;
}

NetworkBuilder& NetworkBuilder::branch(const TensorShape& at) {
    shape_ = at;
    return *this;
}

NetworkModel NetworkBuilder::build() && { return std::move(model_); }

}  // namespace extradeep::dnn
