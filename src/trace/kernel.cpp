#include "trace/kernel.hpp"

#include "common/error.hpp"

namespace extradeep::trace {

Phase phase_of(KernelCategory category) {
    switch (category) {
        case KernelCategory::Mpi:
        case KernelCategory::Nccl:
            return Phase::Communication;
        case KernelCategory::Memcpy:
        case KernelCategory::Memset:
            return Phase::MemoryOp;
        case KernelCategory::CudaKernel:
        case KernelCategory::CudaApi:
        case KernelCategory::Cublas:
        case KernelCategory::Cudnn:
        case KernelCategory::Os:
        case KernelCategory::NvtxFunction:
            return Phase::Computation;
    }
    throw InvalidArgumentError("phase_of: unknown category");
}

std::string_view category_name(KernelCategory category) {
    switch (category) {
        case KernelCategory::CudaKernel: return "CUDA kernel";
        case KernelCategory::Memcpy: return "Memcpy";
        case KernelCategory::Memset: return "Memset";
        case KernelCategory::Nccl: return "NCCL";
        case KernelCategory::CudaApi: return "CUDA API";
        case KernelCategory::Cublas: return "cuBLAS";
        case KernelCategory::Cudnn: return "cuDNN";
        case KernelCategory::Mpi: return "MPI";
        case KernelCategory::Os: return "OS";
        case KernelCategory::NvtxFunction: return "NVTX function";
    }
    throw InvalidArgumentError("category_name: unknown category");
}

std::optional<KernelCategory> find_category(std::string_view name) {
    if (name == "CUDA kernel") return KernelCategory::CudaKernel;
    if (name == "Memcpy") return KernelCategory::Memcpy;
    if (name == "Memset") return KernelCategory::Memset;
    if (name == "NCCL") return KernelCategory::Nccl;
    if (name == "CUDA API") return KernelCategory::CudaApi;
    if (name == "cuBLAS") return KernelCategory::Cublas;
    if (name == "cuDNN") return KernelCategory::Cudnn;
    if (name == "MPI") return KernelCategory::Mpi;
    if (name == "OS") return KernelCategory::Os;
    if (name == "NVTX function") return KernelCategory::NvtxFunction;
    return std::nullopt;
}

KernelCategory parse_category(std::string_view name) {
    if (const std::optional<KernelCategory> category = find_category(name)) {
        return *category;
    }
    throw ParseError("parse_category: unknown category name '" +
                     std::string(name) + "'");
}

std::string_view phase_name(Phase phase) {
    switch (phase) {
        case Phase::Computation: return "computation";
        case Phase::Communication: return "communication";
        case Phase::MemoryOp: return "memory ops";
    }
    throw InvalidArgumentError("phase_name: unknown phase");
}

}  // namespace extradeep::trace
