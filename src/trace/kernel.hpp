#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace extradeep::trace {

/// The kernel/function categories that the paper's toolchain distinguishes
/// (Sec. 2.1, step 2): CUDA kernels, memset, memcopy and NCCL operations on
/// the GPU; CUDA API, cuBLAS, cuDNN, MPI, OS, and user-defined (NVTX
/// annotated) function calls on the CPU.
enum class KernelCategory {
    CudaKernel,    ///< GPU compute kernel
    Memcpy,        ///< cudaMemcpy (HtoD / DtoH / DtoD)
    Memset,        ///< cudaMemset
    Nccl,          ///< NCCL collective on GPU
    CudaApi,       ///< CUDA runtime/driver API call on CPU
    Cublas,        ///< cuBLAS call
    Cudnn,         ///< cuDNN call
    Mpi,           ///< MPI function call
    Os,            ///< OS library call (I/O, threading, ...)
    NvtxFunction,  ///< user-defined function covered by NVTX instrumentation
};

/// Number of distinct kernel categories (for array-indexed tables).
inline constexpr int kKernelCategoryCount = 10;

/// Training-phase classification used for application models (Sec. 2.2,
/// step 4 of Fig. 2): every kernel is either computation, communication, or
/// a memory operation.
enum class Phase {
    Computation,
    Communication,
    MemoryOp,
};

inline constexpr int kPhaseCount = 3;

/// Maps a kernel category to its application-model phase. Communication is
/// MPI + NCCL; memory operations are memcpy + memset; everything else
/// (CUDA kernels, cuBLAS, cuDNN, CUDA API, OS, user functions) counts as
/// computation, following the paper's category totals.
Phase phase_of(KernelCategory category);

/// Human-readable category name ("CUDA kernel", "MPI", ...). Matches the
/// model-type rows of the paper's Table 2.
std::string_view category_name(KernelCategory category);

/// Parses the output of category_name back into the enum. Throws
/// ParseError for unknown names (used by the EDP profile reader).
KernelCategory parse_category(std::string_view name);

/// parse_category without the throw: nullopt for unknown names.
std::optional<KernelCategory> find_category(std::string_view name);

/// Human-readable phase name ("computation", ...).
std::string_view phase_name(Phase phase);

}  // namespace extradeep::trace
