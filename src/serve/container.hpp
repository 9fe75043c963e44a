// The serving runtime's view of a checkpoint.
//
// The serving path (src/serve) is deliberately tape-free: it links only
// legw_core + legw_mem + legw_obs (tools/lint.py's serve-no-tape rule
// enforces this). ckpt::load restores into live nn::Module state, so serving
// decodes the same bytes through the shared codec (core/container.hpp) into
// plain name->tensor maps instead: the whole file is parsed and CRC-checked
// before anything is returned, and failures are structured Status values.
//
// Serving requires a *full-state* v2 checkpoint: `meta` (provenance),
// `params` and `buffers` (inference-mode BatchNorm needs the running stats a
// v1 parameter-only file does not carry). A v1 file or a v2 container
// missing those sections is rejected with kMissingSection naming exactly
// what is absent.
#pragma once

#include <string>
#include <vector>

#include "core/container.hpp"
#include "core/tensor.hpp"

namespace legw::serve {

// The container codec's one status taxonomy (core/container.hpp).
using Status = core::container::Status;
using Result = core::container::Result;
using core::container::status_name;

struct NamedTensor {
  std::string name;
  core::Tensor tensor;
};

// Everything serving needs out of a checkpoint: trained parameters,
// non-trainable buffers, and provenance counters. Tensors are owned copies
// of the file bytes.
struct ModelImage {
  std::vector<NamedTensor> params;   // file order == module registration order
  std::vector<NamedTensor> buffers;
  i64 step = 0;
  i64 epoch = 0;
  std::string optimizer;  // informational ("" when trained without one)

  // nullptr when absent.
  const core::Tensor* find_param(const std::string& name) const;
  const core::Tensor* find_buffer(const std::string& name) const;
};

// Validating reader over a file on disk.
[[nodiscard]] Result read_model_image(const std::string& path,
                                      ModelImage* out);

// Same, over an in-memory byte image — the corruption-corpus tests mutate
// bytes directly and must exercise the identical decode path.
[[nodiscard]] Result read_model_image_bytes(const std::string& image,
                                            ModelImage* out);

}  // namespace legw::serve
