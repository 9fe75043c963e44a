#include "serve/container.hpp"

#include "core/io.hpp"

namespace legw::serve {

namespace {

namespace container = core::container;

const core::Tensor* find_in(const std::vector<NamedTensor>& list,
                            const std::string& name) {
  for (const auto& e : list) {
    if (e.name == name) return &e.tensor;
  }
  return nullptr;
}

// Decodes a named-tensor section into owned copies.
Result copy_tensor_list(std::string_view payload, const char* what,
                        std::vector<NamedTensor>* out) {
  std::vector<container::TensorView> views;
  Result res = container::decode_tensor_list(payload, /*named=*/true, what,
                                             &views);
  if (!res.ok()) return res;
  out->clear();
  out->reserve(views.size());
  for (const auto& v : views) out->push_back({v.name, v.to_tensor()});
  return {};
}

}  // namespace

const core::Tensor* ModelImage::find_param(const std::string& name) const {
  return find_in(params, name);
}

const core::Tensor* ModelImage::find_buffer(const std::string& name) const {
  return find_in(buffers, name);
}

Result read_model_image_bytes(const std::string& image, ModelImage* out) {
  LEGW_CHECK(out != nullptr, "read_model_image: null output");
  container::Container c;
  Result res = container::parse(image, &c);
  if (!res.ok()) return res;

  // Serving requires these three; collect every absence into one message so
  // the operator fixes the file once, not section by section. A v1 file
  // (parameters only) lands here too, missing [meta, buffers].
  std::string missing;
  for (const char* required : {"meta", "params", "buffers"}) {
    if (c.find(required) == nullptr) {
      missing += missing.empty() ? "" : ", ";
      missing += required;
    }
  }
  if (!missing.empty()) {
    std::string message = "v";
    message += std::to_string(c.version);
    message += " checkpoint missing the sections serving requires [" +
               missing + "]; re-save with ckpt::save";
    return container::fail(Status::kMissingSection, std::move(message));
  }

  ModelImage staged;
  container::Meta meta;
  res = container::decode_meta(*c.find("meta"), &meta);
  if (!res.ok()) return res;
  staged.step = meta.step;
  staged.epoch = meta.epoch;
  staged.optimizer = std::move(meta.optimizer);
  res = copy_tensor_list(*c.find("params"), "params", &staged.params);
  if (!res.ok()) return res;
  res = copy_tensor_list(*c.find("buffers"), "buffers", &staged.buffers);
  if (!res.ok()) return res;
  if (staged.params.empty()) {
    return container::fail(Status::kStateMismatch,
                           "serve checkpoint has an empty params section");
  }

  *out = std::move(staged);
  return {};
}

Result read_model_image(const std::string& path, ModelImage* out) {
  std::string image;
  const core::Status st = core::read_file(path, &image);
  if (!st.ok()) return container::fail(Status::kOpenFailed, st.message());
  Result res = read_model_image_bytes(image, out);
  if (!res.ok()) res.message += " (" + path + ")";
  return res;
}

}  // namespace legw::serve
