#include "methods/method_factory.h"

#include <algorithm>
#include <cctype>

#include "methods/ipl_store.h"
#include "methods/ipu_store.h"
#include "methods/opu_store.h"
#include "pdl/pdl_store.h"

namespace flashdb::methods {

std::string MethodSpec::ToString() const {
  switch (kind) {
    case MethodKind::kOpu:
      return "OPU";
    case MethodKind::kIpu:
      return "IPU";
    case MethodKind::kPdl:
      return "PDL(" + std::to_string(param) + "B)";
    case MethodKind::kIpl:
      return "IPL(" + std::to_string(param / 1024) + "KB)";
  }
  return "?";
}

namespace {
/// Parses "256B" / "2KB" / "18KB" / bare digits into bytes.
bool ParseSize(const std::string& s, uint32_t* out) {
  size_t i = 0;
  uint64_t v = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
    v = v * 10 + static_cast<uint64_t>(s[i] - '0');
    ++i;
  }
  if (i == 0) return false;
  std::string suffix = s.substr(i);
  std::transform(suffix.begin(), suffix.end(), suffix.begin(), ::toupper);
  if (suffix == "KB" || suffix == "K") v *= 1024;
  else if (!(suffix.empty() || suffix == "B")) return false;
  if (v == 0 || v > (1u << 30)) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}
}  // namespace

Result<MethodSpec> ParseMethodSpec(const std::string& name) {
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(), ::toupper);
  MethodSpec spec;
  if (upper == "OPU") {
    spec.kind = MethodKind::kOpu;
    return spec;
  }
  if (upper == "IPU") {
    spec.kind = MethodKind::kIpu;
    return spec;
  }
  const size_t open = upper.find('(');
  const size_t close = upper.find(')');
  if (open == std::string::npos || close == std::string::npos || close < open) {
    return Status::InvalidArgument("unparsable method spec: " + name);
  }
  const std::string head = upper.substr(0, open);
  const std::string arg = upper.substr(open + 1, close - open - 1);
  uint32_t bytes = 0;
  if (!ParseSize(arg, &bytes)) {
    return Status::InvalidArgument("bad size in method spec: " + name);
  }
  if (head == "PDL") {
    spec.kind = MethodKind::kPdl;
    spec.param = bytes;
    return spec;
  }
  if (head == "IPL") {
    spec.kind = MethodKind::kIpl;
    spec.param = bytes;
    return spec;
  }
  return Status::InvalidArgument("unknown method family: " + name);
}

std::unique_ptr<PageStore> CreateStore(flash::FlashDevice* dev,
                                       const MethodSpec& spec) {
  switch (spec.kind) {
    case MethodKind::kOpu:
      return std::make_unique<OpuStore>(dev);
    case MethodKind::kIpu:
      return std::make_unique<IpuStore>(dev);
    case MethodKind::kPdl:
      return std::make_unique<pdl::PdlStore>(dev, pdl::PdlConfig{spec.param});
    case MethodKind::kIpl:
      return std::make_unique<IplStore>(dev, IplConfig{spec.param});
  }
  return nullptr;
}

std::unique_ptr<ftl::ShardedStore> CreateShardedStore(
    const flash::FlashConfig& shard_config, uint32_t num_shards,
    const MethodSpec& spec) {
  std::vector<ftl::ShardedStore::Shard> shards(num_shards == 0 ? 1
                                                               : num_shards);
  for (auto& shard : shards) {
    shard.owned_device = std::make_unique<flash::FlashDevice>(shard_config);
    shard.device = shard.owned_device.get();
    shard.store = CreateStore(shard.device, spec);
  }
  return std::make_unique<ftl::ShardedStore>(std::move(shards));
}

std::unique_ptr<ftl::ShardedStore> CreateShardedStoreOverDevices(
    const std::vector<flash::FlashDevice*>& devices, const MethodSpec& spec) {
  std::vector<ftl::ShardedStore::Shard> shards(devices.size());
  for (size_t i = 0; i < devices.size(); ++i) {
    shards[i].device = devices[i];
    shards[i].store = CreateStore(devices[i], spec);
  }
  return std::make_unique<ftl::ShardedStore>(std::move(shards));
}

std::vector<MethodSpec> PaperMethodSet() {
  return {
      MethodSpec{MethodKind::kIpl, 18 * 1024},
      MethodSpec{MethodKind::kIpl, 64 * 1024},
      MethodSpec{MethodKind::kPdl, 2048},
      MethodSpec{MethodKind::kPdl, 256},
      MethodSpec{MethodKind::kOpu, 0},
      MethodSpec{MethodKind::kIpu, 0},
  };
}

}  // namespace flashdb::methods
