#include "harness/cli.h"

#include <cstdlib>

namespace flashdb::harness {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_[arg].assign(1, '1');
    } else {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

std::string Flags::GetString(const std::string& key, std::string def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& key, double def) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::GetBool(const std::string& key, bool def) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second != "0" && it->second != "false";
}

}  // namespace flashdb::harness
