#include "harness/cli.h"

#include <cstdlib>

namespace flashdb::harness {

Flags::Flags(int argc, char** argv) {
  if (argc > 0) {
    program_ = argv[0];
    program_ = program_.substr(program_.rfind('/') + 1);
  }
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

const std::string* Flags::Find(const std::string& key) const {
  read_.insert(key);
  auto it = kv_.find(key);
  return it == kv_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& key) const { return Find(key) != nullptr; }

std::string Flags::GetString(const std::string& key, std::string def) const {
  const std::string* v = Find(key);
  return v == nullptr ? def : *v;
}

int64_t Flags::GetInt(const std::string& key, int64_t def) const {
  const std::string* v = Find(key);
  return v == nullptr ? def : std::strtoll(v->c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& key, double def) const {
  const std::string* v = Find(key);
  return v == nullptr ? def : std::strtod(v->c_str(), nullptr);
}

bool Flags::GetBool(const std::string& key, bool def) const {
  const std::string* v = Find(key);
  if (v == nullptr) return def;
  return *v != "0" && *v != "false";
}

bool Flags::AllRead(std::ostream& err) const {
  std::string unread;
  for (const auto& [key, value] : kv_) {
    if (read_.count(key) == 0) unread += " --" + key;
  }
  for (const std::string& arg : positional_) unread += " " + arg;
  if (unread.empty()) return true;
  err << program_ << ": unknown argument(s):" << unread << "\n";
  return false;
}

}  // namespace flashdb::harness
