#include "harness/cli.h"

#include <charconv>

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

template <typename T>
T Flags::GetNumber(const std::string& key, T def) const {
  const std::string* v = Find(key);
  if (v == nullptr) return def;
  const char* end = v->data() + v->size();
  T out{};
  const auto [ptr, ec] = std::from_chars(v->data(), end, out);
  if (ec == std::errc() && ptr == end) return out;
  malformed_[key] =
      ec == std::errc::result_out_of_range ? "out of range" : "not a number";
  return def;
}

int64_t Flags::GetInt(const std::string& key, int64_t def) const {
  return GetNumber(key, def);
}

double Flags::GetDouble(const std::string& key, double def) const {
  return GetNumber(key, def);
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
  if (!unread.empty()) {
    err << program_ << ": unknown argument(s):" << unread << "\n";
  }
  for (const auto& [key, why] : malformed_) {
    err << program_ << ": --" << key << "=" << kv_.at(key) << ": " << why
        << "\n";
  }
  return unread.empty() && malformed_.empty();
}

}  // namespace flashdb::harness
