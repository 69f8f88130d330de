#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/parallel.h"
#include "obs/metrics.h"

namespace poiprivacy::common {

namespace {

bool is_flag(const std::string& arg) {
  return arg.size() > 2 && arg.compare(0, 2, "--") == 0;
}

/// Parses the whole of `text` as a T; anything else (garbage, trailing
/// junk, out of range) throws std::invalid_argument naming the flag.
template <typename T>
T parse_number(const std::string& name, const std::string& text) {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc{} || end != last) {
    throw std::invalid_argument("invalid value for --" + name + ": '" +
                                text + "'");
  }
  return value;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv,
             const std::vector<std::string>& known)
    : known_(known) {
  if (!known_.empty() &&
      std::find(known_.begin(), known_.end(), kHelpFlag) == known_.end()) {
    known_.push_back(kHelpFlag);
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!is_flag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      has_value = true;
    } else if (i + 1 < argc && !is_flag(argv[i + 1])) {
      value = argv[++i];
      has_value = true;
    }
    if (!known_.empty() &&
        std::find(known_.begin(), known_.end(), name) == known_.end()) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
    values_[name] = has_value ? value : "true";
  }
}

std::string Flags::usage(const std::string& program) const {
  std::string out = "usage: " + program + " [--flag value | --flag]...\n";
  if (known_.empty()) {
    out += "  (this binary accepts arbitrary flags)\n";
    return out;
  }
  out += "known flags:\n";
  for (const std::string& name : known_) {
    out += "  --" + name + "\n";
  }
  return out;
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_number<std::int64_t>(name, it->second);
}

std::int64_t Flags::get_in_range(const std::string& name,
                                 std::int64_t fallback, std::int64_t lo,
                                 std::int64_t hi) const {
  const std::int64_t value = get(name, fallback);
  if (value < lo || value > hi) {
    throw std::invalid_argument("invalid value for --" + name + ": '" +
                                std::to_string(value) + "' (expected " +
                                std::to_string(lo) + ".." +
                                std::to_string(hi) + ")");
  }
  return value;
}

double Flags::get(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_number<double>(name, it->second);
}

std::size_t Flags::apply_threads_flag() const {
  // 0 keeps the hardware default; the cap stops a typo from asking the OS
  // for that many threads.
  const std::int64_t n = get_in_range(kThreadsFlag, 0, 0, kMaxThreads);
  set_default_thread_count(static_cast<std::size_t>(n));
  return default_thread_count();
}

void Flags::apply_metrics_flag() const {
  if (!has(kMetricsFlag)) return;
  // A bare `--metrics` is stored as the string "true" → dump to stderr.
  const std::string path = get(kMetricsFlag, std::string{});
  obs::dump_on_exit(path == "true" ? std::string{} : path);
}

bool Flags::get(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

int run_main(int argc, const char* const* argv,
             const std::vector<std::string>& known,
             const std::function<int(const Flags&)>& body,
             const std::string& help) {
  try {
    const Flags flags(argc, argv, known);
    if (flags.help_requested()) {
      std::cout << flags.usage(argc > 0 ? argv[0] : "") << help;
      return 0;
    }
    return body(flags);
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}

}  // namespace poiprivacy::common
