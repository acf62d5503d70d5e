#include "util/cli.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace fsml::util {

namespace {

// "0.05" rather than "5.000000e-02": default ostream formatting reads well
// in error messages for both integers and fractions.
template <typename T>
std::string range_text(T lo, T hi) {
  std::ostringstream os;
  os << '[' << lo << ", " << hi << ']';
  return os.str();
}

[[noreturn]] void range_error(const std::string& name, const char* kind,
                              const std::string& range,
                              const std::string& value) {
  throw std::runtime_error("option --" + name + " expects " + kind + " in " +
                           range + ", got '" + value + "'");
}

template <typename T>
T checked(const std::string& name, const char* kind, T value, T lo, T hi,
          const std::string& raw) {
  if (std::isnan(static_cast<double>(value)) || value < lo || value > hi)
    range_error(name, kind, range_text(lo, hi), raw);
  return value;
}

// Splits on ',' and parses every element with `parse`; rejects empty
// elements ("1,,2") so a stray comma cannot silently shrink a sweep axis.
template <typename T, typename Parse>
std::vector<T> parse_list(const std::string& name, const char* kind,
                          const char* kind_plural, const std::string& raw,
                          T lo, T hi, Parse parse) {
  std::vector<T> out;
  std::size_t start = 0;
  while (start <= raw.size()) {
    std::size_t end = raw.find(',', start);
    if (end == std::string::npos) end = raw.size();
    const std::string piece = raw.substr(start, end - start);
    T value{};
    try {
      if (piece.empty()) throw std::invalid_argument("empty");
      std::size_t used = 0;
      value = parse(piece, &used);
      if (used != piece.size()) throw std::invalid_argument("trailing");
    } catch (const std::exception&) {
      throw std::runtime_error("option --" + name +
                               " expects a comma-separated list of " +
                               kind_plural + ", got '" + raw +
                               "' (bad element '" + piece + "')");
    }
    out.push_back(checked(name, kind, value, lo, hi, piece));
    start = end + 1;
  }
  return out;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  FSML_CHECK(argc >= 1);
  program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "true";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    throw std::runtime_error("option --" + name + " expects an integer, got '" +
                             it->second + "'");
  }
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw std::runtime_error("option --" + name + " expects a number, got '" +
                             it->second + "'");
  }
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::runtime_error("option --" + name + " expects a boolean, got '" +
                           v + "'");
}

std::int64_t Cli::get_int_in(const std::string& name, std::int64_t fallback,
                             std::int64_t lo, std::int64_t hi) const {
  if (!has(name)) return fallback;
  return checked(name, "an integer", get_int(name, fallback), lo, hi,
                 get(name, ""));
}

double Cli::get_double_in(const std::string& name, double fallback, double lo,
                          double hi) const {
  if (!has(name)) return fallback;
  return checked(name, "a number", get_double(name, fallback), lo, hi,
                 get(name, ""));
}

std::vector<double> Cli::get_double_list(const std::string& name,
                                         std::vector<double> fallback,
                                         double lo, double hi) const {
  if (!has(name)) return fallback;
  return parse_list(
      name, "a number", "numbers", get(name, ""), lo, hi,
      [](const std::string& s, std::size_t* used) { return std::stod(s, used); });
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name,
                                            std::vector<std::int64_t> fallback,
                                            std::int64_t lo,
                                            std::int64_t hi) const {
  if (!has(name)) return fallback;
  return parse_list(name, "an integer", "integers", get(name, ""), lo, hi,
                    [](const std::string& s, std::size_t* used) {
                      return static_cast<std::int64_t>(std::stoll(s, used));
                    });
}

}  // namespace fsml::util
