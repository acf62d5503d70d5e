// Minimal long-option command-line parsing for benches and examples.
//
// Supports "--name=value", "--name value" and boolean "--flag". Every
// "--name" is stored and unknown names are never rejected: a misspelled
// option is ignored and its default is used. Values are checked only when
// read, so a malformed or out-of-range value of an option the program asks
// for does raise.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fsml::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// get_int with an inclusive range check: "option --repeats expects an
  /// integer in [1, 1001], got '0'".
  std::int64_t get_int_in(const std::string& name, std::int64_t fallback,
                          std::int64_t lo, std::int64_t hi) const;
  /// get_double with an inclusive range check; NaN is always rejected.
  double get_double_in(const std::string& name, double fallback, double lo,
                       double hi) const;
  /// Comma-separated numbers ("0,0.05,0.1"), each range-checked as in
  /// get_double_in. Empty elements and empty lists are rejected.
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> fallback, double lo,
                                      double hi) const;
  /// Comma-separated integers ("0,4,2"), each range-checked.
  std::vector<std::int64_t> get_int_list(const std::string& name,
                                         std::vector<std::int64_t> fallback,
                                         std::int64_t lo,
                                         std::int64_t hi) const;

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program_name() const { return program_name_; }

 private:
  std::string program_name_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace fsml::util
