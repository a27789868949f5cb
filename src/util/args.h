// Minimal command-line argument parser for the CLI tool.
//
// Supports:  prog subcommand [positionals] [--flag value] [--switch]
// Flags may be declared with defaults and help text; unknown flags are
// errors. No external dependencies, deterministic error messages.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace netsample {

class ArgParser {
 public:
  /// Declare flags before parse(). `value_name` empty means boolean switch.
  void add_flag(const std::string& name, const std::string& value_name,
                const std::string& help, std::optional<std::string> def = {});

  /// Parse argv-style input (excluding the program/subcommand tokens).
  /// Returns an error status on unknown flags or missing values.
  [[nodiscard]] Status parse(const std::vector<std::string>& args);

  /// Positional arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positionals_;
  }

  /// True if the flag appeared (or has a default).
  [[nodiscard]] bool has(const std::string& name) const;

  /// True if the flag appeared on the command line; a default does not count.
  [[nodiscard]] bool given(const std::string& name) const {
    return values_.count(name) != 0;
  }

  /// Typed getters. Throw std::invalid_argument if absent (use has()), or
  /// if the value cannot be converted.
  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Formatted help text for the declared flags.
  [[nodiscard]] std::string help() const;

 private:
  struct FlagSpec {
    std::string value_name;  // empty -> boolean switch
    std::string help;
    std::optional<std::string> default_value;
  };

  std::map<std::string, FlagSpec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace netsample
