// Minimal command-line option parser for the examples and bench binaries.
//
// Supports `--name=value`, `--name value` and boolean `--flag` forms plus
// `--help` generation.  Unknown options are an error; this keeps the bench
// invocations self-documenting.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace kpm {

/// Declarative command-line parser.
///
/// Usage:
///   CliParser cli("fig5", "Reproduces Figure 5");
///   auto n = cli.add_int("moments", 'N', 1024, "number of moments");
///   cli.parse(argc, argv);          // exits with usage on --help / error
///   use(*n);                        // values are filled in by parse()
class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Registers an int64 option with a default; returns a stable pointer to
  /// the parsed value (filled during parse()).
  const std::int64_t* add_int(const std::string& name, std::int64_t def, const std::string& help);
  /// Registers a floating-point option; parse() refuses NaN and infinities.
  const double* add_double(const std::string& name, double def, const std::string& help);
  /// Registers a string option.
  const std::string* add_string(const std::string& name, std::string def, const std::string& help);
  /// Registers a boolean flag (default false; present => true).
  const bool* add_flag(const std::string& name, const std::string& help);

  /// Parses argv.  On `--help` prints usage and std::exit(0); on malformed
  /// input (including a number with trailing characters, e.g. "8x") prints
  /// the problem + usage and std::exit(2).
  void parse(int argc, const char* const* argv);

  /// Renders the usage/help text.
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { Int, Double, String, Flag };
  struct Option {
    std::string name;
    Kind kind;
    std::string help;
    std::string default_text;
    // Deque-like stable storage via unique ownership inside vector of
    // pointers is avoided; we use fixed-capacity storage per option.
    std::int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
    bool flag_value = false;
  };

  Option* find(const std::string& name);
  Option& add(const std::string& name, Kind kind, const std::string& help,
              std::string default_text);

  std::string program_;
  std::string description_;
  std::vector<std::unique_ptr<Option>> options_;  // stable addresses
};

}  // namespace kpm
