#include "common/cli.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace kpm {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

CliParser::Option& CliParser::add(const std::string& name, Kind kind, const std::string& help,
                                  std::string default_text) {
  KPM_REQUIRE(find(name) == nullptr, "duplicate option --" + name);
  options_.push_back(std::make_unique<Option>(
      Option{name, kind, help, std::move(default_text), 0, 0.0, {}, false}));
  return *options_.back();
}

const std::int64_t* CliParser::add_int(const std::string& name, std::int64_t def,
                                       const std::string& help) {
  Option& o = add(name, Kind::Int, help, std::to_string(def));
  o.int_value = def;
  return &o.int_value;
}

const double* CliParser::add_double(const std::string& name, double def, const std::string& help) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", def);
  Option& o = add(name, Kind::Double, help, buf);
  o.double_value = def;
  return &o.double_value;
}

const std::string* CliParser::add_string(const std::string& name, std::string def,
                                         const std::string& help) {
  Option& o = add(name, Kind::String, help, def);
  o.string_value = std::move(def);
  return &o.string_value;
}

const bool* CliParser::add_flag(const std::string& name, const std::string& help) {
  Option& o = add(name, Kind::Flag, help, "false");
  return &o.flag_value;
}

CliParser::Option* CliParser::find(const std::string& name) {
  for (const auto& o : options_)
    if (o->name == name) return o.get();
  return nullptr;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& o : options_) {
    os << "  --" << o->name;
    if (o->kind != Kind::Flag) os << "=<value>";
    os << "\n      " << o->help << " (default: " << o->default_text << ")\n";
  }
  os << "  --help\n      show this message\n";
  return os.str();
}

void CliParser::parse(int argc, const char* const* argv) {
  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "%s: %s\n\n%s", program_.c_str(), msg.c_str(), usage().c_str());
    std::exit(2);
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", usage().c_str());
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) fail("unexpected positional argument: " + arg);
    arg = arg.substr(2);

    std::string name = arg;
    std::optional<std::string> value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }

    Option* opt = find(name);
    if (opt == nullptr) fail("unknown option --" + name);

    if (opt->kind == Kind::Flag) {
      if (value.has_value()) fail("flag --" + name + " does not take a value");
      opt->flag_value = true;
      continue;
    }
    if (!value.has_value()) {
      if (i + 1 >= argc) fail("option --" + name + " needs a value");
      value = argv[++i];
    }
    std::size_t used = value->size();
    try {
      switch (opt->kind) {
        case Kind::Int:
          opt->int_value = std::stoll(*value, &used);
          break;
        case Kind::Double:
          opt->double_value = std::stod(*value, &used);
          break;
        case Kind::String:
          opt->string_value = *value;
          break;
        case Kind::Flag:
          break;
      }
    } catch (const std::exception&) {
      used = std::string::npos;
    }
    // The whole value must be a number: "8x" is an error, not 8.
    if (used != value->size()) fail("cannot parse value '" + *value + "' for --" + name);
    if (opt->kind == Kind::Double && !std::isfinite(opt->double_value))
      fail("value '" + *value + "' for --" + name + " must be a finite number");
  }
}

}  // namespace kpm
