#include "common/flags.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"

namespace scenerec {

void FlagParser::Register(const std::string& name, Flag flag) {
  SCENEREC_CHECK(name != "help") << "--help is built into FlagParser";
  SCENEREC_CHECK(flags_.find(name) == flags_.end()) << "duplicate flag" << name;
  flags_.emplace(name, std::move(flag));
}

void FlagParser::AddInt64(const std::string& name, int64_t default_value,
                          const std::string& help) {
  Flag flag;
  flag.type = Type::kInt64;
  flag.help = help;
  flag.int_value = default_value;
  Register(name, std::move(flag));
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help) {
  Flag flag;
  flag.type = Type::kDouble;
  flag.help = help;
  flag.double_value = default_value;
  Register(name, std::move(flag));
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help) {
  Flag flag;
  flag.type = Type::kBool;
  flag.help = help;
  flag.bool_value = default_value;
  Register(name, std::move(flag));
}

void FlagParser::AddString(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  Flag flag;
  flag.type = Type::kString;
  flag.help = help;
  flag.string_value = default_value;
  Register(name, std::move(flag));
}

void FlagParser::AddImplicitString(const std::string& name,
                                   const std::string& default_value,
                                   const std::string& implicit_value,
                                   const std::string& help) {
  Flag flag;
  flag.type = Type::kImplicitString;
  flag.help = help;
  flag.string_value = default_value;
  flag.implicit_value = implicit_value;
  Register(name, std::move(flag));
}

Status FlagParser::SetFromString(Flag& flag, const std::string& name,
                                 const std::string& text) {
  switch (flag.type) {
    case Type::kInt64: {
      auto parsed = ParseInt64(text);
      if (!parsed.ok()) {
        return Status::InvalidArgument("--" + name + ": " +
                                       parsed.status().message());
      }
      flag.int_value = parsed.value();
      return Status::OK();
    }
    case Type::kDouble: {
      auto parsed = ParseDouble(text);
      if (!parsed.ok()) {
        return Status::InvalidArgument("--" + name + ": " +
                                       parsed.status().message());
      }
      flag.double_value = parsed.value();
      return Status::OK();
    }
    case Type::kBool: {
      if (text == "true" || text == "1") {
        flag.bool_value = true;
      } else if (text == "false" || text == "0") {
        flag.bool_value = false;
      } else {
        return Status::InvalidArgument("--" + name +
                                       ": expected true/false, got " + text);
      }
      return Status::OK();
    }
    case Type::kString:
    case Type::kImplicitString:
      flag.string_value = text;
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    bool has_value = false;
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
      has_value = true;
    } else {
      name = body;
    }
    if (name == "help") {
      std::fputs(Help().c_str(), stdout);
      std::fflush(stdout);
      std::exit(0);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    Flag& flag = it->second;
    if (has_value && value.empty() && flag.type == Type::kImplicitString) {
      // `--telemetry=` is almost always a typo'd `--telemetry` (which takes
      // the implicit value); silently storing "" used to disable the
      // feature the user asked for. Reject it, naming the flag.
      return Status::InvalidArgument(
          "--" + name + "= has an empty value; use --" + name +
          " for the implicit default (\"" + flag.implicit_value +
          "\") or --" + name + "=<value>");
    }
    if (!has_value) {
      if (flag.type == Type::kBool) {
        // `--verbose` with no value means true.
        flag.bool_value = true;
        continue;
      }
      if (flag.type == Type::kImplicitString) {
        // `--telemetry` without `=path` takes the implicit value and never
        // consumes the next token (which would swallow a positional arg).
        flag.string_value = flag.implicit_value;
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + name + " expects a value");
      }
      value = argv[++i];
    }
    SCENEREC_RETURN_IF_ERROR(SetFromString(flag, name, value));
  }
  return Status::OK();
}

const FlagParser::Flag& FlagParser::GetFlag(const std::string& name,
                                            Type type) const {
  auto it = flags_.find(name);
  SCENEREC_CHECK(it != flags_.end()) << "flag not registered:" << name;
  SCENEREC_CHECK(it->second.type == type) << "flag type mismatch:" << name;
  return it->second;
}

int64_t FlagParser::GetInt64(const std::string& name) const {
  return GetFlag(name, Type::kInt64).int_value;
}

double FlagParser::GetDouble(const std::string& name) const {
  return GetFlag(name, Type::kDouble).double_value;
}

bool FlagParser::GetBool(const std::string& name) const {
  return GetFlag(name, Type::kBool).bool_value;
}

const std::string& FlagParser::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  SCENEREC_CHECK(it != flags_.end()) << "flag not registered:" << name;
  SCENEREC_CHECK(it->second.type == Type::kString ||
                 it->second.type == Type::kImplicitString)
      << "flag type mismatch:" << name;
  return it->second.string_value;
}

std::string FlagParser::Help() const {
  std::ostringstream out;
  out << usage_ << "Flags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name;
    switch (flag.type) {
      case Type::kInt64:
        out << "=<int> (default " << flag.int_value << ")";
        break;
      case Type::kDouble:
        out << "=<float> (default " << flag.double_value << ")";
        break;
      case Type::kBool:
        out << "=<bool> (default " << (flag.bool_value ? "true" : "false")
            << ")";
        break;
      case Type::kString:
        out << "=<string> (default \"" << flag.string_value << "\")";
        break;
      case Type::kImplicitString:
        out << "[=<string>] (bare sets \"" << flag.implicit_value << "\")";
        break;
    }
    out << "  " << flag.help << "\n";
  }
  return out.str();
}

}  // namespace scenerec
