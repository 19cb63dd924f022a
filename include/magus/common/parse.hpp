#pragma once
// Strict parsers for command lines and every untrusted number (flag values,
// daemon query values, manifest fields). The std::sto* family accepts
// trailing garbage, signs on unsigned values and inf/nan, and throws bare
// std::invalid_argument; these helpers reject all of that and throw
// ConfigError naming the offending token.

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "magus/common/error.hpp"

namespace magus::common {

/// Parse one base-10 integer, rejecting empty input and trailing characters.
inline int parse_int(const std::string& tok) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(tok, &pos);
    if (pos != tok.size()) {
      throw ConfigError("trailing characters in integer '" + tok + "'");
    }
    return v;
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception&) {
    throw ConfigError("invalid integer '" + tok + "'");
  }
}

/// Parse one finite base-10 number, rejecting empty input, trailing
/// characters, out-of-range magnitudes and "inf"/"nan".
inline double parse_double(const std::string& tok) {
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(tok, &pos);
    if (pos != tok.size()) {
      throw ConfigError("trailing characters in number '" + tok + "'");
    }
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception&) {
    throw ConfigError("invalid number '" + tok + "'");
  }
  if (!std::isfinite(v)) throw ConfigError("non-finite number '" + tok + "'");
  return v;
}

/// Parse one unsigned 64-bit base-10 integer. Stricter than std::stoull,
/// which accepts a sign and wraps "-3" to 2^64 - 3: any sign is rejected.
inline std::uint64_t parse_u64(const std::string& tok) {
  if (tok.find_first_of("+-") != std::string::npos) {
    throw ConfigError("signed value for unsigned integer '" + tok + "'");
  }
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(tok, &pos);
    if (pos != tok.size()) {
      throw ConfigError("trailing characters in unsigned integer '" + tok + "'");
    }
    return v;
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception&) {
    throw ConfigError("invalid unsigned integer '" + tok + "'");
  }
}

/// Run one of the parsers above on `tok`, prefixing any ConfigError with
/// `label` so the message names where the token came from as well as the
/// token ("--nodes: trailing characters in integer '8x'"). The message is
/// built only on failure, so a hot parse loop pays nothing for the label.
template <typename Parse>
auto parse_labeled(std::string_view label, const std::string& tok, Parse parse) {
  try {
    return parse(tok);
  } catch (const ConfigError& e) {
    // Built by appends (see flag_error below: GCC 12 -Wrestrict).
    std::string msg(label);
    msg += ": ";
    msg += e.what();
    throw ConfigError(msg);
  }
}

/// Parse a comma-separated integer list ("0,40"). Empty tokens ("0,,1",
/// trailing comma) and non-numeric tokens are ConfigErrors.
inline std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = s.find(',', start);
    const std::string tok =
        s.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (tok.empty()) {
      throw ConfigError("empty token in integer list '" + s + "'");
    }
    out.push_back(parse_int(tok));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The flags one command accepts, named without the leading "--". A valued
/// flag takes the next argument as its value; a switch takes none.
struct FlagSpec {
  std::set<std::string> valued;
  std::set<std::string> switches;
};

/// Throw ConfigError "<what> '<arg>'". The message is built by appends:
/// GCC 12 at -O3 reported a false -Wrestrict on the `"literal" + std::string`
/// concatenation in the daemon's old flag parser.
[[noreturn]] inline void flag_error(const char* what, const std::string& arg) {
  std::string msg(what);
  msg += " '";
  msg += arg;
  msg += '\'';
  throw ConfigError(msg);
}

/// Parse command-line arguments into flag name -> value ("1" for a switch).
/// Strict: every argument must be a flag `spec` accepts, a valued flag needs
/// a value that is not itself a flag, and no flag may repeat.
inline std::map<std::string, std::string> parse_flags(const std::vector<std::string>& args,
                                                      const FlagSpec& spec) {
  std::map<std::string, std::string> flags;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) flag_error("expected a flag, got", arg);
    std::string name = arg.substr(2);
    std::string value = "1";
    if (spec.valued.count(name) != 0) {
      if (i + 1 == args.size() || args[i + 1].rfind("--", 0) == 0) {
        flag_error("missing value for flag", arg);
      }
      value = args[++i];
    } else if (spec.switches.count(name) == 0) {
      flag_error("unknown flag", arg);
    }
    if (!flags.emplace(std::move(name), std::move(value)).second) {
      flag_error("repeated flag", arg);
    }
  }
  return flags;
}

}  // namespace magus::common
