// One name <-> value table per enum, kept beside the enum it names.
//
// An enum E opts in by declaring, in its own namespace,
//
//   constexpr std::span<const EnumName<E>> EnumNames(E);
//
// which argument-dependent lookup finds.  EnumToName, EnumFromName and
// EnumChoices then serve every reader and writer of the names — the JSON
// config codec, trace files and the command-line front ends — from that
// single table.
#pragma once

#include <algorithm>
#include <cctype>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace custody {

template <typename E>
struct EnumName {
  E value;
  const char* name;
};

/// The table's name for `value` ("unknown" for a value outside the table).
template <typename E>
[[nodiscard]] const char* EnumToName(E value) {
  for (const EnumName<E>& entry : EnumNames(E{})) {
    if (entry.value == value) return entry.name;
  }
  return "unknown";
}

/// The value spelled `name`.  `ignore_case` also accepts any
/// capitalisation (the command-line front ends take "pagerank").
template <typename E>
[[nodiscard]] std::optional<E> EnumFromName(std::string_view name,
                                            bool ignore_case = false) {
  const auto same = [ignore_case](char a, char b) {
    return ignore_case ? std::tolower(static_cast<unsigned char>(a)) ==
                             std::tolower(static_cast<unsigned char>(b))
                       : a == b;
  };
  for (const EnumName<E>& entry : EnumNames(E{})) {
    const std::string_view candidate = entry.name;
    if (std::equal(candidate.begin(), candidate.end(), name.begin(),
                   name.end(), same)) {
      return entry.value;
    }
  }
  return std::nullopt;
}

/// Every name, "a|b|c", for diagnostics.
template <typename E>
[[nodiscard]] std::string EnumChoices() {
  std::string out;
  for (const EnumName<E>& entry : EnumNames(E{})) {
    if (!out.empty()) out += '|';
    out += entry.name;
  }
  return out;
}

}  // namespace custody
