#include "common/parse.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <type_traits>

#include "common/log.h"

namespace dwm::parse {

template <typename T>
std::optional<T> Number(std::string_view text) {
  // from_chars already refuses leading whitespace, '+' and a '-' for
  // unsigned types, stops at the 'x' of "0x10", and reports overflow.
  T value{};
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

template std::optional<int64_t> Number(std::string_view);
template std::optional<uint64_t> Number(std::string_view);
template std::optional<double> Number(std::string_view);

std::vector<std::string_view> Fields(std::string_view line) {
  constexpr std::string_view kSpace = " \t\r\n\v\f";
  std::vector<std::string_view> fields;
  size_t start = line.find_first_not_of(kSpace);
  while (start != std::string_view::npos) {
    const size_t end = line.find_first_of(kSpace, start);
    fields.push_back(line.substr(start, end - start));
    start = line.find_first_not_of(kSpace, end);
  }
  return fields;
}

template <typename T>
std::optional<T> Env(const char* knob, T lo, T hi, const char* want,
                     const char* action, bool (*also)(T)) {
  const char* const text = std::getenv(knob);
  if (text == nullptr) return std::nullopt;
  const std::optional<T> value = Number<T>(text);
  if (value && lo <= *value && *value <= hi &&
      (also == nullptr || also(*value))) {
    return value;
  }
  static std::mutex mu;
  static std::set<std::string>* const warned = new std::set<std::string>();
  {
    const std::lock_guard<std::mutex> lock(mu);
    if (!warned->insert(knob).second) return std::nullopt;
  }
  log::Warn("env_parse_error")
      .Str("knob", knob)
      .Str("value", text)
      .Str("want", want)
      .Str("action", action);
  return std::nullopt;
}

template std::optional<int64_t> Env(const char*, int64_t, int64_t,
                                    const char*, const char*,
                                    bool (*)(int64_t));
template std::optional<uint64_t> Env(const char*, uint64_t, uint64_t,
                                     const char*, const char*,
                                     bool (*)(uint64_t));

}  // namespace dwm::parse
