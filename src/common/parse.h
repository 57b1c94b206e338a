// The one rule for turning text into a number, shared by every dwm_cli
// flag, every numeric DWM_* env knob and the DWM_FAULTS spec:
//
//   - the whole string must parse (empty text and trailing junk fail);
//   - base 10 only: no whitespace, no '+', no hex ("0x10");
//   - a '-' only for signed types (int64_t, double);
//   - no overflow: out-of-range text fails, it is never clamped or wrapped;
//   - doubles must be finite ("inf", "nan" and "1e400" fail).
//
// Callers then apply only their own range.
#ifndef DWMAXERR_COMMON_PARSE_H_
#define DWMAXERR_COMMON_PARSE_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace dwm::parse {

// `text` as a T by the rule above, or nothing. Defined for int64_t,
// uint64_t and double.
template <typename T>
std::optional<T> Number(std::string_view text);

// The whitespace-separated fields of `line` (space, tab, CR, LF, VT, FF),
// for text protocols that read one number per field with Number().
std::vector<std::string_view> Fields(std::string_view line);

// Env var `knob` as a T by the rule above, when it lies in [lo, hi] and
// passes `also` (if given). Returns nothing when the variable is unset or
// rejected; a rejection logs one `env_parse_error` record (knob, value,
// want, action) per knob per process. Defined for int64_t and uint64_t.
template <typename T>
std::optional<T> Env(const char* knob, T lo, T hi, const char* want,
                     const char* action, bool (*also)(T) = nullptr);

}  // namespace dwm::parse

#endif  // DWMAXERR_COMMON_PARSE_H_
