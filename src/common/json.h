#ifndef QCLUSTER_COMMON_JSON_H_
#define QCLUSTER_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace qcluster {

/// Formats a double as %.9g: enough digits to round-trip the values the
/// exports carry, and the same text for the same value on every run. Text
/// logs use it as is; JSON goes through JsonNumber.
std::string FormatDouble(double v);

/// A JSON number token for `v`: FormatDouble(v) when finite, else `null`.
/// JSON has no NaN or infinity, and parsers such as Python's json reject
/// the `nan` and `inf` that %.9g prints.
std::string JsonNumber(double v);

/// Escapes `"`, `\` and control characters for a JSON string body.
std::string JsonEscape(std::string_view s);

}  // namespace qcluster

#endif  // QCLUSTER_COMMON_JSON_H_
