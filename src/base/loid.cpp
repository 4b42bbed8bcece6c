#include "base/loid.h"

#include <charconv>
#include <ostream>

namespace legion {

const char* ToString(LoidSpace space) {
  switch (space) {
    case LoidSpace::kInvalid:
      return "invalid";
    case LoidSpace::kClass:
      return "class";
    case LoidSpace::kHost:
      return "host";
    case LoidSpace::kVault:
      return "vault";
    case LoidSpace::kObject:
      return "object";
    case LoidSpace::kService:
      return "service";
  }
  return "unknown";
}

std::string Loid::ToString() const {
  char digits[24];  // fits any 64-bit value
  char* const last = digits + sizeof(digits);
  std::string text = legion::ToString(space_);
  text += ':';
  text.append(digits, std::to_chars(digits, last, domain_).ptr);
  text += '/';
  text.append(digits, std::to_chars(digits, last, serial_).ptr);
  return text;
}

std::ostream& operator<<(std::ostream& os, const Loid& loid) {
  return os << loid.ToString();
}

std::optional<Loid> ParseLoid(const std::string& text) {
  auto colon = text.find(':');
  auto slash = text.find('/', colon == std::string::npos ? 0 : colon);
  if (colon == std::string::npos || slash == std::string::npos) {
    return std::nullopt;
  }
  const std::string space_name = text.substr(0, colon);
  LoidSpace space = LoidSpace::kInvalid;
  for (auto candidate :
       {LoidSpace::kClass, LoidSpace::kHost, LoidSpace::kVault,
        LoidSpace::kObject, LoidSpace::kService}) {
    if (space_name == ToString(candidate)) {
      space = candidate;
      break;
    }
  }
  if (space == LoidSpace::kInvalid) return std::nullopt;
  try {
    std::size_t used = 0;
    const std::string domain_str = text.substr(colon + 1, slash - colon - 1);
    const unsigned long domain = std::stoul(domain_str, &used);
    if (used != domain_str.size()) return std::nullopt;
    const std::string serial_str = text.substr(slash + 1);
    const unsigned long long serial = std::stoull(serial_str, &used);
    if (used != serial_str.size()) return std::nullopt;
    return Loid(space, static_cast<std::uint32_t>(domain), serial);
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace legion
