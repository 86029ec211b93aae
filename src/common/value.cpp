#include "common/value.hpp"

#include <sstream>

#include "common/check.hpp"

namespace qcnt {

Value FromPlain(const Plain& p) {
  return std::visit([](const auto& alt) -> Value { return Value{alt}; }, p);
}

Plain ToPlain(const Value& v) {
  if (std::holds_alternative<std::monostate>(v)) return std::monostate{};
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  QCNT_FAIL("value does not hold a plain alternative");
}

std::string ToString(const Plain& p) {
  if (std::holds_alternative<std::monostate>(p)) return "nil";
  if (const auto* i = std::get_if<std::int64_t>(&p)) return std::to_string(*i);
  return '"' + std::get<std::string>(p) + '"';
}

std::string ToString(const Versioned& v) {
  return "(vn=" + std::to_string(v.version) + "," + ToString(v.value) + ")";
}

std::string ToString(const QuorumSetPayload& q) {
  std::ostringstream os;
  auto render = [&os](const std::vector<std::vector<std::uint32_t>>& quorums) {
    os << '{';
    for (std::size_t i = 0; i < quorums.size(); ++i) {
      if (i) os << ',';
      os << '{';
      for (std::size_t j = 0; j < quorums[i].size(); ++j) {
        if (j) os << ',';
        os << quorums[i][j];
      }
      os << '}';
    }
    os << '}';
  };
  os << "(r=";
  render(q.read_quorums);
  os << ",w=";
  render(q.write_quorums);
  os << ')';
  return os.str();
}

std::string ToString(const ConfigStamp& c) {
  return "(gen=" + std::to_string(c.generation) + "," + ToString(c.config) +
         ")";
}

std::string ToString(const Value& v) {
  return std::visit(
      [](const auto& alt) -> std::string {
        using T = std::decay_t<decltype(alt)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return "nil";
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          return std::to_string(alt);
        } else if constexpr (std::is_same_v<T, std::string>) {
          return '"' + alt + '"';
        } else if constexpr (std::is_same_v<T, ReplicaSnapshot>) {
          return "(data=" + ToString(alt.data) +
                 ",stamp=" + ToString(alt.stamp) + ")";
        } else {
          return ToString(alt);
        }
      },
      v);
}

}  // namespace qcnt
