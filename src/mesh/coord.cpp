#include "mesh/coord.hpp"

#include <ostream>

namespace ocp::mesh {

const char* to_string(Dir d) noexcept {
  switch (d) {
    case Dir::East: return "E";
    case Dir::West: return "W";
    case Dir::North: return "N";
    case Dir::South: return "S";
  }
  return "?";
}

std::string to_string(Coord c) {
  std::string out = "(";
  out.append(std::to_string(c.x)).append(", ").append(std::to_string(c.y));
  return out.append(")");
}

std::ostream& operator<<(std::ostream& os, Coord c) {
  return os << to_string(c);
}

}  // namespace ocp::mesh
