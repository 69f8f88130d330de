#include "poi/csv.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace poiprivacy::poi {

void save_csv(const PoiDatabase& db, std::ostream& out) {
  // Enough digits that load_csv reads back the very same doubles.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  const geo::BBox& b = db.bounds();
  out << "# city=" << db.city_name() << " min_x=" << b.min_x
      << " min_y=" << b.min_y << " max_x=" << b.max_x << " max_y=" << b.max_y
      << "\n";
  out << "id,type,x_km,y_km\n";
  for (const Poi& p : db.pois()) {
    out << p.id << ',' << db.types().name(p.type) << ',' << p.pos.x << ','
        << p.pos.y << "\n";
  }
}

void save_csv(const PoiDatabase& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save_csv(db, out);
}

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("csv line " + std::to_string(line_no) + ": " +
                           what);
}

/// Reads one line without its terminator; a CRLF file's '\r' goes too.
bool next_line(std::istream& in, std::string& line) {
  if (!std::getline(in, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

/// The whole field as a number of type T (no sign prefix, no leading or
/// trailing junk); a double must also be finite.
template <typename T>
T parse_number(std::string_view field, std::size_t line_no,
               const char* what) {
  T value{};
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (field.empty() || ec != std::errc() || ptr != end) {
    fail(line_no, std::string("bad ") + what + " '" + std::string(field) + "'");
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      fail(line_no, std::string("non-finite ") + what);
    }
  }
  return value;
}

/// The value of `key=` in the header line, up to the next space.
std::string_view header_value(std::string_view header, const std::string& key) {
  const std::string token = " " + key + "=";
  const auto pos = header.find(token);
  if (pos == std::string_view::npos) fail(1, "header missing " + key);
  const auto start = pos + token.size();
  return header.substr(start, header.find(' ', start) - start);
}

}  // namespace

PoiDatabase load_csv(std::istream& in) {
  std::string header;
  if (!next_line(in, header) || header.empty() || header[0] != '#') {
    fail(1, "missing '#' header line");
  }
  const std::string city(header_value(header, "city"));
  const auto bound = [&header](const char* key) {
    return parse_number<double>(header_value(header, key), 1, key);
  };
  const geo::BBox bounds{bound("min_x"), bound("min_y"), bound("max_x"),
                         bound("max_y")};
  if (!(bounds.min_x < bounds.max_x && bounds.min_y < bounds.max_y)) {
    fail(1, "bounds need min < max");
  }
  std::string columns;
  if (!next_line(in, columns) || columns != "id,type,x_km,y_km") {
    fail(2, "unexpected column header: " + columns);
  }

  PoiTypeRegistry registry;
  std::vector<Poi> pois;
  std::string line;
  for (std::size_t line_no = 3; next_line(in, line); ++line_no) {
    if (line.empty()) continue;
    // Exactly four fields: id, type, x, y.
    std::string_view fields[4];
    std::string_view rest = line;
    for (std::size_t f = 0; f < 4; ++f) {
      const auto comma = rest.find(',');
      if ((comma == std::string_view::npos) != (f == 3)) {
        fail(line_no, "expected 4 comma-separated fields: " + line);
      }
      fields[f] = rest.substr(0, comma);
      if (f < 3) rest.remove_prefix(comma + 1);
    }
    if (fields[1].empty()) fail(line_no, "empty type");
    Poi p;
    p.id = parse_number<PoiId>(fields[0], line_no, "id");
    if (p.id != pois.size()) fail(line_no, "ids must be dense and in order");
    p.type = registry.intern(std::string(fields[1]));
    p.pos = {parse_number<double>(fields[2], line_no, "x_km"),
             parse_number<double>(fields[3], line_no, "y_km")};
    pois.push_back(p);
  }
  return PoiDatabase(city, std::move(pois), std::move(registry), bounds);
}

PoiDatabase load_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return load_csv(in);
}

}  // namespace poiprivacy::poi
