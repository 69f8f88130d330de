// CSV persistence for POI databases, so generated cities can be exported,
// inspected, and re-imported (or replaced with a real OSM extract that has
// been converted to the same schema).
//
// Format:
//   # city=<name> min_x=<..> min_y=<..> max_x=<..> max_y=<..>
//   id,type,x_km,y_km
//   0,beijing/type_3,12.500000,3.250000
//   ...
#pragma once

#include <iosfwd>
#include <string>

#include "poi/database.h"

namespace poiprivacy::poi {

void save_csv(const PoiDatabase& db, std::ostream& out);
void save_csv(const PoiDatabase& db, const std::string& path);

/// Throws std::runtime_error naming the line on malformed input: a
/// missing or non-finite header bound, min >= max, a row without exactly
/// 4 fields, an empty type, a field with trailing junk, a non-finite
/// coordinate, or ids that are not dense and in order. A trailing '\r'
/// (CRLF files) is stripped from every line; empty lines are skipped.
PoiDatabase load_csv(std::istream& in);
PoiDatabase load_csv(const std::string& path);

}  // namespace poiprivacy::poi
