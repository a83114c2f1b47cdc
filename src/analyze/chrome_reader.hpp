#pragma once

// Offline ingestion: reconstruct analyzer-IR scenario traces from the
// Chrome trace-event JSON written by trace::Session::write_chrome, and
// parse the flat counter dump written by write_counters.  This is what
// lets tools/nbctune-analyze replay a bench run without re-simulating.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"

namespace nbctune::analyze {

/// Parse an exported Chrome trace: one ScenarioTrace per pid, labelled
/// and keyed from the process_name metadata, ordered by pid (= export
/// order).  A process_name record without the ScenarioKey fields gives
/// an unkeyed scenario.  Throws std::runtime_error on malformed input.
[[nodiscard]] std::vector<ScenarioTrace> read_chrome(std::istream& is);

/// Parse a flat counter dump ("counter <name> <value>" lines) into a
/// name -> value map; histogram lines are folded in as
/// "<name>.count" / "<name>.sum".  Unknown lines are ignored.
[[nodiscard]] std::map<std::string, std::uint64_t> read_counters(
    std::istream& is);

}  // namespace nbctune::analyze
