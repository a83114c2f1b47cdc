#pragma once

// Offline ingestion: reconstruct the per-scenario traces from the Chrome
// trace-event JSON written by trace::Session::write_chrome, and parse
// the flat counter dump written by write_counters.  This is what lets
// tools/nbctune-analyze replay a bench run without re-simulating.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"

namespace nbctune::analyze {

/// Parse an exported Chrome trace: one FinishedTrace per pid, labelled
/// and keyed from the process_name metadata, ordered by pid (= export
/// order).  A process_name record without the ScenarioKey fields gives
/// an unkeyed scenario.  Each event's name maps to its trace::Kind, and
/// its arguments are read by the kind's row keys.  An event whose name
/// is outside the schema is not stored; it is counted in its scenario's
/// Ctr::TraceDroppedEvents (the export carries no other counts).
/// Throws std::runtime_error on malformed input, including a pid, tid
/// or argument that is not an integer in range (naming the event index
/// and field).
[[nodiscard]] std::vector<trace::FinishedTrace> read_chrome(
    std::istream& is);

/// Parse a flat counter dump ("counter <name> <value>" lines) into a
/// name -> value map; histogram lines are folded in as
/// "<name>.count" / "<name>.sum".  Unknown lines are ignored.
[[nodiscard]] std::map<std::string, std::uint64_t> read_counters(
    std::istream& is);

}  // namespace nbctune::analyze
