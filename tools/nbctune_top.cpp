// nbctune-top: a live terminal dashboard over a bench driver's
// --live-jsonl stream.
//
//   nbctune-top [options] live.jsonl     follow a stream file
//   ... --live-jsonl=- | nbctune-top -   consume a pipe on stdin
//
//   --follow            keep reading after EOF (default for a file
//                       argument; a pipe follows implicitly)
//   --once              render one frame after EOF and exit (no follow)
//   --interval-ms N     redraw period while following (default 250)
//   --no-ansi           plain text frames, no colors / screen clearing
//
// Redraws a single screen (ANSI home+clear) showing sweep progress and
// ETA, pool/trace/memory gauges from the sampler records, per-op median
// and blame aggregates, and red/green guideline tiles.  Lines that are
// not live records (a driver streaming to its own stdout interleaves
// result tables) are skipped, so piping a mixed stream works.
//
// Exits 0 when the stream ends with a summary record (or at EOF without
// --follow), 1 on I/O errors, 2 on usage errors.

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/flags.hpp"
#include "obs/top.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--follow|--once] [--interval-ms N] [--no-ansi]"
               " live.jsonl|-\n";
  return 2;
}

void draw(const nbctune::obs::TopState& state, bool ansi) {
  std::ostringstream frame;
  state.render(frame, ansi);
  if (ansi) std::cout << "\x1b[H\x1b[2J";
  std::cout << frame.str() << std::flush;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool follow = false;
  bool once = false;
  bool ansi = true;
  int interval_ms = 250;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--follow") == 0) {
      follow = true;
    } else if (std::strcmp(a, "--once") == 0) {
      once = true;
    } else if (std::strcmp(a, "--no-ansi") == 0) {
      ansi = false;
    } else if (std::strcmp(a, "--interval-ms") == 0 && i + 1 < argc) {
      interval_ms = nbctune::obs::parse_flag("--interval-ms", argv[++i], 1);
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      return usage(argv[0]);
    } else if (a[0] == '-' && a[1] != '\0') {
      std::cerr << "unknown option: " << a << "\n";
      return usage(argv[0]);
    } else if (path.empty()) {
      path = a;
    } else {
      std::cerr << "multiple inputs given\n";
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  const bool from_stdin = path == "-";
  std::ifstream file;
  if (!from_stdin) {
    file.open(path);
    if (!file) {
      std::cerr << "cannot open live stream: " << path << "\n";
      return 1;
    }
    if (!once) follow = true;  // files default to tail -f behavior
  }
  std::istream& in = from_stdin ? std::cin : file;

  nbctune::obs::TopState state;
  auto last_draw = std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(interval_ms);
  const auto maybe_draw = [&](bool force) {
    const auto now = std::chrono::steady_clock::now();
    if (force || now - last_draw >= std::chrono::milliseconds(interval_ms)) {
      draw(state, ansi);
      last_draw = now;
    }
  };

  std::string line;
  for (;;) {
    if (std::getline(in, line)) {
      state.feed_line(line);
      if (state.done()) break;
      if (!once) maybe_draw(false);
      continue;
    }
    // EOF (or error). A pipe stays open until the writer exits, so
    // getline only fails here when the stream is really finished or we
    // are tailing a growing file.
    if (from_stdin || !follow || once) break;
    in.clear();
    maybe_draw(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  draw(state, ansi);
  if (!state.done()) {
    std::cout << (ansi ? "\x1b[2m" : "") << "(stream ended without a summary record)"
              << (ansi ? "\x1b[0m" : "") << "\n";
  }
  return 0;
}
