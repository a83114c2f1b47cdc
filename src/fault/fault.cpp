#include "fault/fault.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace nbctune::fault {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    std::string tok = s.substr(start, end - start);
    // Trim surrounding whitespace.
    std::size_t a = tok.find_first_not_of(" \t");
    std::size_t b = tok.find_last_not_of(" \t");
    if (a != std::string::npos) out.push_back(tok.substr(a, b - a + 1));
    start = end + 1;
  }
  return out;
}

struct Kv {
  std::string key;
  std::string val;
};

std::vector<Kv> parse_kvs(const std::string& what, const std::string& body) {
  std::vector<Kv> kvs;
  for (const std::string& pair : split(body, ',')) {
    std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("fault plan: bad key=value in '" + what +
                                  "': '" + pair + "'");
    }
    kvs.push_back({pair.substr(0, eq), pair.substr(eq + 1)});
  }
  return kvs;
}

[[noreturn]] void bad_number(const std::string& what, const std::string& v) {
  throw std::invalid_argument("fault plan: bad number for '" + what + "': '" +
                              v + "'");
}

/// A real value: the whole token in decimal or exponent form, finite
/// (no sign prefix, hexadecimal or surrounding space; not locale-bound).
double to_num(const std::string& what, const std::string& v) {
  double x = 0.0;
  const char* const last = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), last, x);
  if (ec != std::errc{} || ptr != last || !std::isfinite(x)) {
    bad_number(what, v);
  }
  return x;
}

/// An integer value: the whole token, in T's range, with no fraction or
/// exponent (and no sign when T is unsigned).
template <typename T = int>
T to_int(const std::string& what, const std::string& v) {
  T x{};
  const char* const last = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), last, x);
  if (ec != std::errc{} || ptr != last) bad_number(what, v);
  return x;
}

[[noreturn]] void unknown_key(const std::string& comp, const std::string& key) {
  throw std::invalid_argument("fault plan: unknown key '" + key + "' in '" +
                              comp + "'");
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x | 1;  // sim::Rng wants a nonzero seed
}

}  // namespace

bool FaultPlan::enabled() const {
  return lossy() || has_degrade || !stalls.empty() || !stragglers.empty() ||
         !starves.empty() || drift_window > 0 || has_kills();
}

namespace {

// kill=rank@t[,rank@t...] — spelled without a colon, so it is dispatched
// before the generic kv path (entries after the first contain no '=').
void parse_kills(FaultPlan& p, const std::string& body) {
  const auto entries = split(body, ',');
  if (entries.empty()) {
    throw std::invalid_argument("fault plan: empty kill list");
  }
  for (const std::string& entry : entries) {
    const std::size_t at = entry.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= entry.size()) {
      throw std::invalid_argument(
          "fault plan: kill entry must be rank@t, got '" + entry + "'");
    }
    Kill k;
    k.rank = to_int("kill", entry.substr(0, at));
    k.t = to_num("kill", entry.substr(at + 1));
    if (k.rank < 0) {
      throw std::invalid_argument("fault plan: kill rank must be >= 0");
    }
    if (k.t < 0.0) {
      throw std::invalid_argument("fault plan: kill time must be >= 0");
    }
    p.kills.push_back(k);
  }
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan p;
  bool op_timeout_set = false;
  for (const std::string& comp : split(spec, ';')) {
    if (comp.rfind("kill=", 0) == 0) {
      parse_kills(p, comp.substr(5));
      continue;
    }
    const std::size_t colon = comp.find(':');
    const std::size_t eq = comp.find('=');
    if (colon != std::string::npos &&
        (eq == std::string::npos || colon < eq)) {
      const std::string name = comp.substr(0, colon);
      const auto kvs = parse_kvs(name, comp.substr(colon + 1));
      if (name == "drop" || name == "dup") {
        double prob = 0.0;
        Window win;
        int max = -1;
        for (const Kv& kv : kvs) {
          if (kv.key == "p") prob = to_num(name, kv.val);
          else if (kv.key == "t0") win.t0 = to_num(name, kv.val);
          else if (kv.key == "t1") win.t1 = to_num(name, kv.val);
          else if (kv.key == "max") max = to_int(name, kv.val);
          else unknown_key(name, kv.key);
        }
        if (prob < 0.0 || prob > 1.0) {
          throw std::invalid_argument("fault plan: " + name +
                                      " p must be in [0,1]");
        }
        if (name == "drop") {
          p.drop_p = prob;
          p.drop_win = win;
          p.drop_max = max;
        } else {
          p.dup_p = prob;
          p.dup_win = win;
          p.dup_max = max;
        }
      } else if (name == "degrade") {
        p.has_degrade = true;
        for (const Kv& kv : kvs) {
          if (kv.key == "t0") p.degrade_win.t0 = to_num(name, kv.val);
          else if (kv.key == "t1") p.degrade_win.t1 = to_num(name, kv.val);
          else if (kv.key == "lat") p.degrade_lat = to_num(name, kv.val);
          else if (kv.key == "bw") p.degrade_bw = to_num(name, kv.val);
          else unknown_key(name, kv.key);
        }
      } else if (name == "stall") {
        NicStall s;
        for (const Kv& kv : kvs) {
          if (kv.key == "node") s.node = to_int(name, kv.val);
          else if (kv.key == "t0") s.t0 = to_num(name, kv.val);
          else if (kv.key == "dur") s.dur = to_num(name, kv.val);
          else unknown_key(name, kv.key);
        }
        p.stalls.push_back(s);
      } else if (name == "straggler") {
        Straggler s;
        for (const Kv& kv : kvs) {
          if (kv.key == "rank") s.rank = to_int(name, kv.val);
          else if (kv.key == "factor") s.factor = to_num(name, kv.val);
          else if (kv.key == "t0") s.win.t0 = to_num(name, kv.val);
          else if (kv.key == "t1") s.win.t1 = to_num(name, kv.val);
          else unknown_key(name, kv.key);
        }
        p.stragglers.push_back(s);
      } else if (name == "starve") {
        Starve s;
        for (const Kv& kv : kvs) {
          if (kv.key == "rank") s.rank = to_int(name, kv.val);
          else if (kv.key == "cost") s.cost = to_num(name, kv.val);
          else if (kv.key == "t0") s.win.t0 = to_num(name, kv.val);
          else if (kv.key == "t1") s.win.t1 = to_num(name, kv.val);
          else unknown_key(name, kv.key);
        }
        p.starves.push_back(s);
      } else if (name == "drift") {
        for (const Kv& kv : kvs) {
          if (kv.key == "window") p.drift_window = to_int(name, kv.val);
          else if (kv.key == "tol") p.drift_tolerance = to_num(name, kv.val);
          else unknown_key(name, kv.key);
        }
      } else {
        throw std::invalid_argument("fault plan: unknown component '" + name +
                                    "'");
      }
    } else {
      // Top-level resilience scalar.
      const auto kvs = parse_kvs("plan", comp);
      for (const Kv& kv : kvs) {
        if (kv.key == "seed") {
          p.seed = to_int<std::uint64_t>("seed", kv.val);
        } else if (kv.key == "rto") {
          p.rto = to_num("rto", kv.val);
        } else if (kv.key == "retries") {
          p.retries = to_int("retries", kv.val);
        } else if (kv.key == "op_timeout") {
          p.op_timeout = to_num("op_timeout", kv.val);
          op_timeout_set = true;
        } else if (kv.key == "max_attempts") {
          p.max_attempts = to_int("max_attempts", kv.val);
        } else if (kv.key == "lease") {
          p.lease = to_num("lease", kv.val);
          if (p.lease <= 0.0) {
            throw std::invalid_argument("fault plan: lease must be > 0");
          }
        } else {
          unknown_key("plan", kv.key);
        }
      }
    }
  }
  // Lossy plans default to an armed op-timeout so dropped messages can
  // never wedge a collective; quiet plans leave recovery off.
  if (p.lossy() && !op_timeout_set) p.op_timeout = 1.0;
  return p;
}

namespace {

std::string num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

void put_window(std::string& out, const Window& w) {
  out += ",t0=" + num(w.t0) + ",t1=" + num(w.t1);
}

}  // namespace

std::string FaultPlan::print() const {
  std::string out = "seed=" + std::to_string(seed);
  if (drop_p > 0.0) {
    out += ";drop:p=" + num(drop_p);
    put_window(out, drop_win);
    out += ",max=" + std::to_string(drop_max);
  }
  if (dup_p > 0.0) {
    out += ";dup:p=" + num(dup_p);
    put_window(out, dup_win);
    out += ",max=" + std::to_string(dup_max);
  }
  if (has_degrade) {
    out += ";degrade:lat=" + num(degrade_lat) + ",bw=" + num(degrade_bw);
    put_window(out, degrade_win);
  }
  for (const NicStall& s : stalls) {
    out += ";stall:node=" + std::to_string(s.node) + ",t0=" + num(s.t0) +
           ",dur=" + num(s.dur);
  }
  for (const Straggler& s : stragglers) {
    out += ";straggler:rank=" + std::to_string(s.rank) +
           ",factor=" + num(s.factor);
    put_window(out, s.win);
  }
  for (const Starve& s : starves) {
    out += ";starve:rank=" + std::to_string(s.rank) + ",cost=" + num(s.cost);
    put_window(out, s.win);
  }
  if (drift_window > 0) {
    out += ";drift:window=" + std::to_string(drift_window) +
           ",tol=" + num(drift_tolerance);
  }
  if (!kills.empty()) {
    out += ";kill=";
    for (std::size_t i = 0; i < kills.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(kills[i].rank) + "@" + num(kills[i].t);
    }
  }
  out += ";rto=" + num(rto);
  out += ";retries=" + std::to_string(retries);
  out += ";op_timeout=" + num(op_timeout);
  out += ";max_attempts=" + std::to_string(max_attempts);
  out += ";lease=" + num(lease);
  return out;
}

Injector::Injector(const FaultPlan& plan, std::uint64_t scenario_seed)
    : plan_(plan), rng_(mix(plan.seed, scenario_seed)) {}

bool Injector::inject_drop(double now) {
  if (plan_.drop_p <= 0.0 || !plan_.drop_win.contains(now)) return false;
  if (plan_.drop_max >= 0 && drops_ >= plan_.drop_max) return false;
  if (rng_.uniform() >= plan_.drop_p) return false;
  ++drops_;
  return true;
}

bool Injector::inject_duplicate(double now) {
  if (plan_.dup_p <= 0.0 || !plan_.dup_win.contains(now)) return false;
  if (plan_.dup_max >= 0 && dups_ >= plan_.dup_max) return false;
  if (rng_.uniform() >= plan_.dup_p) return false;
  ++dups_;
  return true;
}

double Injector::latency_mult(double now) const {
  return (plan_.has_degrade && plan_.degrade_win.contains(now))
             ? plan_.degrade_lat
             : 1.0;
}

double Injector::byte_time_mult(double now) const {
  return (plan_.has_degrade && plan_.degrade_win.contains(now))
             ? plan_.degrade_bw
             : 1.0;
}

double Injector::nic_release(int node, double now) const {
  double release = now;
  for (const NicStall& s : plan_.stalls) {
    if (s.node >= 0 && s.node != node) continue;
    if (now >= s.t0 && now < s.t0 + s.dur && s.t0 + s.dur > release) {
      release = s.t0 + s.dur;
    }
  }
  return release;
}

double Injector::compute_dilation(int rank, double now) const {
  double mult = 1.0;
  for (const Straggler& s : plan_.stragglers) {
    if (s.rank == rank && s.win.contains(now)) mult *= s.factor;
  }
  return mult;
}

double Injector::starvation_penalty(int rank, double now) const {
  double cost = 0.0;
  for (const Starve& s : plan_.starves) {
    if (s.rank == rank && s.win.contains(now)) cost += s.cost;
  }
  return cost;
}

const std::vector<CannedPlan>& canned_plans() {
  // Tuned against the fig3-style np32 scenarios: each plan demonstrably
  // exercises its recovery path (asserted via trace counters in test_fault).
  static const std::vector<CannedPlan> plans = {
      {"none", "", "all-quiet baseline (no injection, no recovery armed)"},
      // Random drops with generous retries: every drop is healed by
      // retransmission, no op ever fails over.  The op timeout is far
      // above the slowest op of the grid (whale-tcp, ~4 s), so recovery
      // never fires on mere slowness.
      {"drops", "seed=7;drop:p=0.25,max=40;rto=1e-3;retries=12;op_timeout=30",
       "random message loss healed entirely by ack/retransmit"},
      // Total loss during the first 20 ms with no retries: every message
      // shipped in the window dies, its RTO declares the send failed, and
      // the NBC handle cancels and restarts on the fallback algorithm.
      // rto/op_timeout sit above the slowest fault-free op so congested
      // acks never fail spuriously and the fallback attempt can finish.
      {"blackout", "seed=11;drop:p=1,t1=0.02;rto=5;retries=0;op_timeout=10",
       "total early loss forcing NBC fallback restarts"},
      // Mid-run link degradation: post-decision samples blow past the
      // recorded baseline and ADCL re-opens tuning.
      {"degrade", "seed=13;degrade:t0=0.05,t1=1e9,lat=8,bw=8;"
                  "drift:window=3,tol=0.5",
       "mid-run link degradation triggering ADCL drift re-tuning"},
      // One slow rank: compute dilation plus progress starvation.
      {"straggler", "seed=17;straggler:rank=2,factor=4;"
                    "starve:rank=2,cost=2e-4",
       "one rank slowed by compute dilation + progress starvation"},
      // Everything at once (drops healed by retransmit + degradation with
      // drift re-tuning + a straggler + a NIC stall burst).
      {"mixed", "seed=23;drop:p=0.1,max=30;rto=1e-3;retries=16;op_timeout=60;"
                "degrade:t0=0.08,t1=1e9,lat=6,bw=6;"
                "straggler:rank=1,factor=3;stall:node=0,t0=0.01,dur=0.005;"
                "drift:window=3,tol=0.5",
       "drops + degradation + straggler + NIC stall, all recoveries at once"},
      // --- Fail-stop kill plans (ULFM-style shrink-and-retune path). ---
      // Kill times land inside the fig-3 microbench loop; detection fires
      // one lease period later, all survivors agree on the failed set,
      // shrink, rebuild their handles and re-open tuning.
      {"kill1", "seed=31;kill=5@0.004;lease=2e-3",
       "single non-leader death mid-sweep: detect, shrink, retune"},
      {"killleader", "seed=37;kill=0@0.004;lease=2e-3",
       "rank-0 (node-leader) death: leader re-election after shrink"},
      // Two deaths spaced further apart than the lease, so the second
      // death interrupts the already-shrunk communicator (two epochs).
      {"cascade", "seed=41;kill=3@0.003,1@0.012;lease=2e-3",
       "cascading deaths across two recovery epochs"},
      // Kill layered on message loss: the lease is far shorter than the
      // retry budget, so shrink wins before retransmits exhaust and no
      // retransmit may resurrect traffic addressed to the dead rank.
      {"killdrops", "seed=43;drop:p=0.15,max=30;rto=1e-3;retries=12;"
                    "op_timeout=30;kill=2@0.004;lease=2e-3",
       "death under random drops: shrink preempts the retransmit path"},
  };
  return plans;
}

}  // namespace nbctune::fault
