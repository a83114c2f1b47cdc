#include "analyze/regress.hpp"

#include <cmath>
#include <concepts>
#include <cstdio>
#include <optional>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analyze/json_min.hpp"

namespace nbctune::analyze {

namespace {

using jsonmin::Value;

constexpr const char* kSchemaPrefix = "nbctune-report-";

constexpr const char* kBlameCats[] = {"compute",     "progress",
                                      "wire",        "late_sender",
                                      "missing_progress", "other"};

double num_at(const Value& obj, const char* key, double fallback = 0.0) {
  const Value* v = obj.get(key);
  return v != nullptr ? v->as_num(fallback) : fallback;
}

/// Integer `key` of `obj` (`fallback` when absent); anything but a
/// number in T's range is an error naming `where` and the key.
template <std::integral T>
T int_at(const Value& obj, const char* key, T fallback,
         const std::string& where) {
  const Value* v = obj.get(key);
  if (v == nullptr) return fallback;
  if (const std::optional<T> n = v->as_int<T>()) return *n;
  throw std::runtime_error(where + ": " + key + " is not an integer in range");
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string fmt_us(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f us", seconds * 1e6);
  return buf;
}

/// Scenario `index` of the report's scenarios array.
ScenarioDigest digest_scenario(const Value& s, std::size_t index) {
  ScenarioDigest d;
  if (const Value* label = s.get("label");
      label != nullptr && label->kind == Value::Kind::Str) {
    d.label = label->str;
  }
  const std::string where =
      "scenario " + std::to_string(index) + " '" + d.label + "'";
  d.ops = int_at<std::uint64_t>(s, "ops_completed", 0, where);
  d.mean_op = num_at(s, "mean_op_ns") * 1e-9;
  if (const Value* blame = s.get("blame_ns");
      blame != nullptr && blame->kind == Value::Kind::Obj) {
    const double total = num_at(*blame, "total");
    for (const char* cat : kBlameCats) {
      d.blame_share[cat] = total > 0.0 ? num_at(*blame, cat) / total : 0.0;
    }
  }
  if (const Value* ranks = s.get("ranks");
      ranks != nullptr && ranks->kind == Value::Kind::Arr &&
      !ranks->arr->empty()) {
    double sum = 0.0;
    for (const Value& r : *ranks->arr) sum += num_at(r, "overlap_bp") * 1e-4;
    d.mean_overlap = sum / static_cast<double>(ranks->arr->size());
  }
  if (const Value* stats = s.get("stats");
      stats != nullptr && stats->kind == Value::Kind::Obj) {
    if (const Value* met = stats->get("min_reps_met");
        met != nullptr && met->kind == Value::Kind::Bool) {
      d.min_reps_met = met->b;
    }
    if (const Value* op = stats->get("op");
        op != nullptr && op->kind == Value::Kind::Obj) {
      d.stat_n = int_at<std::uint64_t>(*op, "n", 0, where);
      d.median_op = num_at(*op, "median_ns") * 1e-9;
      d.ci_lo = num_at(*op, "lo_ns") * 1e-9;
      d.ci_hi = num_at(*op, "hi_ns") * 1e-9;
    }
  }
  if (const Value* adcl = s.get("adcl");
      adcl != nullptr && adcl->kind == Value::Kind::Obj) {
    d.has_adcl = true;
    d.adcl_winner = int_at(*adcl, "winner", -1, where);
    if (const Value* el = adcl->get("eliminations");
        el != nullptr && el->kind == Value::Kind::Arr) {
      d.adcl_eliminations = el->arr->size();
    }
    if (const Value* pr = adcl->get("prunes");
        pr != nullptr && pr->kind == Value::Kind::Arr) {
      d.adcl_prunes = pr->arr->size();
    }
  }
  return d;
}

}  // namespace

ReportDigest read_report_json(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const Value root = jsonmin::parse(buf.str());
  ReportDigest d;
  const Value* schema = root.get("schema");
  if (schema == nullptr || schema->kind != Value::Kind::Str ||
      schema->str.rfind(kSchemaPrefix, 0) != 0) {
    throw std::runtime_error("not an nbctune report (missing/foreign schema)");
  }
  d.schema = schema->str;
  if (const Value* scenarios = root.get("scenarios");
      scenarios != nullptr && scenarios->kind == Value::Kind::Arr) {
    for (std::size_t i = 0; i < scenarios->arr->size(); ++i) {
      const Value& s = (*scenarios->arr)[i];
      if (s.kind == Value::Kind::Obj) {
        d.scenarios.push_back(digest_scenario(s, i));
      }
    }
  }
  if (const Value* guidelines = root.get("guidelines");
      guidelines != nullptr && guidelines->kind == Value::Kind::Arr) {
    for (std::size_t i = 0; i < guidelines->arr->size(); ++i) {
      const Value& g = (*guidelines->arr)[i];
      if (g.kind != Value::Kind::Obj) continue;
      GuidelineDigest gd;
      if (const Value* id = g.get("id");
          id != nullptr && id->kind == Value::Kind::Str) {
        gd.id = id->str;
      }
      const std::string where =
          "guideline " + std::to_string(i) + " '" + gd.id + "'";
      gd.checked = int_at<std::uint64_t>(g, "checked", 0, where);
      gd.passed = int_at<std::uint64_t>(g, "passed", 0, where);
      if (const Value* v = g.get("violations");
          v != nullptr && v->kind == Value::Kind::Arr) {
        gd.violations = v->arr->size();
      }
      d.guidelines.push_back(std::move(gd));
    }
  }
  return d;
}

bool RegressTolerances::set(const std::string& key, const std::string& value) {
  double parsed = 0.0;
  try {
    std::size_t used = 0;
    parsed = std::stod(value, &used);
    if (used != value.size()) return false;
  } catch (const std::exception&) {
    return false;
  }
  // A NaN or infinite tolerance would pass every drift, and a negative
  // one would fail every scenario.
  if (!std::isfinite(parsed) || parsed < 0.0) return false;
  if (key == "blame_share") {
    blame_share = parsed;
  } else if (key == "op_rel") {
    op_rel = parsed;
  } else if (key == "overlap") {
    overlap = parsed;
  } else if (key == "ci_separation") {
    ci_separation = parsed != 0.0;
  } else {
    return false;
  }
  return true;
}

void read_tolerances(std::istream& is, RegressTolerances& tol) {
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string key, value;
    if (!(ls >> key)) continue;  // blank / comment-only line
    if (!(ls >> value) || !tol.set(key, value)) {
      throw std::runtime_error("tolerance config line " +
                               std::to_string(lineno) + ": bad entry '" +
                               line + "'");
    }
  }
}

namespace {

/// The `k`-th (from 0) scenario labelled `label` in `r`, or nullptr.
const ScenarioDigest* find_scenario(const ReportDigest& r,
                                    const std::string& label, std::size_t k) {
  for (const ScenarioDigest& s : r.scenarios) {
    if (s.label == label && k-- == 0) return &s;
  }
  return nullptr;
}

const GuidelineDigest* find_guideline(const ReportDigest& r,
                                      const std::string& id) {
  for (const GuidelineDigest& g : r.guidelines) {
    if (g.id == id) return &g;
  }
  return nullptr;
}

void compare_scenario(const ScenarioDigest& o, const ScenarioDigest& n,
                      const RegressTolerances& tol, RegressResult& res) {
  auto flag = [&](const std::string& what) {
    res.violations.push_back({o.label, what});
  };
  for (const auto& [cat, old_share] : o.blame_share) {
    const auto it = n.blame_share.find(cat);
    const double new_share = it != n.blame_share.end() ? it->second : 0.0;
    const double drift = std::fabs(new_share - old_share);
    if (drift > tol.blame_share) {
      flag("blame share '" + cat + "' drifted " + fmt(old_share) + " -> " +
           fmt(new_share) + " (|d|=" + fmt(drift) +
           " > blame_share=" + fmt(tol.blame_share) + ")");
    }
  }
  if (std::fabs(n.mean_overlap - o.mean_overlap) > tol.overlap) {
    flag("mean overlap drifted " + fmt(o.mean_overlap) + " -> " +
         fmt(n.mean_overlap) + " (> overlap=" + fmt(tol.overlap) + ")");
  }
  if (o.mean_op > 0.0) {
    const double rel = std::fabs(n.mean_op - o.mean_op) / o.mean_op;
    if (rel > tol.op_rel) {
      // A relative drift of the mean is only conclusive when the median
      // CIs are disjoint (or CI gating is off / stats are unavailable):
      // overlapping CIs mean the two runs are statistically compatible.
      const bool have_ci =
          tol.ci_separation && o.stat_n > 0 && n.stat_n > 0;
      const bool disjoint = n.ci_lo > o.ci_hi || n.ci_hi < o.ci_lo;
      if (!have_ci || disjoint) {
        flag("mean op time drifted " + fmt_us(o.mean_op) + " -> " +
             fmt_us(n.mean_op) + " (rel=" + fmt(rel) +
             " > op_rel=" + fmt(tol.op_rel) +
             (have_ci ? ", CIs disjoint)" : ", no CI to arbitrate)"));
      }
    }
  }
  if (o.has_adcl != n.has_adcl) {
    flag(std::string("adcl audit ") + (o.has_adcl ? "vanished" : "appeared"));
  } else if (o.has_adcl && o.adcl_winner != n.adcl_winner) {
    flag("adcl winner flipped: func " + std::to_string(o.adcl_winner) +
         " -> func " + std::to_string(n.adcl_winner));
  }
}

}  // namespace

RegressResult regress(const ReportDigest& old_r, const ReportDigest& new_r,
                      const RegressTolerances& tol) {
  RegressResult res;
  // Repetitions share a label, so the k-th scenario with a label in one
  // report pairs with the k-th one with that label in the other.
  std::map<std::string, std::size_t> seen;
  for (const ScenarioDigest& o : old_r.scenarios) {
    const ScenarioDigest* n = find_scenario(new_r, o.label, seen[o.label]++);
    if (n == nullptr) {
      res.violations.push_back({o.label, "scenario missing from new report"});
      continue;
    }
    ++res.scenarios_compared;
    compare_scenario(o, *n, tol, res);
  }
  seen.clear();
  for (const ScenarioDigest& n : new_r.scenarios) {
    if (find_scenario(old_r, n.label, seen[n.label]++) == nullptr) {
      res.violations.push_back({n.label, "scenario absent from old report"});
    }
  }
  for (const GuidelineDigest& og : old_r.guidelines) {
    const GuidelineDigest* ng = find_guideline(new_r, og.id);
    if (ng == nullptr) {
      res.violations.push_back(
          {"", "guideline " + og.id + " vanished from new report"});
      continue;
    }
    ++res.guidelines_compared;
    if (!og.failing() && ng->failing()) {
      res.violations.push_back(
          {"", "guideline " + og.id + " regressed: " +
                   std::to_string(ng->violations) + " new violation(s)"});
    }
    if (og.checked > 0 && ng->checked == 0) {
      res.violations.push_back(
          {"", "guideline " + og.id + " lost all checked pairs (" +
                   std::to_string(og.checked) + " -> 0)"});
    }
  }
  return res;
}

void write_regress(std::ostream& os, const RegressResult& r,
                   const RegressTolerances& tol) {
  os << "== regression gate ==\n";
  os << "  tolerances: blame_share " << fmt(tol.blame_share) << ", op_rel "
     << fmt(tol.op_rel) << ", overlap " << fmt(tol.overlap)
     << ", ci_separation " << (tol.ci_separation ? "on" : "off") << "\n";
  os << "  compared: " << r.scenarios_compared << " scenario(s), "
     << r.guidelines_compared << " guideline(s)\n";
  if (r.ok()) {
    os << "  OK: no drift beyond tolerance\n";
    return;
  }
  os << "  REGRESSION: " << r.violations.size() << " violation(s)\n";
  for (const RegressViolation& v : r.violations) {
    os << "    ";
    if (!v.scenario.empty()) os << "[" << v.scenario << "] ";
    os << v.what << "\n";
  }
}

}  // namespace nbctune::analyze
