#include "api/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace jmh::api {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("SolverSpec::parse: " + what);
}

/// A value-range or cross-key rule broke; @p key is the key to fix.
[[noreturn]] void reject(std::string_view key, std::string_view rule) {
  throw std::invalid_argument("SolverSpec: key '" + std::string(key) + "' " + std::string(rule));
}

std::string lower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

template <typename T>
void append_int(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

// %.17g round-trips any double exactly through strtod.
void append_double(std::string& out, double v) {
  char buf[40];
  out.append(buf, static_cast<std::size_t>(std::snprintf(buf, sizeof buf, "%.17g", v)));
}

/// A non-negative integer no larger than @p max (the narrowing bound of the
/// field it lands in: without it, d=4294967297 would silently become d=1).
std::uint64_t parse_uint(std::string_view key, const std::string& value, std::uint64_t max) {
  // The first character must be a digit: strtoull itself accepts a leading
  // '+' (and leading whitespace), which would let "m=+5" and "m=5" name the
  // same scenario and break parse(to_string(spec)) as the canonical fixed
  // point.
  if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])))
    fail("key '" + std::string(key) + "' needs a non-negative integer, got '" + value + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size())
    fail("key '" + std::string(key) + "' needs a non-negative integer, got '" + value + "'");
  if (v > max)
    fail("key '" + std::string(key) + "' value " + value + " exceeds the maximum " +
         std::to_string(max));
  return v;
}

double parse_double(std::string_view key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end != value.c_str() + value.size() || value.empty())
    fail("key '" + std::string(key) + "' needs a number, got '" + value + "'");
  return v;
}

bool parse_bool(std::string_view key, const std::string& value) {
  if (value == "1" || value == "true" || value == "yes" || value == "on") return true;
  if (value == "0" || value == "false" || value == "no" || value == "off") return false;
  fail("key '" + std::string(key) + "' needs 0|1, got '" + value + "'");
}

/// StopRule spellings, indexed by the enum value.
constexpr std::string_view kStopNames[] = {"norot", "offdiag", "offdiag_abs"};
static_assert(static_cast<int>(solve::StopRule::OffDiagonalAbsolute) == 2);

/// NaN fails every comparison, so each range test is written as !(ok):
/// "threshold=nan" is rejected instead of sailing through a sign check.
bool finite_at_least(double v, double lo) { return std::isfinite(v) && v >= lo; }
bool finite_above(double v, double lo) { return std::isfinite(v) && v > lo; }

/// Bounded well under steady_clock's representable range so now() + the
/// deadline (or a fault stall) never overflows the time_point arithmetic.
constexpr std::uint64_t kMaxMillisOrMicros = 1000000000ull;

// ---- the key table ----------------------------------------------------------

/// One spec key: its name, a syntax-only parser that writes the field (range
/// and cross-key rules live in validate, once), and a renderer that appends
/// the canonical value. The table order is the canonical key order.
struct Key {
  std::string_view name;
  void (*parse)(std::string_view key, const std::string& value, SolverSpec& spec);
  void (*render)(const SolverSpec& spec, std::string& out);
};

template <auto Field>
using FieldType = std::remove_cvref_t<decltype(std::declval<SolverSpec&>().*Field)>;

template <auto Field>
void parse_int_field(std::string_view key, const std::string& value, SolverSpec& spec) {
  using T = FieldType<Field>;
  spec.*Field = static_cast<T>(parse_uint(key, value, std::numeric_limits<T>::max()));
}

template <auto Field>
constexpr Key int_key(std::string_view name) {
  return {name, parse_int_field<Field>,
          [](const SolverSpec& s, std::string& out) { append_int(out, s.*Field); }};
}

template <auto Field>
constexpr Key double_key(std::string_view name) {
  return {name,
          [](std::string_view key, const std::string& v, SolverSpec& s) {
            s.*Field = parse_double(key, v);
          },
          [](const SolverSpec& s, std::string& out) { append_double(out, s.*Field); }};
}

template <auto Field>
constexpr Key bool_key(std::string_view name) {
  return {name,
          [](std::string_view key, const std::string& v, SolverSpec& s) {
            s.*Field = parse_bool(key, v);
          },
          [](const SolverSpec& s, std::string& out) { out += s.*Field ? '1' : '0'; }};
}

void parse_faults(std::string_view key, const std::string& value, SolverSpec& spec) {
  if (value == "off") {
    spec.faults = solve::FaultPlan{};
    return;
  }
  // <seed>:<corrupt>:<delay>:<delay_us>:<vote>, exactly five fields.
  std::string parts[5];
  std::size_t n = 0, start = 0;
  while (true) {
    const std::size_t colon = value.find(':', start);
    if (n < 5) parts[n] = value.substr(start, colon == std::string::npos ? colon : colon - start);
    ++n;
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (n != 5)
    fail("key '" + std::string(key) +
         "' needs off or <seed>:<corrupt>:<delay>:<delay_us>:<vote>, got '" + value + "'");
  // Seed 0 is how an unarmed plan is stored, so its only spelling is "off".
  spec.faults.seed = parse_uint(key, parts[0], std::numeric_limits<std::uint64_t>::max());
  if (spec.faults.seed == 0)
    fail("key '" + std::string(key) + "' seed must be >= 1 (use faults=off to disable)");
  spec.faults.corrupt_rate = parse_double(key, parts[1]);
  spec.faults.delay_rate = parse_double(key, parts[2]);
  spec.faults.delay_us = parse_uint(key, parts[3], std::numeric_limits<std::uint64_t>::max());
  spec.faults.vote_fail_rate = parse_double(key, parts[4]);
}

void render_faults(const SolverSpec& spec, std::string& out) {
  const solve::FaultPlan& f = spec.faults;
  if (!f.enabled()) {
    out += "off";
    return;
  }
  append_int(out, f.seed);
  out += ':';
  append_double(out, f.corrupt_rate);
  out += ':';
  append_double(out, f.delay_rate);
  out += ':';
  append_int(out, f.delay_us);
  out += ':';
  append_double(out, f.vote_fail_rate);
}

constexpr Key kKeys[] = {
    {"task",
     [](std::string_view, const std::string& v, SolverSpec& s) {
       if (!parse_task(v, s.task)) fail("unknown task '" + v + "' (evd|svd|pca|gevd)");
     },
     [](const SolverSpec& s, std::string& out) { out += to_string(s.task); }},
    {"backend",
     [](std::string_view, const std::string& v, SolverSpec& s) {
       if (!parse_backend(v, s.backend)) fail("unknown backend '" + v + "' (inline|mpi|sim)");
     },
     [](const SolverSpec& s, std::string& out) { out += to_string(s.backend); }},
    {"ordering",
     [](std::string_view, const std::string& v, SolverSpec& s) {
       if (!ord::parse_ordering_kind(v, s.ordering))
         fail("unknown ordering '" + v + "' (br|pbr|d4|minalpha)");
       if (s.ordering == ord::OrderingKind::Custom)
         fail("ordering=custom needs programmatic sequences; use Solver::plan(spec, ordering)");
     },
     [](const SolverSpec& s, std::string& out) { out += ord::spec_token(s.ordering); }},
    int_key<&SolverSpec::m>("m"),
    // rows == m means "square", which 0 already names: render the normalized
    // form so one scenario has exactly one canonical string (the plan-cache
    // key).
    {"rows", parse_int_field<&SolverSpec::rows>,
     [](const SolverSpec& s, std::string& out) { append_int(out, s.rows == s.m ? 0 : s.rows); }},
    int_key<&SolverSpec::d>("d"),
    {"pipeline",
     [](std::string_view key, const std::string& v, SolverSpec& s) {
       if (v == "off") {
         s.pipelining = PipeliningPolicy::Off;
       } else if (v == "auto") {
         s.pipelining = PipeliningPolicy::Auto;
       } else {
         s.pipelining = PipeliningPolicy::Fixed;
         s.q = parse_uint(key, v, std::numeric_limits<std::uint64_t>::max());
       }
     },
     [](const SolverSpec& s, std::string& out) {
       switch (s.pipelining) {
         case PipeliningPolicy::Off: out += "off"; break;
         case PipeliningPolicy::Auto: out += "auto"; break;
         case PipeliningPolicy::Fixed: append_int(out, s.q); break;
       }
     }},
    {"ts",
     [](std::string_view key, const std::string& v, SolverSpec& s) {
       s.machine.ts = parse_double(key, v);
     },
     [](const SolverSpec& s, std::string& out) { append_double(out, s.machine.ts); }},
    {"tw",
     [](std::string_view key, const std::string& v, SolverSpec& s) {
       s.machine.tw = parse_double(key, v);
     },
     [](const SolverSpec& s, std::string& out) { append_double(out, s.machine.tw); }},
    {"ports",
     [](std::string_view key, const std::string& v, SolverSpec& s) {
       s.machine.ports = v == "all" ? pipe::MachineParams::kAllPort
                                    : static_cast<int>(parse_uint(
                                          key, v, std::numeric_limits<int>::max()));
     },
     [](const SolverSpec& s, std::string& out) {
       if (s.machine.all_port()) out += "all";
       else append_int(out, s.machine.ports);
     }},
    bool_key<&SolverSpec::overlap_startup>("overlap"),
    double_key<&SolverSpec::threshold>("threshold"),
    int_key<&SolverSpec::max_sweeps>("max_sweeps"),
    {"stop",
     [](std::string_view, const std::string& v, SolverSpec& s) {
       for (std::size_t i = 0; i < std::size(kStopNames); ++i)
         if (v == kStopNames[i]) {
           s.stop_rule = static_cast<solve::StopRule>(i);
           return;
         }
       fail("unknown stop rule '" + v + "' (norot|offdiag|offdiag_abs)");
     },
     [](const SolverSpec& s, std::string& out) {
       out += kStopNames[static_cast<std::size_t>(s.stop_rule)];
     }},
    double_key<&SolverSpec::off_tol>("off_tol"),
    bool_key<&SolverSpec::gershgorin_shift>("shift"),
    int_key<&SolverSpec::bseed>("bseed"),
    int_key<&SolverSpec::topk>("topk"),
    int_key<&SolverSpec::deadline_ms>("deadline_ms"),
    bool_key<&SolverSpec::trace>("trace"),
    {"faults", parse_faults, render_faults},
};

// Duplicate detection keeps one bit per row.
static_assert(std::size(kKeys) <= 32);

}  // namespace

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::Inline: return "inline";
    case Backend::MpiLite: return "mpi";
    case Backend::Sim: return "sim";
  }
  return "?";
}

std::string to_string(Task task) {
  switch (task) {
    case Task::Evd: return "evd";
    case Task::Svd: return "svd";
    case Task::Pca: return "pca";
    case Task::Gevd: return "gevd";
  }
  return "?";
}

bool parse_task(std::string_view text, Task& out) {
  const std::string norm = lower(text);
  if (norm == "evd" || norm == "eig" || norm == "eigen") out = Task::Evd;
  else if (norm == "svd") out = Task::Svd;
  else if (norm == "pca") out = Task::Pca;
  else if (norm == "gevd") out = Task::Gevd;
  else return false;
  return true;
}

bool parse_backend(std::string_view text, Backend& out) {
  const std::string norm = lower(text);
  if (norm == "inline") out = Backend::Inline;
  else if (norm == "mpi" || norm == "mpilite" || norm == "mpi_lite" || norm == "mpi-lite")
    out = Backend::MpiLite;
  else if (norm == "sim") out = Backend::Sim;
  else return false;
  return true;
}

void validate(const SolverSpec& spec) {
  if (spec.m < 1) reject("m", "must be >= 1");
  if (spec.d < 1) reject("d", "must be >= 1");
  const bool rectangular = spec.task == Task::Svd || spec.task == Task::Pca;
  if (!rectangular && spec.rows != 0 && spec.rows != spec.m)
    reject("rows", "!= m needs task=svd|pca (the eigenproblem input is square m x m)");
  if (spec.pipelining == PipeliningPolicy::Fixed && spec.q < 1)
    reject("pipeline", "=<q> needs q >= 1 (or off|auto)");
  if (!finite_at_least(spec.machine.ts, 0.0)) reject("ts", "must be finite and >= 0");
  if (!finite_at_least(spec.machine.tw, 0.0)) reject("tw", "must be finite and >= 0");
  if (!spec.machine.all_port() && spec.machine.ports < 1) reject("ports", "must be >= 1 or 'all'");
  if (!finite_above(spec.threshold, 0.0)) reject("threshold", "must be finite and > 0");
  if (spec.max_sweeps < 1) reject("max_sweeps", "must be >= 1");
  if (!finite_above(spec.off_tol, 0.0)) reject("off_tol", "must be finite and > 0");
  if (spec.gershgorin_shift && spec.task != Task::Evd)
    reject("shift", "=1 needs task=evd (a diagonal shift has no SVD/PCA/GEVD meaning)");
  if (spec.task == Task::Gevd && spec.bseed == 0)
    reject("bseed", "must be >= 1 for task=gevd (names the deterministic SPD B-side)");
  if (spec.task != Task::Gevd && spec.bseed != 0)
    reject("bseed", "needs task=gevd (no other task has a B-side matrix)");
  if (spec.topk < 0) reject("topk", "must be >= 0");
  if (spec.topk > 0) {
    if (spec.task != Task::Evd && spec.task != Task::Svd)
      reject("topk", "needs task=evd|svd (pca/gevd assemble over the full spectrum)");
    // The core partitions min(rows, m) columns (a wide input is solved as
    // its transpose), so that is the truncation ceiling.
    const std::size_t core_cols = std::min(spec.input_rows(), spec.m);
    if (static_cast<std::size_t>(spec.topk) > core_cols)
      reject("topk", "exceeds the core column count " + std::to_string(core_cols) +
                         " (min(rows, m))");
    if (spec.stop_rule != solve::StopRule::NoRotations)
      reject("topk", "needs stop=norot (per-column activity has no off(A) analogue)");
    if (spec.gershgorin_shift)
      reject("topk", "needs shift=0 (the shift reorders the spectrum the ranking tracks)");
  }
  if (spec.deadline_ms > kMaxMillisOrMicros) reject("deadline_ms", "must be <= 1000000000");
  if (spec.faults.enabled()) {
    for (double rate : {spec.faults.corrupt_rate, spec.faults.delay_rate,
                        spec.faults.vote_fail_rate})
      if (!(rate >= 0.0 && rate <= 1.0)) reject("faults", "rates must be in [0, 1]");
    if (spec.faults.delay_us > kMaxMillisOrMicros)
      reject("faults", "delay_us must be <= 1000000000");
  }
}

solve::SolveOptions SolverSpec::solve_options() const {
  solve::SolveOptions opts;
  opts.threshold = threshold;
  opts.max_sweeps = max_sweeps;
  opts.stop_rule = stop_rule;
  opts.off_tol = off_tol;
  opts.gershgorin_shift = gershgorin_shift;
  opts.topk = topk;
  opts.faults = faults;
  // deadline_ms is NOT resolved here: a deadline is relative to solve()
  // entry, so SolvePlan::solve derives the cancel token per call.
  return opts;
}

std::string SolverSpec::to_string() const {
  std::string out;
  out.reserve(256);
  for (const Key& key : kKeys) {
    if (!out.empty()) out += ',';
    out += key.name;
    out += '=';
    key.render(*this, out);
  }
  return out;
}

SolverSpec SolverSpec::parse(const std::string& text) {
  SolverSpec spec;
  // A spec is a scenario NAME: silently letting a later duplicate win would
  // give two canonical-looking strings different meanings, so duplicates
  // are an error. One bit per table row keeps the check allocation-free
  // (BM_SpecRoundTrip is a gated hot case).
  std::uint32_t seen = 0;
  std::string_view rest = trim(text);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view token =
        trim(comma == std::string_view::npos ? rest : rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (token.empty()) continue;

    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos)
      fail("token '" + std::string(token) + "' is not key=value");
    const std::string_view name = trim(token.substr(0, eq));
    const std::string value = lower(trim(token.substr(eq + 1)));
    if (name.empty() || value.empty())
      fail("token '" + std::string(token) + "' has an empty key or value");

    std::size_t row = 0;
    while (row < std::size(kKeys) && kKeys[row].name != name) ++row;
    if (row == std::size(kKeys)) fail("unknown key '" + std::string(name) + "'");
    const std::uint32_t bit = std::uint32_t{1} << row;
    if (seen & bit) fail("duplicate key '" + std::string(name) + "'");
    seen |= bit;
    kKeys[row].parse(name, value, spec);
  }
  // "rows=m" and "rows=0" name the same square scenario: normalize, so the
  // two spellings parse to EQUAL specs with one canonical string (otherwise
  // the plan cache would compile duplicate plans for one scenario -- the
  // same aliasing the leading-'+' rejection exists to prevent).
  if (spec.rows == spec.m) spec.rows = 0;
  validate(spec);
  return spec;
}

}  // namespace jmh::api
