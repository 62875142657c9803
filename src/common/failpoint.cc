#include "common/failpoint.h"

#if RUMOR_FAILPOINTS_ENABLED

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"

namespace rumor {
namespace failpoint {

namespace {

struct Spec {
  enum class Mode : uint8_t { kAlways, kAfterN, kProb };
  Mode mode = Mode::kAlways;
  int64_t after_n = 0;     // kAfterN: hits to skip before the one firing
  double probability = 0;  // kProb
  uint64_t rng = 0;        // kProb: per-site splitmix64 state
  int64_t hits = 0;
  bool fired = false;      // kAfterN is one-shot
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Spec> sites;
};

using internal::g_armed;

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

// splitmix64 step: deterministic per-site uniform stream for kProb.
uint64_t NextRandom(uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ull;
  return Mix64(*state);
}

bool ParseSpec(std::string_view mode, Spec* out) {
  if (mode == "always") {
    out->mode = Spec::Mode::kAlways;
    return true;
  }
  if (mode.rfind("after(", 0) == 0 && mode.back() == ')') {
    char* end = nullptr;
    const std::string n(mode.substr(6, mode.size() - 7));
    const int64_t v = std::strtoll(n.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v < 0) return false;
    out->mode = Spec::Mode::kAfterN;
    out->after_n = v;
    return true;
  }
  if (mode.rfind("prob(", 0) == 0 && mode.back() == ')') {
    const std::string body(mode.substr(5, mode.size() - 6));
    const size_t comma = body.find(',');
    if (comma == std::string::npos) return false;
    char* end = nullptr;
    const std::string p_str = body.substr(0, comma);
    const std::string seed_str = body.substr(comma + 1);
    const double p = std::strtod(p_str.c_str(), &end);
    if (end == nullptr || *end != '\0' || p < 0.0 || p > 1.0) return false;
    const uint64_t seed = std::strtoull(seed_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return false;
    out->mode = Spec::Mode::kProb;
    out->probability = p;
    out->rng = seed;
    return true;
  }
  return false;
}

// Parses RUMOR_FAILPOINTS="a=after(3);b=prob(0.5,42)" into the registry and
// replaces g_armed's kEnvUnread with the count of sites armed.
void LoadFromEnv(Registry& r) {
  const char* env = std::getenv("RUMOR_FAILPOINTS");
  std::string_view rest(env == nullptr ? "" : env);
  while (!rest.empty()) {
    const size_t semi = rest.find(';');
    std::string_view item =
        semi == std::string_view::npos ? rest : rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos) continue;
    Spec spec;
    if (!ParseSpec(item.substr(eq + 1), &spec)) continue;
    r.sites[std::string(item.substr(0, eq))] = spec;
  }
  g_armed.store(static_cast<int>(r.sites.size()), std::memory_order_relaxed);
}

std::once_flag g_env_once;

void EnsureEnvLoaded(Registry& r) {
  std::call_once(g_env_once, [&r] { LoadFromEnv(r); });
}

}  // namespace

namespace internal {

std::atomic<int> g_armed{kEnvUnread};

bool HitSlow(const char* site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  EnsureEnvLoaded(r);
  auto it = r.sites.find(site);
  if (it == r.sites.end()) return false;
  Spec& spec = it->second;
  ++spec.hits;
  switch (spec.mode) {
    case Spec::Mode::kAlways:
      return true;
    case Spec::Mode::kAfterN:
      if (spec.fired || spec.hits <= spec.after_n) return false;
      spec.fired = true;
      return true;
    case Spec::Mode::kProb: {
      const uint64_t x = NextRandom(&spec.rng);
      // Map to [0, 1): 53 mantissa bits keep the conversion exact.
      const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
      return u < spec.probability;
    }
  }
  return false;
}

}  // namespace internal

bool Set(const std::string& site, const std::string& mode) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  EnsureEnvLoaded(r);
  if (mode == "off") {
    if (r.sites.erase(site) > 0) {
      g_armed.fetch_sub(1, std::memory_order_relaxed);
    }
    return true;
  }
  Spec spec;
  if (!ParseSpec(mode, &spec)) return false;
  auto [it, inserted] = r.sites.insert_or_assign(site, spec);
  (void)it;
  if (inserted) g_armed.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Clear(const std::string& site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  EnsureEnvLoaded(r);
  if (r.sites.erase(site) > 0) {
    g_armed.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ClearAll() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  EnsureEnvLoaded(r);
  g_armed.fetch_sub(static_cast<int>(r.sites.size()),
                    std::memory_order_relaxed);
  r.sites.clear();
}

int64_t HitCount(const std::string& site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.sites.find(site);
  return it == r.sites.end() ? 0 : it->second.hits;
}

}  // namespace failpoint
}  // namespace rumor

#endif  // RUMOR_FAILPOINTS_ENABLED
