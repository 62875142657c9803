// Deterministic fault injection. A *failpoint* is a named site in the code
// that normally does nothing; tests (or the RUMOR_FAILPOINTS environment
// variable) arm a site with a trigger mode, and the next qualifying hit
// makes RUMOR_FAILPOINT(...) return true so the site can take its failure
// path — a torn snapshot write, a short read, a flipped bit, a forced
// slow-path allocation.
//
//   RUMOR_FAILPOINT("snapshot/write-torn")       // in the code under test
//
//   failpoint::Set("snapshot/write-torn", "after(2)");  // in the test
//   failpoint::ClearAll();
//
// Trigger modes (all deterministic):
//   "off"          — disarmed (same as Clear)
//   "always"       — fires on every hit
//   "after(N)"     — skips N hits, fires exactly once on hit N+1
//   "prob(P,SEED)" — fires on each hit with probability P, driven by a
//                    per-site splitmix64 stream seeded with SEED (the same
//                    seed always yields the same firing pattern)
//
// Environment activation: RUMOR_FAILPOINTS="site=mode;site2=mode2" is read
// once, at the first hit or the first Set/Clear. Programmatic Set/Clear
// override the environment.
//
// Cost: one inlined relaxed atomic load and compare per hit while no site is
// armed (the out-of-line call happens only while a site is armed, or before
// the environment has been read); compiled out entirely (constant false,
// zero code) by -DRUMOR_FAILPOINTS=OFF.
#ifndef RUMOR_COMMON_FAILPOINT_H_
#define RUMOR_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>

#ifndef RUMOR_FAILPOINTS_ENABLED
#define RUMOR_FAILPOINTS_ENABLED 1
#endif

namespace rumor {
namespace failpoint {

#if RUMOR_FAILPOINTS_ENABLED

namespace internal {
// Sites armed right now, or kEnvUnread until RUMOR_FAILPOINTS has been read.
inline constexpr int kEnvUnread = -1;
extern std::atomic<int> g_armed;
// The armed (or environment-unread) path of Hit.
bool HitSlow(const char* site);
}  // namespace internal

// True if the armed trigger for `site` fires on this hit. Thread-safe.
inline bool Hit(const char* site) {
  return internal::g_armed.load(std::memory_order_relaxed) != 0 &&
         internal::HitSlow(site);
}

// Arms `site` with a mode string (see file comment). Returns false on an
// unparsable mode. Overrides any environment-armed mode for the site.
bool Set(const std::string& site, const std::string& mode);
// Disarms one site / every site (also wipes environment-armed sites).
void Clear(const std::string& site);
void ClearAll();
// Total RUMOR_FAILPOINT evaluations of `site` since it was last armed.
int64_t HitCount(const std::string& site);

#else  // RUMOR_FAILPOINTS_ENABLED

inline bool Hit(const char*) { return false; }
inline bool Set(const std::string&, const std::string&) { return false; }
inline void Clear(const std::string&) {}
inline void ClearAll() {}
inline int64_t HitCount(const std::string&) { return 0; }

#endif  // RUMOR_FAILPOINTS_ENABLED

}  // namespace failpoint
}  // namespace rumor

// The per-site hook. Reads as a condition: if (RUMOR_FAILPOINT("x")) {...}.
#if RUMOR_FAILPOINTS_ENABLED
#define RUMOR_FAILPOINT(site) (::rumor::failpoint::Hit(site))
#else
#define RUMOR_FAILPOINT(site) (false)
#endif

#endif  // RUMOR_COMMON_FAILPOINT_H_
