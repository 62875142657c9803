// Structural member fingerprints for checkpoint/restore.
//
// A checkpoint saves operator state per *member* (one logical operator
// inside an m-op); a restored engine rebuilds its plan by re-parsing the
// saved query texts and replaying the incremental merge, which generally
// yields a differently-shaped shared plan (the incremental path applies
// only the state-preserving rule subset). M-op ids therefore do not line up
// — state is matched by a structural fingerprint instead:
//
//   MemberFp = H(kind-class, MemberSignature, input-stream fps...)
//   StreamFp(source)  = H("src", stream name)
//   StreamFp(derived) = MemberFp of the member producing it
//
// The kind-class collapses the sharing variants of one logical operator
// (σ ≡ sσ ≡ cσ, α ≡ sα ≡ cα, ⋈ ≡ s⋈ ≡ c⋈, ...), so a member keeps its
// fingerprint no matter which m-rules packaged it — exactly the property
// that lets a member saved inside a c⋈ land in a restored isolated ⋈.
#ifndef RUMOR_PLAN_FINGERPRINT_H_
#define RUMOR_PLAN_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "plan/plan.h"

namespace rumor {

struct PlanFingerprints {
  // Indexed by MopId; inner vector by member index. 0 marks a member no
  // query output reaches, or a deactivated one. Dead m-op ids hold empty
  // vectors.
  std::vector<std::vector<uint64_t>> members;
};

// Computes the fingerprint of every member a query output reaches. Fails
// only on a malformed plan (a derived stream with no producer).
Result<PlanFingerprints> ComputeMemberFingerprints(const Plan& plan);

}  // namespace rumor

#endif  // RUMOR_PLAN_FINGERPRINT_H_
