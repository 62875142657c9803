// Projection m-ops.
//
//  * ProjectionMop — the compile output for one logical π, and the
//    reference the channel projection is tested against.
//  * ChannelProjectMop — the paper's π{1..n} example (§3.1): n projections
//    with the same map over streams encoded in one channel; the map is
//    applied once and the membership component passes through unchanged.
#ifndef RUMOR_MOP_PROJECTION_MOP_H_
#define RUMOR_MOP_PROJECTION_MOP_H_

#include "expr/schema_map.h"
#include "mop/mop.h"

namespace rumor {

struct ProjectionDef {
  SchemaMap map;

  uint64_t Signature() const { return map.Signature(); }
};

class ProjectionMop : public Mop {
 public:
  struct Member {
    int input_slot = 0;
    ProjectionDef def;
  };

  // One member, written to output port 0.
  explicit ProjectionMop(Member member);

  int num_members() const override { return 1; }
  uint64_t MemberSignature(int) const override {
    return member_.def.Signature();
  }
  const Member& member() const { return member_; }

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;

 private:
  Member member_;
};

class ChannelProjectMop : public Mop {
 public:
  ChannelProjectMop(ProjectionDef def, int num_members, OutputMode mode);

  int num_members() const override { return num_members_; }
  uint64_t MemberSignature(int) const override { return def_.Signature(); }
  const ProjectionDef& def() const { return def_; }

  void Process(int input_port, const ChannelTuple& tuple,
               Emitter& out) override;

 private:
  ProjectionDef def_;
  int num_members_;
  OutputMode mode_;
};

}  // namespace rumor

#endif  // RUMOR_MOP_PROJECTION_MOP_H_
