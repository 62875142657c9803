#include "plan/explain.h"

#include <algorithm>
#include <cstdio>

#include "common/str_util.h"
#include <sstream>

namespace rumor {

namespace {

// The line head both reports share: "  name  reads[chI,...] writes[chO,...]".
void RenderMop(std::ostringstream& os, const Plan& plan, MopId id) {
  os << "  " << plan.mop(id).name() << "  reads[";
  const auto& ins = plan.input_channels(id);
  for (size_t p = 0; p < ins.size(); ++p) {
    os << (p ? "," : "") << "ch" << ins[p];
  }
  os << "] writes[";
  const auto& outs = plan.output_channels(id);
  for (size_t p = 0; p < outs.size(); ++p) {
    os << (p ? "," : "") << "ch" << outs[p];
  }
  os << "]";
}

void RenderOutputs(std::ostringstream& os, const Plan& plan) {
  for (const Plan::OutputDef& def : plan.outputs()) {
    os << "  output " << def.query_name << " <- "
       << plan.streams().Get(def.stream).name << "\n";
  }
}

}  // namespace

std::string ExplainPlan(const Plan& plan) {
  std::ostringstream os;
  os << SummarizePlan(plan) << "\n";
  for (MopId id : plan.LiveMops()) {
    const Mop& mop = plan.mop(id);
    RenderMop(os, plan, id);
    os << "  in=" << mop.tuples_in() << " out=" << mop.tuples_out() << "\n";
  }
  for (ChannelId c = 0; c < plan.num_channels(); ++c) {
    const ChannelDef& ch = plan.channel(c);
    // Skip channels that are no longer wired to anything.
    bool wired = plan.ProducerOf(c).has_value() ||
                 !plan.ConsumersOf(c).empty() ||
                 plan.FindSourceChannel(ch.stream_at(0)) == c;
    if (!wired) continue;
    os << "  ch" << c << " capacity=" << ch.capacity() << " streams{";
    for (int i = 0; i < ch.capacity(); ++i) {
      if (i) os << ",";
      os << plan.streams().Get(ch.stream_at(i)).name;
    }
    os << "}\n";
  }
  RenderOutputs(os, plan);
  return os.str();
}

std::string ExplainAnalyze(const Plan& plan) {
  std::ostringstream os;
  os << SummarizePlan(plan) << "\n";
  const std::vector<int> refs = plan.QueryRefCounts();
  char buf[128];
  for (MopId id : plan.LiveMops()) {
    const Mop& mop = plan.mop(id);
    RenderMop(os, plan, id);
    os << "  queries=" << refs[id] << " members=" << mop.num_members()
       << "\n";
    const MopMetrics& m = mop.metrics();
    os << "      in=" << m.tuples_in << " out=" << m.tuples_out;
    std::snprintf(buf, sizeof(buf), " sel=%.4f", m.selectivity());
    os << buf << " batches=" << m.batches;
    if (m.sampled_tuples > 0) {
      std::snprintf(buf, sizeof(buf), " ns/tuple≈%.1f (%lld sampled)",
                    m.ns_per_tuple(),
                    static_cast<long long>(m.sampled_tuples));
      os << buf;
    }
    if (m.eval_hist.count() > 0) {
      std::snprintf(buf, sizeof(buf), " eval p50=%lldns p99=%lldns",
                    static_cast<long long>(m.eval_hist.p50()),
                    static_cast<long long>(m.eval_hist.p99()));
      os << buf;
    }
    const int64_t state = mop.StateBytes();
    if (state > 0) os << " state≈" << state << "B";
    os << "\n";
  }
  RenderOutputs(os, plan);
  return os.str();
}

std::string PlanToDot(const Plan& plan) {
  std::ostringstream os;
  os << "digraph plan {\n  rankdir=LR;\n  node [shape=box];\n";
  // Source channels as entry points.
  for (StreamId s : plan.streams().Sources()) {
    if (auto c = plan.FindSourceChannel(s)) {
      os << "  src" << s << " [label=\"" << plan.streams().Get(s).name
         << "\" shape=ellipse];\n";
      for (const ChannelEnd& end : plan.ConsumersOf(*c)) {
        os << "  src" << s << " -> mop" << end.mop << " [label=\"p"
           << end.port << "\"];\n";
      }
    }
  }
  for (MopId id : plan.LiveMops()) {
    os << "  mop" << id << " [label=\"" << plan.mop(id).name() << "\"];\n";
    const auto& outs = plan.output_channels(id);
    for (size_t p = 0; p < outs.size(); ++p) {
      const ChannelDef& ch = plan.channel(outs[p]);
      std::string label = ch.capacity() > 1
                              ? StrCat("ch", outs[p], " cap=", ch.capacity())
                              : StrCat("ch", outs[p]);
      bool has_consumer = false;
      for (const ChannelEnd& end : plan.ConsumersOf(outs[p])) {
        has_consumer = true;
        os << "  mop" << id << " -> mop" << end.mop << " [label=\"" << label
           << "\"];\n";
      }
      if (!has_consumer) {
        // Terminal channel: draw the query outputs it carries.
        for (const Plan::OutputDef& def : plan.outputs()) {
          if (ch.SlotOf(def.stream).has_value()) {
            os << "  out_" << def.query_name
               << " [shape=ellipse style=dashed label=\"" << def.query_name
               << "\"];\n";
            os << "  mop" << id << " -> out_" << def.query_name
               << " [label=\"" << label << "\"];\n";
          }
        }
      }
    }
  }
  os << "}\n";
  return os.str();
}

std::string SummarizePlan(const Plan& plan) {
  int max_capacity = 0;
  int wired_channels = 0;
  for (ChannelId c = 0; c < plan.num_channels(); ++c) {
    if (plan.ProducerOf(c).has_value() || !plan.ConsumersOf(c).empty()) {
      ++wired_channels;
      max_capacity = std::max(max_capacity, plan.channel(c).capacity());
    }
  }
  std::ostringstream os;
  os << "plan: " << plan.LiveMops().size() << " m-ops, " << wired_channels
     << " wired channels (max capacity " << max_capacity << "), "
     << plan.outputs().size() << " query outputs";
  return os.str();
}

}  // namespace rumor
