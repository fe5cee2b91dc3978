#include "fault/plan.h"

namespace bistro {

namespace {

using syntax::Custom;
using syntax::Cursor;
using syntax::DurationLiteral;
using syntax::Key;
using syntax::Num;
using syntax::Quote;
using syntax::Statements;

// Reads `"a" "b"`: the two distinct ends of a link.
Status ReadLink(Cursor& in, const std::string& verb, std::string* from,
                std::string* to) {
  const size_t at = in.Peek().offset;
  BISTRO_ASSIGN_OR_RETURN(*from, in.String());
  BISTRO_ASSIGN_OR_RETURN(*to, in.String());
  if (*from == *to) return in.ErrAt(at, verb + " endpoints must differ");
  return Status::OK();
}

const char* Verb(LinkFault::Kind kind) {
  switch (kind) {
    case LinkFault::Kind::kPartition:
      return "partition";
    case LinkFault::Kind::kBlackhole:
      return "blackhole";
    case LinkFault::Kind::kSlowLink:
      return "slow_link";
  }
  return "?";
}

// `partition|blackhole|slow_link "a" "b" [delay] at T`. All three append to
// one list; the partition key formats every entry, with its own verb, so
// the declared order survives a round trip.
Key<NetFaultSpec> LinkFaultKey(LinkFault::Kind kind) {
  const bool slow = kind == LinkFault::Kind::kSlowLink;
  const std::string verb = Verb(kind);
  Key<NetFaultSpec> key = Custom<NetFaultSpec>(
      verb, slow ? "\"a\" \"b\" D at T" : "\"a\" \"b\" at T",
      [kind, slow, verb](Cursor& in, NetFaultSpec& net) -> Status {
        LinkFault fault;
        fault.kind = kind;
        BISTRO_RETURN_IF_ERROR(ReadLink(in, verb, &fault.from, &fault.to));
        if (slow) {
          const size_t at = in.Peek().offset;
          BISTRO_ASSIGN_OR_RETURN(fault.delay, in.Dur());
          if (fault.delay <= 0) {
            return in.ErrAt(at, "slow_link delay must be positive");
          }
        }
        BISTRO_RETURN_IF_ERROR(in.Expect("at"));
        BISTRO_ASSIGN_OR_RETURN(fault.at, in.Dur());
        net.link_faults.push_back(std::move(fault));
        return Status::OK();
      },
      nullptr);
  if (kind != LinkFault::Kind::kPartition) return key;
  key.format = [](const NetFaultSpec& net, Statements* out) {
    for (const LinkFault& f : net.link_faults) {
      std::string s = std::string(Verb(f.kind)) + " " + Quote(f.from) + " " +
                      Quote(f.to);
      if (f.kind == LinkFault::Kind::kSlowLink) {
        s += " " + DurationLiteral(f.delay);
      }
      out->push_back(s + " at " + DurationLiteral(f.at));
    }
  };
  return key;
}

const std::vector<Key<VfsFaultSpec>> kVfsKeys = {
    Num("write_error", &VfsFaultSpec::write_error_prob, 0, 1),
    Num("torn_write", &VfsFaultSpec::torn_write_prob, 0, 1),
    Num("sync_error", &VfsFaultSpec::sync_error_prob, 0, 1),
    syntax::Str("scope", &VfsFaultSpec::scope),
};

const std::vector<Key<NetFaultSpec>> kNetKeys = {
    Num("send_failure", &NetFaultSpec::send_failure_prob, 0, 1),
    Num("corrupt", &NetFaultSpec::corrupt_prob, 0, 1),
    Num("ack_loss", &NetFaultSpec::ack_loss_prob, 0, 1),
    Custom<NetFaultSpec>(
        "flap", "\"ep\" down T up T",
        [](Cursor& in, NetFaultSpec& net) -> Status {
          LinkFlap flap;
          BISTRO_ASSIGN_OR_RETURN(flap.endpoint, in.String());
          BISTRO_RETURN_IF_ERROR(in.Expect("down"));
          BISTRO_ASSIGN_OR_RETURN(flap.down_at, in.Dur());
          BISTRO_RETURN_IF_ERROR(in.Expect("up"));
          const size_t at = in.Peek().offset;
          BISTRO_ASSIGN_OR_RETURN(flap.up_at, in.Dur());
          if (flap.up_at <= flap.down_at) {
            return in.ErrAt(at, "flap must heal after it fails");
          }
          net.flaps.push_back(std::move(flap));
          return Status::OK();
        },
        [](const NetFaultSpec& net, Statements* out) {
          for (const LinkFlap& f : net.flaps) {
            out->push_back("flap " + Quote(f.endpoint) + " down " +
                           DurationLiteral(f.down_at) + " up " +
                           DurationLiteral(f.up_at));
          }
        }),
    Custom<NetFaultSpec>(
        "degrade", "\"ep\" F (F ≥ 1)",
        [](Cursor& in, NetFaultSpec& net) -> Status {
          LinkDegrade deg;
          BISTRO_ASSIGN_OR_RETURN(deg.endpoint, in.String());
          const size_t at = in.Peek().offset;
          BISTRO_ASSIGN_OR_RETURN(deg.factor, in.Number());
          if (deg.factor < 1.0) {
            return in.ErrAt(at, "degrade factor must be >= 1");
          }
          net.degrades.push_back(std::move(deg));
          return Status::OK();
        },
        [](const NetFaultSpec& net, Statements* out) {
          for (const LinkDegrade& d : net.degrades) {
            out->push_back("degrade " + Quote(d.endpoint) + " " +
                           syntax::FormatNumber(d.factor));
          }
        }),
    LinkFaultKey(LinkFault::Kind::kPartition),
    LinkFaultKey(LinkFault::Kind::kBlackhole),
    LinkFaultKey(LinkFault::Kind::kSlowLink),
    Custom<NetFaultSpec>(
        "heal", "\"a\" \"b\" at T",
        [](Cursor& in, NetFaultSpec& net) -> Status {
          LinkHeal heal;
          BISTRO_RETURN_IF_ERROR(ReadLink(in, "heal", &heal.from, &heal.to));
          BISTRO_RETURN_IF_ERROR(in.Expect("at"));
          BISTRO_ASSIGN_OR_RETURN(heal.at, in.Dur());
          net.link_heals.push_back(std::move(heal));
          return Status::OK();
        },
        [](const NetFaultSpec& net, Statements* out) {
          for (const LinkHeal& h : net.link_heals) {
            out->push_back("heal " + Quote(h.from) + " " + Quote(h.to) +
                           " at " + DurationLiteral(h.at));
          }
        }),
};

const std::vector<Key<FaultPlan>> kPlanKeys = {
    syntax::Int("seed", &FaultPlan::seed, 0),
    syntax::Nested("vfs", &FaultPlan::vfs, &kVfsKeys),
    syntax::Nested("net", &FaultPlan::net, &kNetKeys),
};

}  // namespace

Result<FaultPlan> ParseFaultPlan(std::string_view text) {
  BISTRO_ASSIGN_OR_RETURN(Cursor in, Cursor::Lex(text, "fault plan"));
  FaultPlan plan;
  BISTRO_RETURN_IF_ERROR(in.Expect("fault_plan"));
  BISTRO_RETURN_IF_ERROR(syntax::ParseBody(in, kPlanKeys, &plan, "fault_plan"));
  if (!in.AtEof()) return in.Err("trailing input after fault_plan");
  return plan;
}

std::string FormatFaultPlan(const FaultPlan& plan) {
  return "fault_plan " + syntax::FormatBody(kPlanKeys, plan) + "\n";
}

syntax::BlockDoc FaultPlanSchema() {
  return syntax::BlockDoc{"fault_plan", false, syntax::Docs(kPlanKeys)};
}

}  // namespace bistro
