#include "tracer.h"

#include <cstdio>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "lds/cluster.h"
#include "lds/messages.h"
#include "report.h"

namespace perfbench {

namespace {

using lds::core::LdsBody;

template <class T, class V>
struct index_of;
template <class T, class... Ts>
struct index_of<T, std::variant<Ts...>> {
  static constexpr std::uint8_t value = [] {
    std::uint8_t i = 0;
    bool found = false;
    ((found = found || std::is_same_v<T, Ts>, i += found ? 0 : 1), ...);
    return i;
  }();
};
template <class T>
constexpr std::uint8_t kType = index_of<T, LdsBody>::value;

constexpr std::uint8_t kQueryTag = kType<lds::core::QueryTag>;
constexpr std::uint8_t kPutData = kType<lds::core::PutData>;
constexpr std::uint8_t kWriteAck = kType<lds::core::WriteAck>;
constexpr std::uint8_t kQueryCommTag = kType<lds::core::QueryCommTag>;
constexpr std::uint8_t kQueryData = kType<lds::core::QueryData>;
constexpr std::uint8_t kDataRespValue = kType<lds::core::DataRespValue>;
constexpr std::uint8_t kDataRespCoded = kType<lds::core::DataRespCoded>;
constexpr std::uint8_t kPutTag = kType<lds::core::PutTag>;
constexpr std::uint8_t kPutTagAck = kType<lds::core::PutTagAck>;
constexpr std::uint8_t kWriteCodeElem = kType<lds::core::WriteCodeElem>;
constexpr std::uint8_t kAckCodeElem = kType<lds::core::AckCodeElem>;
constexpr std::uint8_t kSendHelperElem = kType<lds::core::SendHelperElem>;

/// Stamps of one operation, in delivery order.
struct OpStamps {
  bool get = false;
  // The first delivery of each phase-opening message type.
  double open1 = -1, open2 = -1, open3 = -1;  // get: QCT, QD, PT; put: QT, PD
  double end = -1;                            // quorum-th final ack
  std::size_t acks = 0;
  double offload_first = -1, offload_last = -1;
  std::size_t values = 0, coded = 0, helpers = 0;
};

void first(double* slot, double t) {
  if (*slot < 0) *slot = t;
}

}  // namespace

DeliveryTracer::DeliveryTracer(lds::store::StoreService& svc) : svc_(svc) {
  buffers_.resize(svc.num_shards());
}

DeliveryTracer::~DeliveryTracer() { detach(); }

void DeliveryTracer::attach() {
  for (std::size_t s = 0; s < buffers_.size(); ++s) {
    auto* buf = &buffers_[s];
    buf->reserve(1 << 20);
    svc_.shard_lds(s)->net().set_delivery_observer(
        [buf](lds::NodeId from, lds::NodeId to, const lds::net::Payload& p) {
          const auto* m = dynamic_cast<const lds::core::LdsMessage*>(&p);
          if (m == nullptr) return;  // repair heartbeats
          buf->push_back(Delivery{now_s(), m->op(), from, to,
                                  static_cast<std::uint8_t>(m->body().index()),
                                  m->type_name()});
        });
  }
  attached_ = true;
}

void DeliveryTracer::detach() {
  if (!attached_) return;
  for (std::size_t s = 0; s < buffers_.size(); ++s) {
    svc_.shard_lds(s)->net().set_delivery_observer({});
  }
  attached_ = false;
}

std::size_t DeliveryTracer::deliveries() const {
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b.size();
  return n;
}

PhaseSummary DeliveryTracer::summarize() const {
  const auto& cfg = svc_.shard_lds(0)->ctx().cfg;
  const std::size_t quorum = cfg.l1_quorum();
  PhaseSummary out;
  std::vector<double> g1, g2, g3, gp, p1, p2, po, pp;
  double helpers = 0, coded = 0;
  for (const auto& buf : buffers_) {
    std::unordered_map<lds::OpId, OpStamps> ops;
    for (const Delivery& d : buf) {
      const lds::NodeId client = lds::op_client(d.op);
      if (d.op == lds::kNoOp || client < 1 || client >= lds::core::kL1IdBase) {
        continue;  // durable-ack broadcasts, L2 repair rounds
      }
      OpStamps& s = ops[d.op];
      s.get = client >= lds::core::kReaderIdBase;
      if (s.get) {
        if (d.type == kQueryCommTag) first(&s.open1, d.t);
        if (d.type == kQueryData) first(&s.open2, d.t);
        if (d.type == kPutTag) first(&s.open3, d.t);
        if (d.type == kPutTagAck && d.to == client && ++s.acks == quorum) {
          s.end = d.t;
        }
        if (d.type == kDataRespValue && d.to == client) ++s.values;
        if (d.type == kDataRespCoded && d.to == client) ++s.coded;
        if (d.type == kSendHelperElem) ++s.helpers;
      } else {
        if (d.type == kQueryTag) first(&s.open1, d.t);
        if (d.type == kPutData) first(&s.open2, d.t);
        if (d.type == kWriteAck && d.to == client && ++s.acks == quorum) {
          s.end = d.t;
        }
        if (d.type == kWriteCodeElem) first(&s.offload_first, d.t);
        if (d.type == kAckCodeElem) s.offload_last = d.t;
      }
    }
    for (const auto& [op, s] : ops) {
      if (s.get) {
        if (s.open1 < 0 || s.open2 < 0 || s.open3 < 0 || s.end < 0) continue;
        if (!(s.open1 <= s.open2 && s.open2 <= s.open3 && s.open3 <= s.end)) {
          ++out.non_monotone;
        }
        ++out.gets;
        g1.push_back((s.open2 - s.open1) * 1e3);
        g2.push_back((s.open3 - s.open2) * 1e3);
        g3.push_back((s.end - s.open3) * 1e3);
        gp.push_back((s.end - s.open1) * 1e3);
        if (s.values == 0 && s.coded >= cfg.k()) ++out.regen_gets;
        helpers += static_cast<double>(s.helpers);
        coded += static_cast<double>(s.coded);
      } else {
        if (s.open1 < 0 || s.open2 < 0 || s.end < 0) continue;
        if (!(s.open1 <= s.open2 && s.open2 <= s.end)) ++out.non_monotone;
        ++out.puts;
        p1.push_back((s.open2 - s.open1) * 1e3);
        p2.push_back((s.end - s.open2) * 1e3);
        pp.push_back((s.end - s.open1) * 1e3);
        if (s.offload_first >= 0 && s.offload_last >= s.offload_first) {
          po.push_back((s.offload_last - s.offload_first) * 1e3);
        }
      }
    }
  }
  out.get_query_tag_ms = mean(g1);
  out.get_data_ms = mean(g2);
  out.get_put_tag_ms = mean(g3);
  out.get_protocol_ms = mean(gp);
  out.put_get_tag_ms = mean(p1);
  out.put_data_ms = mean(p2);
  out.put_offload_ms = mean(po);
  out.put_protocol_ms = mean(pp);
  if (out.gets > 0) {
    out.helpers_per_get = helpers / static_cast<double>(out.gets);
    out.coded_per_get = coded / static_cast<double>(out.gets);
  }
  return out;
}

bool DeliveryTracer::write_csv(const std::string& path,
                               std::size_t max_rows) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "shard,t_s,op,from,to,type\n");
  std::size_t rows = 0;
  for (std::size_t s = 0; s < buffers_.size() && rows < max_rows; ++s) {
    for (const Delivery& d : buffers_[s]) {
      if (rows++ >= max_rows) break;
      std::fprintf(f, "%zu,%.9f,%llu,%d,%d,%s\n", s, d.t,
                   static_cast<unsigned long long>(d.op), d.from, d.to,
                   d.name);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
