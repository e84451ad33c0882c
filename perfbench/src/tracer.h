// The traced run's protocol recorder: a delivery observer on every shard's
// Network stamps each LDS message (wall time, from, to, type, OpId) into a
// per-shard in-memory buffer — one writer per buffer, the shard's own lane —
// and the phases of every client operation are derived afterwards from
// consecutive deliveries of its OpId.
//
//   get:  QUERY-COMM-TAG ... QUERY-DATA ... PUT-TAG ... quorum-th PUT-TAG-ACK
//         query_tag        | get_data     | put_tag
//   put:  QUERY-TAG ... PUT-DATA ... quorum-th WRITE-ACK
//         get_tag      | put_data
//         offload: first WRITE-CODE-ELEM .. last ACK-CODE-ELEM of the op
//
// A phase is the interval between the first delivery that opens it and the
// first delivery that opens the next one, so the phases of one operation sum
// to its protocol span exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "store/store_service.h"

namespace perfbench {

struct Delivery {
  double t = 0;
  lds::OpId op = lds::kNoOp;
  lds::NodeId from = lds::kNoNode;
  lds::NodeId to = lds::kNoNode;
  std::uint8_t type = 0;  ///< lds::core::LdsBody alternative index
  const char* name = "";  ///< wire name (LdsMessage::type_name)
};

struct PhaseSummary {
  // Gets.
  std::size_t gets = 0;
  std::size_t non_monotone = 0;  ///< operations whose phase stamps regress
  double get_query_tag_ms = 0, get_data_ms = 0, get_put_tag_ms = 0;
  double get_protocol_ms = 0;
  std::size_t regen_gets = 0;  ///< no value response, >= k coded responses
  double helpers_per_get = 0;  ///< SEND-HELPER-ELEM (= helper_data calls)
  double coded_per_get = 0;    ///< DATA-RESP-CODED (= repair_element calls)
  // Puts (protocol writes; coalesced client puts never reach the protocol).
  std::size_t puts = 0;
  double put_get_tag_ms = 0, put_data_ms = 0, put_offload_ms = 0;
  double put_protocol_ms = 0;
};

class DeliveryTracer {
 public:
  explicit DeliveryTracer(lds::store::StoreService& svc);
  ~DeliveryTracer();
  DeliveryTracer(const DeliveryTracer&) = delete;
  DeliveryTracer& operator=(const DeliveryTracer&) = delete;

  /// Install / remove the observers.  Lanes must be quiescent.
  void attach();
  void detach();

  PhaseSummary summarize() const;

  /// Write every recorded delivery (up to `max_rows`) as CSV.
  bool write_csv(const std::string& path, std::size_t max_rows) const;
  std::size_t deliveries() const;

 private:
  lds::store::StoreService& svc_;
  std::vector<std::vector<Delivery>> buffers_;  ///< one per shard
  bool attached_ = false;
};

}  // namespace perfbench
