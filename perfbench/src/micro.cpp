#include "micro.h"

#include <filesystem>
#include <vector>

#include "common/rng.h"
#include "gf/gf256.h"
#include "net/codec.h"
#include "report.h"
#include "storage/wal.h"
#include "store/remote.h"

namespace perfbench {

CodesTiming time_codes(const lds::codes::StripedCode& code,
                       const lds::Bytes& value, std::size_t n1) {
  CodesTiming t;
  const std::vector<lds::Bytes> elems = code.encode_value(value);
  t.encode_us = time_us([&] { (void)code.encode_value(value); });

  // Repair L1 coordinate 0 from the first d L2 coordinates, as an L1 server
  // regenerating for a reader does.
  const int target = 0;
  std::vector<lds::codes::IndexedBytes> helpers;
  for (std::size_t h = 0; h < code.d(); ++h) {
    const int idx = static_cast<int>(n1 + h);
    helpers.emplace_back(idx, code.helper_data(idx, elems[idx], target));
  }
  const int helper = static_cast<int>(n1);
  t.helper_data_us = time_us(
      [&] { (void)code.helper_data(helper, elems[helper], target); });
  t.repair_element_us =
      time_us([&] { (void)code.repair_element(target, helpers); });

  // Decode from the first k L1 coordinates, as the reader does.
  std::vector<lds::codes::IndexedBytes> coded;
  for (std::size_t j = 0; j < code.k(); ++j) {
    coded.emplace_back(static_cast<int>(j), elems[j]);
  }
  t.decode_value_us = time_us([&] { (void)code.decode_value(coded); });

  const auto decoded = code.decode_value(coded);
  const auto repaired = code.repair_element(target, helpers);
  t.roundtrip_ok = decoded.has_value() && *decoded == value &&
                   repaired.has_value() && *repaired == elems[target];
  return t;
}

GfTiming time_gf(std::size_t bytes) {
  lds::Rng rng(0x6f);
  const lds::Bytes x = rng.bytes(bytes);
  lds::Bytes y = rng.bytes(bytes);
  GfTiming t;
  const double axpy_us =
      time_us([&] { lds::gf::axpy(y, 0x53, x); }, 7, 0.005);
  volatile lds::gf::Elem sink = 0;
  const double dot_us = time_us([&] { sink = lds::gf::dot(x, y); }, 7, 0.005);
  (void)sink;
  const auto gbps = [bytes](double us) {
    return us > 0 ? static_cast<double>(bytes) / (us * 1e3) : 0;
  };
  t.axpy_gbps = gbps(axpy_us);
  t.dot_gbps = gbps(dot_us);
  return t;
}

CodecTiming time_codec(const lds::Value& value) {
  namespace codec = lds::net::codec;
  lds::store::register_store_wire();
  const auto msg = lds::store::RemoteMessage::make(
      7, lds::store::RemotePut{"k0123456789abcdef", value});
  CodecTiming t;
  t.encode_us = time_us([&] { (void)codec::encode(*msg); });
  const lds::Bytes frame = codec::encode(*msg).to_bytes();
  t.decode_us = time_us([&] {
    lds::net::MessagePtr out;
    (void)codec::decode(frame, &out);
  });
  lds::net::MessagePtr out;
  if (codec::decode(frame, &out).ok()) {
    const auto* m = dynamic_cast<const lds::store::RemoteMessage*>(out.get());
    const auto* put =
        m == nullptr ? nullptr : std::get_if<lds::store::RemotePut>(&m->body());
    t.roundtrip_ok = put != nullptr && put->value == value;
  }
  return t;
}

double time_wal_append(const std::string& dir, std::size_t bytes) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  lds::storage::DurabilityPolicy policy;
  policy.sync = lds::storage::SyncPolicy::Always;
  double us = -1;
  {
    auto wal = lds::storage::Wal::open(dir, policy);
    if (!wal.ok()) return -1;
    const lds::Bytes record = lds::Rng(0x3a1).bytes(bytes);
    std::vector<double> samples;
    bool ok = true;
    for (int i = 0; i < 200 && ok; ++i) {
      const double t0 = now_s();
      ok = wal.value()->append(record).ok();
      samples.push_back((now_s() - t0) * 1e6);
    }
    if (ok) us = median(samples);
  }
  std::filesystem::remove_all(dir, ec);
  return us;
}

}  // namespace perfbench
