// Direct timings of single layers with the workload's own inputs: the
// shard's StripedCode at the workload's value size, the GF(256) kernels at
// its element size, one store RPC frame through net::codec, and one
// storage::Wal append (sync=always) on the workload's filesystem.
#pragma once

#include <string>

#include "codes/striped.h"
#include "common/slice.h"

namespace perfbench {

struct CodesTiming {
  double encode_us = 0, helper_data_us = 0, repair_element_us = 0,
         decode_value_us = 0;
  bool roundtrip_ok = false;  ///< decode(encode(v)) == v, repair == element
};
CodesTiming time_codes(const lds::codes::StripedCode& code,
                       const lds::Bytes& value, std::size_t n1);

struct GfTiming {
  double axpy_gbps = 0, dot_gbps = 0;
};
GfTiming time_gf(std::size_t bytes);

struct CodecTiming {
  double encode_us = 0, decode_us = 0;
  bool roundtrip_ok = false;
};
/// A RemotePut frame carrying `value` (the client's request frame).
CodecTiming time_codec(const lds::Value& value);

/// Median microseconds of one Wal::append of `bytes` under sync=always in a
/// fresh log under `dir` (removed afterwards); negative on I/O failure.
double time_wal_append(const std::string& dir, std::size_t bytes);

}  // namespace perfbench
