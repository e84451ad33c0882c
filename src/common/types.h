// Common strong types shared by every module of the LDS reproduction.
//
// The paper (Konwar et al., PODC 2017) models a system of processes with
// totally-ordered unique ids: writers W, readers R, and servers S organised
// into two layers L1 and L2.  We give each process a NodeId; the roles are
// tracked separately so that the network layer can classify links
// (client<->L1, L1<->L1, L1<->L2, ...) for latency and cost accounting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <compare>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace lds {

/// Raw bytes.  Object values, coded elements and helper data are all byte
/// strings; one byte is one GF(2^8) symbol.
using Bytes = std::vector<std::uint8_t>;

/// Identifier of a process (writer, reader, L1 server, or L2 server).
using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

/// The distinct nodes that answered one quorum phase.  Quorums are small and
/// the set is only inserted into, sized and cleared, so a vector scan does
/// the job, and its capacity survives clear(): a client allocates it once,
/// not once per reply as a hash set does.
class ResponderSet {
 public:
  /// False when `id` already answered.
  bool insert(NodeId id) {
    if (std::find(ids_.begin(), ids_.end(), id) != ids_.end()) return false;
    ids_.push_back(id);
    return true;
  }
  std::size_t size() const { return ids_.size(); }
  void clear() { ids_.clear(); }

 private:
  std::vector<NodeId> ids_;
};

/// Identifier of an object in a multi-object deployment.  A single-object
/// system simply uses object 0 everywhere (Section V runs N independent
/// instances of LDS; we key per-object server state by ObjectId).
using ObjectId = std::uint32_t;

/// Identifier of a client operation (read or write) or internal operation.
/// Unique across the execution: high 32 bits = client NodeId, low 32 bits =
/// per-client sequence number.  Carried inside every message so that the
/// cost tracker can attribute bytes to operations and so that server-side
/// per-read state (the key-value set K of Fig. 2) is keyed unambiguously.
using OpId = std::uint64_t;
inline constexpr OpId kNoOp = 0;

constexpr OpId make_op_id(NodeId client, std::uint32_t seq) {
  return (static_cast<OpId>(static_cast<std::uint32_t>(client)) << 32) | seq;
}
constexpr NodeId op_client(OpId op) {
  return static_cast<NodeId>(static_cast<std::int32_t>(op >> 32));
}
constexpr std::uint32_t op_seq(OpId op) {
  return static_cast<std::uint32_t>(op & 0xffffffffu);
}

/// Role of a process.  Used for link classification only; the protocol code
/// never branches on Role.
enum class Role : std::uint8_t { Writer, Reader, ServerL1, ServerL2, Other };

const char* role_name(Role r);

/// A tag is the version-control token of the paper: a pair (z, w) where z is
/// an integer and w a writer id, ordered lexicographically (Section III).
/// The relation > imposes a total order on the set of tags.
struct Tag {
  std::uint64_t z = 0;  ///< integer component
  NodeId w = 0;         ///< writer id component

  friend constexpr auto operator<=>(const Tag& a, const Tag& b) {
    if (auto c = a.z <=> b.z; c != 0) return c;
    return a.w <=> b.w;
  }
  friend constexpr bool operator==(const Tag&, const Tag&) = default;

  std::string to_string() const;
};

/// The initial tag t0 associated with the distinguished initial value v0.
inline constexpr Tag kTag0{0, 0};

/// Typed version token of the client API: a Tag plus a "known" marker.  Puts
/// and gets return a Version; conditional puts (put_if_version) take one.
/// Tags order versions totally (Section III), so Version comparisons are
/// tag-major; an unknown Version (default-constructed) orders below every
/// known one and never matches a stored tag in a conditional put.
class Version {
 public:
  constexpr Version() = default;
  constexpr explicit Version(Tag t) : tag_(t), known_(true) {}

  constexpr bool known() const { return known_; }
  constexpr Tag tag() const { return tag_; }

  friend constexpr auto operator<=>(const Version& a, const Version& b) {
    if (auto c = a.known_ <=> b.known_; c != 0) return c;
    return a.tag_ <=> b.tag_;
  }
  friend constexpr bool operator==(const Version&, const Version&) = default;

  std::string to_string() const {
    return known_ ? tag_.to_string() : std::string("unknown");
  }

 private:
  Tag tag_{};
  bool known_ = false;
};

struct TagHash {
  std::size_t operator()(const Tag& t) const noexcept {
    return std::hash<std::uint64_t>()(t.z * 0x9e3779b97f4a7c15ull ^
                                      static_cast<std::uint64_t>(t.w));
  }
};

}  // namespace lds
